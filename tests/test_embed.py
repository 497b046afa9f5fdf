import gc
import hashlib
import math
from itertools import combinations, product

import numpy as np
import pytest

from barygap.embed import (
    add_edge_move,
    canonical_clique_collection,
    collection_from_pattern,
    embed_phi,
    embed_psi,
    embed_xi,
    pair_index,
    phi_coord,
    PointConfig,
    psi_dimension,
    q1_clique_witness,
    q1_value_formula,
    regime_for,
    tau,
    verify_collection,
)
from barygap.errors import InputError
from barygap.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    even_k_doubling,
    induced_edge_count,
    petersen_graph,
    random_regular_graph,
)
from barygap.verify import random_collection

K4 = complete_graph(4)
C5 = cycle_graph(5)


# ---------------------------------------------------------------------------
# phi


def test_phi_k4_dimensions_and_gram():
    cfg = embed_phi(K4, 3)
    assert cfg.d == 48
    pts = [[cfg.points[i, v].astype(np.int64) for v in range(4)] for i in range(3)]
    for i in range(3):
        for v in range(4):
            assert pts[i][v] @ pts[i][v] == 3 * 2  # D(k-1)
    for i in range(3):
        for j in range(i + 1, 3):
            for v in range(4):
                for w in range(4):
                    assert pts[i][v] @ pts[j][w] == (1 if K4.has_edge(v, w) else 0)


def test_phi_c5_k2():
    cfg = embed_phi(C5, 2)
    assert cfg.d == 25
    a = cfg.points[0, 0].astype(int)
    assert a @ cfg.points[1, 1].astype(int) == 1  # edge
    assert a @ cfg.points[1, 2].astype(int) == 0  # non-edge


def test_phi_edgeless_graph_gives_zero_vectors():
    g = Graph.from_edges(3, [])
    cfg = embed_phi(g, 2)
    for i in range(2):
        for v in range(3):
            assert not cfg.points[i, v].any()


def test_phi_gram_on_random_regular_graphs():
    pool = [(4, 2), (5, 2), (6, 3), (7, 2), (6, 4), (8, 3), (5, 4), (7, 4),
            (8, 5), (6, 2), (4, 3), (8, 4), (7, 6), (6, 5), (5, 2), (8, 7),
            (6, 3), (7, 2), (8, 3), (4, 2)]
    ks = [2, 3, 4]
    for i, (n, deg) in enumerate(pool):
        g = random_regular_graph(n, deg, seed=20 + i)
        k = ks[i % 3]
        cfg = embed_phi(g, k)
        stack = np.stack(
            [cfg.points[a, v].astype(np.int64) for a in range(k) for v in range(n)]
        )
        gram = stack @ stack.T
        for a in range(k):
            for v in range(n):
                assert gram[a * n + v, a * n + v] == deg * (k - 1)
                for b in range(a + 1, k):
                    for w in range(n):
                        assert gram[a * n + v, b * n + w] == int(g.has_edge(v, w))


def test_phi_requires_regular():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InputError):
        embed_phi(star, 2)


# ---------------------------------------------------------------------------
# psi


def test_tau_values_and_evenness():
    assert tau(1, 2, 3) == -1
    for k in (4, 6):
        for l in range(1, k + 1):
            for lp in range(l + 1, k + 1):
                assert sum(tau(l, lp, i) for i in range(1, k + 1) if i not in (l, lp)) == 0
    # odd k breaks the cancellation: the k=3 case has a single tau = -1
    assert sum(tau(1, 2, i) for i in range(1, 4) if i not in (1, 2)) == -1


def test_psi_dimensions_norms_and_guards():
    cfg = embed_psi(K4, 4)
    assert cfg.d == 2 * 6 * 16 == 192
    for i in range(4):
        for v in range(4):
            # ||psi(i,v)||_1 = n(k-1)(nk-2n+2)
            assert int(np.abs(cfg.points[i, v].astype(np.int64)).sum()) == 120
    with pytest.raises(InputError):
        embed_psi(K4, 3)
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InputError):
        embed_psi(star, 2)


def test_psi_tau_sum_inside_embedding():
    cfg = embed_psi(K4, 4)
    n, k = 4, 4
    for l in range(k):
        for lp in range(l + 1, k):
            for u in range(n):
                for up in range(n):
                    for s_idx, s in enumerate((1, -1)):
                        coord = (
                            (l * k - l * (l + 1) // 2 + (lp - l - 1)) * n * n
                            + u * n + up
                        ) * 2 + s_idx
                        total = sum(
                            int(cfg.points[i, 0][coord])
                            for i in range(k)
                            if i not in (l, lp)
                        )
                        assert total == 0


# ---------------------------------------------------------------------------
# the coordinate layout


def _layout_reference(g, k, emb):
    """Every entry of an embedding, written from the documented formulas."""
    n = g.n
    d = psi_dimension(n, k) if emb == "psi" else math.comb(k, 2) * n * n
    want = np.zeros((k, n, d), dtype=np.int8)
    for l, lp in combinations(range(k), 2):
        for u, up in product(range(n), repeat=2):
            edge = g.has_edge(u, up)
            if emb == "psi":
                for c, s in enumerate((1, -1)):
                    co = (pair_index(k, l, lp) * n * n + u * n + up) * 2 + c
                    want[l, u, co], want[lp, up, co] = s, (s if edge else -s)
                    for i in set(range(k)) - {l, lp}:
                        want[i, :, co] = tau(l + 1, lp + 1, i + 1)
            else:
                co = phi_coord(n, k, l, u, lp, up)
                want[l, u, co] = edge if emb == "phi" else (1 if edge else -1)
                want[lp, up, co] = edge if emb == "phi" else 1
    return want


def test_embeddings_and_witness_follow_the_documented_layout():
    irregular = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    regular = [K4, C5, petersen_graph(), random_regular_graph(8, 3, seed=5)]
    cases = [(g, k, emb) for g in regular for k in range(1, 7)
             for emb in ("phi", "xi", "psi") if emb != "psi" or k % 2 == 0]
    cases += [(irregular, k, "xi") for k in range(1, 7)]
    cases.append((*even_k_doubling(cycle_graph(4), 3), "psi"))
    rng = np.random.default_rng(0)
    for g, k, emb in cases:
        if emb == "phi":
            cfg = embed_phi(g, k, p=1.0, q=1.5)
        elif emb == "psi":
            cfg = embed_psi(g, k, p=1.0)
        else:
            cfg = embed_xi(g, k, p=2.0)
        assert cfg.points.dtype == np.int8
        assert np.array_equal(cfg.points, _layout_reference(g, k, emb)), (g.n, k, emb)
        if emb != "psi":
            continue
        # the witness is s on both sign channels of every selected edge
        for _ in range(20):
            vt = tuple(int(v) for v in rng.integers(0, g.n, size=k))
            want = np.zeros(cfg.d, dtype=np.int64)
            for l, lp in combinations(range(k), 2):
                if g.has_edge(vt[l], vt[lp]):
                    co = (pair_index(k, l, lp) * g.n * g.n + vt[l] * g.n + vt[lp]) * 2
                    want[co : co + 2] = (1, -1)
            got = q1_clique_witness(cfg, vt)
            assert got.dtype == np.int64 and np.array_equal(got, want), (g.n, k, vt)


# ---------------------------------------------------------------------------
# xi


def test_xi_c5_coordinates():
    cfg = embed_xi(C5, 3)
    co = phi_coord(5, 3, 0, 0, 1, 2)
    assert cfg.points[0, 0][co] == -1
    assert cfg.points[1, 2][co] == 1
    diff = np.abs(
        cfg.points[0, 0].astype(int) - cfg.points[1, 2].astype(int)
    ).max()
    assert diff == 2


def test_xi_k4_no_minus_one_on_edge_coordinates():
    cfg = embed_xi(K4, 3)
    n, k = 4, 3
    for l in range(k):
        for lp in range(l + 1, k):
            base = (l * k - l * (l + 1) // 2 + (lp - l - 1)) * n * n
            for u, up in [(u, up) for u in range(n) for up in range(n) if K4.has_edge(u, up)]:
                coord = base + u * n + up
                for i in range(k):
                    for v in range(n):
                        assert cfg.points[i, v][coord] != -1


def test_xi_c5_k2_pairwise_linf_at_least_one():
    cfg = embed_xi(C5, 2)
    for v in range(5):
        for w in range(5):
            diff = np.abs(
                cfg.points[0, v].astype(int) - cfg.points[1, w].astype(int)
            ).max()
            assert diff >= 1


def test_xi_requires_three_vertices():
    with pytest.raises(InputError):
        embed_xi(complete_graph(2), 2)


# ---------------------------------------------------------------------------
# collections


def test_verify_collection_on_phi_tuples():
    pool = [(5, 2), (6, 3), (7, 4), (8, 3), (6, 4)]
    rng = np.random.default_rng(5)
    for i, (n, deg) in enumerate(pool):
        g = random_regular_graph(n, deg, seed=50 + i)
        k = int(rng.integers(2, 5))
        cfg = embed_phi(g, k)
        for _ in range(5):
            vt = tuple(int(v) for v in rng.integers(0, n, size=k))
            res = verify_collection(cfg.dense_tuple(vt))
            assert res["ok"], res
            assert res["s"] == deg * (k - 1)
            assert res["t"] == induced_edge_count(g, vt)


def test_verify_collection_rejects_identical_copies():
    vec = np.zeros(6, dtype=int)
    vec[:2] = 1  # s = 2
    res = verify_collection(np.stack([vec, vec, vec]))
    assert not res["ok"]
    assert res["violations"]


def test_verify_collection_rejects_nonbinary():
    with pytest.raises(InputError):
        verify_collection(np.array([[0, 2], [1, 0]]))


def test_canonical_clique_collection():
    c = canonical_clique_collection(2, 1)
    assert c.vectors.shape == (2, 1) and c.s == 1 and c.t == 1
    assert verify_collection(c.vectors)["ok"]
    c = canonical_clique_collection(3, 2)
    assert c.vectors.shape[1] == 9 and c.s == 4 and c.t == 3
    assert verify_collection(c.vectors) == {"ok": True, "s": 4, "t": 3, "violations": []}
    # construction dimension C(k,2) + k(D-1)(k-1); s and t as specified
    c = canonical_clique_collection(4, 3)
    assert c.vectors.shape[1] == 6 + 4 * 2 * 3
    res = verify_collection(c.vectors)
    assert res["ok"] and res["s"] == 9 and res["t"] == 6


def test_collection_from_pattern():
    c = collection_from_pattern(4, 2, [(0, 1), (2, 3)])
    res = verify_collection(c.vectors)
    assert res["ok"] and res["s"] == 6 and res["t"] == 2


def _pattern_vectors(k, s, edges):
    # the overlap layout written out: edge e shares column e, then each
    # vector's private ones, vector by vector
    deg = [sum(i in e for e in edges) for i in range(k)]
    x = np.zeros((k, len(edges) + sum(s - dg for dg in deg)), dtype=np.int64)
    for e, (i, j) in enumerate(edges):
        x[i, e] = x[j, e] = 1
    off = len(edges)
    for i in range(k):
        x[i, off : off + s - deg[i]] = 1
        off += s - deg[i]
    return x


def test_collections_share_one_layout():
    for k in range(2, 8):
        for D in range(1, 5):
            pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
            c = canonical_clique_collection(k, D)
            assert np.array_equal(c.vectors, _pattern_vectors(k, D * (k - 1), pairs))
            assert (c.s, c.t) == (D * (k - 1), len(pairs))
    # random collections: edges in the order drawn, then one column shuffle,
    # from the same random stream
    params = np.random.default_rng(0)
    for seed in range(200):
        k = int(params.integers(2, 7))
        s = int(params.integers(k - 1, 2 * k))  # at least the largest degree
        t = int(params.integers(0, k * (k - 1) // 2 + 1))
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        edges = [pairs[int(c)] for c in ref.choice(len(pairs), size=t, replace=False)]
        x = _pattern_vectors(k, s, edges)
        want = x[:, ref.permutation(x.shape[1])]
        got = random_collection(k, s, t, rng)
        assert np.array_equal(got.vectors, want) and (got.s, got.t) == (s, t)
        assert rng.random() == ref.random()


def test_add_edge_move_on_phi_path_tuple():
    cfg = embed_phi(C5, 3)
    from barygap.embed import Collection

    vecs = cfg.dense_tuple((0, 1, 2)).astype(np.int64)
    start = verify_collection(vecs)
    assert start["t"] == 2
    out = add_edge_move(Collection(vectors=vecs, s=start["s"], t=start["t"]))
    res = verify_collection(out.vectors)
    assert res["ok"] and res["t"] == 3 and res["s"] == start["s"]


def test_add_edge_move_restores_full_overlap():
    c = canonical_clique_collection(3, 2)
    # drop one shared coordinate to get t = C(k,2) - 1
    vecs = c.vectors.copy()
    vecs[0, 0] = 0
    extra = np.zeros((3, 1), dtype=np.int64)
    extra[0, 0] = 1
    vecs = np.hstack([vecs, extra])
    res = verify_collection(vecs)
    assert res["t"] == 2
    from barygap.embed import Collection

    out = add_edge_move(Collection(vectors=vecs, s=res["s"], t=res["t"]))
    chk = verify_collection(out.vectors)
    assert chk["ok"] and chk["t"] == 3


def test_add_edge_move_preconditions():
    from barygap.embed import Collection

    c = canonical_clique_collection(3, 2)
    with pytest.raises(InputError):
        add_edge_move(c)  # t already at C(k,2)
    tiny = collection_from_pattern(3, 1, [])  # s = 2 >= k-1: fine
    out = add_edge_move(tiny)
    assert verify_collection(out.vectors)["t"] == 1


# ---------------------------------------------------------------------------
# serialization


def test_point_config_roundtrip(tmp_path):
    cfg = embed_psi(K4, 4)
    path = tmp_path / "pts.json"
    cfg.save(path)
    back = PointConfig.load(path)
    assert back.k == cfg.k and back.n == cfg.n and back.d == cfg.d
    assert back.regime == cfg.regime and back.q == cfg.q
    assert back.points.dtype == np.int8
    assert np.array_equal(back.points, cfg.points)


def test_point_config_inf_q_roundtrip(tmp_path):
    cfg = embed_xi(K4, 3, p=2.0)
    path = tmp_path / "pts.json"
    cfg.save(path)
    back = PointConfig.load(path)
    assert back.q == math.inf and back.regime == "QINF"


# Each point is its (coordinate, value) pairs in increasing coordinate order;
# these digests pin the file format of `barygap embed` output.
CONFIG_SHA256 = {
    ("K4", "phi"): "6af488b175129fe9a3372d7fcc8930cddebaccd1c5465499811a1e43aac33819",
    ("K4", "psi"): "30fb60f93fc6043abe13d2c8ef477e0042aa9211d54e00e58f9d5e1b317af97e",
    ("K4", "xi"): "4c0d37aca79e4b588feb672a55dfb0b7fe4cda87b1fdf125b409e1ab5e04f159",
    ("C5", "phi"): "5aa9a11bb1a4036618007677ab6ecaeebedd75f66cb5c6277225d31522e1b256",
    ("C5", "psi"): "7b15ccbb7d47c606225f02912e5115bd92f5d796e8993436cc3cb71af194ac85",
    ("C5", "xi"): "e1206edf854e7f53f047e0419f5cfa5bac136c60e880d1d1f15026d144b618d1",
    ("Petersen", "phi"): "5eefc8a11b9131a873e8ea43c5538a1b6a024b83c225d61b034bcc6e6e3ae041",
    ("Petersen", "psi"): "4f0ed2d481bebd3eb386cf9d1883e18868c879f73afa9b926e94d9f6223ab8b8",
    ("Petersen", "xi"): "d7f0d700a076531be714a285506a26993f62a6769fcbc76779a734d917768f2c",
}


def test_point_config_files_are_pinned(tmp_path):
    graphs = {"K4": K4, "C5": C5, "Petersen": petersen_graph()}
    for (name, emb), digest in CONFIG_SHA256.items():
        g = graphs[name]
        if emb == "phi":
            cfg = embed_phi(g, 4, p=1.0, q=1.5)
        elif emb == "psi":
            cfg = embed_psi(g, 4, p=1.0)
        else:
            cfg = embed_xi(g, 4, p=2.0)
        path = tmp_path / f"{name}-{emb}.json"
        cfg.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (name, emb)
        assert np.array_equal(PointConfig.load(path).points, cfg.points)



def test_point_config_stores_int8_and_refuses_other_values():
    pts = embed_phi(cycle_graph(4), 2).points
    for copy in (pts.astype(np.int64), pts.astype(float), pts.astype(bool)):
        cfg = PointConfig(copy, 2.0, 2.0)
        assert cfg.points.dtype == np.int8 and np.array_equal(cfg.points, pts)
    assert PointConfig(pts, 2.0, 2.0).points is pts
    # group 1 moved by 0.4 in coordinate 0: the int16 cast of chub's symmetry
    # proof would drop the move and prove the swap (0 1) on these points
    moved = pts.astype(float)
    moved[1, :, 0] += 0.4
    bad = [moved]
    for value in (2, -2, 255, 256, -129, math.nan, math.inf):
        arr = pts.astype(float if isinstance(value, float) else np.int64)
        arr[0, 0, 0] = value
        bad.append(arr)
    for arr in bad:
        with pytest.raises(InputError, match="point values must lie in"):
            PointConfig(arr, 2.0, 2.0)


@pytest.mark.parametrize("p", [math.nan, math.inf, 0.5])
def test_p_must_be_a_finite_number_at_least_one(p):
    with pytest.raises(InputError, match="p must be a finite number >= 1"):
        regime_for(p, 2.0)
    with pytest.raises(InputError, match="p must be a finite number >= 1"):
        PointConfig(np.zeros((2, 2, 1), dtype=np.int8), p, 2.0)
    with pytest.raises(InputError, match="p must be a finite number >= 1"):
        embed_psi(K4, 2, p=p)
    with pytest.raises(InputError, match="p must be a finite number >= 1"):
        q1_value_formula(5, 2, 1, p)


def test_point_config_json_keeps_empty_points_and_the_collector():
    points = np.zeros((2, 3, 4), dtype=np.int8)
    points[0, 1, 2] = -1
    points[1, 2, [0, 3]] = 1
    cfg = PointConfig(points, 2.0, 2.0)
    obj = cfg.to_json()
    assert obj["points"] == [[], [[2, -1]], [], [], [], [[0, 1], [3, 1]]]
    assert np.array_equal(PointConfig.from_json(obj).points, points)
    assert gc.isenabled()
