import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barygap.chub
import barygap.fpq
from barygap.chub import (
    _class_orbits,
    _classes,
    _grid_blocks,
    _gram_costs,
    _is_symmetry,
    _key_tables,
    _orbit_roots,
    _pair_list,
    _permute_codes,
    _position_generators,
    _proven,
    chub_closed_form_22,
    solve_chub,
    tuple_costs,
)
from barygap.embed import PointConfig, embed_phi, embed_psi, embed_xi
from barygap.errors import InputError, ResourceCapError
from barygap.fpq import FpqProblem, solve_fpq, solve_fpq_values
from barygap.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    even_k_doubling,
    has_k_clique,
    induced_edge_count,
    max_multiset_edges,
    random_regular_graph,
)

K4 = complete_graph(4)
C4 = cycle_graph(4)
C5 = cycle_graph(5)


def test_closed_form_examples():
    assert chub_closed_form_22(K4, 3) == Fraction(10)
    assert chub_closed_form_22(C4, 3) == Fraction(20, 3)
    assert chub_closed_form_22(K4, 4) == Fraction(24)


def test_closed_form_requires_regular():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(InputError):
        chub_closed_form_22(star, 2)


def test_enumerated_matches_closed_form_exactly():
    for g, k in [(K4, 3), (C5, 3), (C4, 3), (K4, 4), (complete_graph(5), 4)]:
        res = solve_chub(embed_phi(g, k))
        assert res.value_exact == chub_closed_form_22(g, k)
        assert res.tolerance == 0.0


def test_edgeless_graph_value_zero():
    g = Graph.from_edges(3, [])
    res = solve_chub(embed_phi(g, 2))
    assert res.value_exact == 0


def test_q22_separation_invariant():
    pool = [(5, 2, 7), (6, 3, 8), (7, 4, 9), (8, 3, 10), (6, 4, 11), (8, 5, 12)]
    for n, d, seed in pool:
        g = random_regular_graph(n, d, seed=seed)
        for k in (2, 3):
            val = solve_chub(embed_phi(g, k)).value_exact
            m = Fraction(d * (k - 1) ** 2)
            if has_k_clique(g, k):
                assert val == m - k + 1
            else:
                assert val >= m - k + 1 + Fraction(2, k)


def test_cap_error():
    with pytest.raises(ResourceCapError):
        solve_chub(embed_phi(K4, 3), cap=10)


def test_argmin_is_lex_least():
    res = solve_chub(embed_phi(K4, 3))
    assert res.argmin == (0, 1, 2)
    res = solve_chub(embed_psi(K4, 4, p=1.0), tol=1e-9)
    assert res.argmin == (0, 1, 2, 3)


def test_class_cache_agrees_with_per_tuple_solving():
    cases = [
        (embed_phi(K4, 3, p=1.0, q=1.5), 1e-6),
        (embed_phi(C5, 3, p=2.0, q=3.0), 1e-6),
        (embed_psi(K4, 4, p=1.0), 1e-9),
        (embed_psi(cycle_graph(4), 4, p=2.0), 1e-2),
        (embed_xi(C5, 3, p=1.0), 1e-6),
        (embed_xi(K4, 3, p=2.0), 1e-5),
    ]
    for cfg, tol in cases:
        fast = solve_chub(cfg, tol=tol)
        slow = solve_chub(dataclasses.replace(cfg, source={}), tol=tol)
        assert abs(fast.value - slow.value) <= 2 * tol + 1e-9, (cfg.regime, fast.value, slow.value)


def test_partition_independence(monkeypatch):
    def solve_in_chunks(cfg, chunk):
        monkeypatch.setattr(barygap.chub, "CHUNK", chunk)
        return solve_chub(cfg)

    cfg = embed_psi(K4, 4, p=1.0)
    a = solve_in_chunks(cfg, 7)
    b = solve_in_chunks(cfg, 100000)
    assert a.value == b.value and a.argmin == b.argmin
    cfgq = embed_phi(K4, 3)
    a = solve_in_chunks(cfgq, 13)
    b = solve_in_chunks(cfgq, 4096)
    assert a.value_exact == b.value_exact and a.argmin == b.argmin


def test_group_permutation_invariance():
    # shuffling the points within each group permutes the argmin and
    # preserves the value
    cfg = embed_phi(C5, 3)
    rng = np.random.default_rng(0)
    perms = [rng.permutation(5) for _ in range(3)]
    points = np.stack([cfg.points[i, perms[i]] for i in range(3)])
    shuffled = PointConfig(points, p=2.0, q=2.0)
    base = solve_chub(cfg)
    moved = solve_chub(shuffled)
    assert moved.value_exact == base.value_exact
    recovered = tuple(int(np.nonzero(perms[i] == base.argmin[i])[0][0]) for i in range(3))
    assert moved.per_tuple is None
    full = solve_chub(shuffled, keep_per_tuple=True)
    assert full.per_tuple[np.ravel_multi_index(recovered, (5, 5, 5))] == base.value_exact


def test_signature_cache_without_source_metadata():
    cfg = embed_phi(C4, 3, p=1.0, q=1.5)
    stripped = PointConfig(cfg.points, cfg.p, cfg.q)
    a = solve_chub(cfg, tol=1e-6)
    b = solve_chub(stripped, tol=1e-6)
    assert b.method.startswith("per-tuple")
    assert abs(a.value - b.value) < 1e-6


def test_max_multiset_consistency():
    # F* recovers max_multiset_edges through the closed form
    for g, k in [(C5, 3), (C4, 3), (K4, 4)]:
        val = solve_chub(embed_phi(g, k)).value_exact
        m = Fraction(g.regular_degree() * (k - 1) ** 2)
        best = Fraction(k * (m - val), 2)
        assert best == max_multiset_edges(g, k)


def test_reported_tolerance_covers_inner_solves(monkeypatch):
    # K5, k=4, (p,q)=(2,1): every inner Frank-Wolfe solve meets the tol/2 it
    # is asked for, and an inner tolerance inflated past tol must still show
    # in the reported tolerance
    inner, reported = [], []

    def recording(probs, tol):
        values, lower = solve_fpq_values(probs, tol=tol)
        inner.extend((values - lower).tolist())
        lower = lower - 1e-2
        reported.extend((values - lower).tolist())
        return values, lower

    monkeypatch.setattr(barygap.chub, "solve_fpq_values", recording)
    res = solve_chub(embed_psi(complete_graph(5), 4, p=2.0), tol=1e-3)
    assert max(inner) <= 1e-3 / 2
    assert res.tolerance >= max(reported) > 1e-3


@st.composite
def _gram_case(draw):
    k = draw(st.integers(1, 4))
    d = draw(st.integers(1, 3))
    sizes = [draw(st.integers(1, 4)) for _ in range(k)]
    coord = st.integers(-5, 5)
    groups = [
        [[draw(coord) for _ in range(d)] for _ in range(size)] for size in sizes
    ]
    weights = [Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) for _ in range(k)]
    return groups, weights, draw(st.integers(1, 7))


def _loop_gram_costs(groups, a):
    # the kernel's terms, added tuple by tuple in the same order
    k = len(groups)
    total_a = sum(a)
    norms = [a[i] * (total_a - a[i]) * (g * g).sum(axis=1) for i, g in enumerate(groups)]
    out = []
    for t in itertools.product(*(range(len(g)) for g in groups)):
        part = 0
        for i in range(k):
            part = part + norms[i][t[i]]
        for i in range(k):
            for j in range(i + 1, k):
                part = part - 2 * a[i] * a[j] * (groups[i] @ groups[j].T)[t[i], t[j]]
        out.append(part)
    return out


@settings(max_examples=60, deadline=None)
@given(_gram_case())
def test_gram_costs_match_per_tuple_values(case):
    groups, lam, chunk = case
    k = len(groups)
    shape = tuple(len(g) for g in groups)
    scale = math.lcm(*(l.denominator for l in lam))
    a = [int(l * scale) for l in lam]
    exact_groups = [np.array(g, dtype=object) for g in groups]
    float_groups = [np.array(g, dtype=float) for g in groups]
    noisy = [g + np.random.default_rng(k).normal(size=g.shape) for g in float_groups]
    with mock.patch.object(barygap.chub, "CHUNK", chunk):
        num = _gram_costs(exact_groups, a)
        flo = _gram_costs(float_groups, np.array([float(l) for l in lam]))
        # bit for bit what a tuple loop adding the same terms in order gives
        for arrays, w in ((exact_groups, a), ([g.astype(np.int64) for g in exact_groups], a),
                          (noisy, np.array([float(l) for l in lam]))):
            got = _gram_costs(arrays, w)
            want = np.array(_loop_gram_costs(arrays, w), dtype=got.dtype)
            if got.dtype == object:
                assert got.tolist() == want.tolist()
            else:
                assert got.tobytes() == want.tobytes()
    assert num.shape == flo.shape == (math.prod(shape),)
    assert list(_gram_costs(exact_groups, a)) == list(num)
    for flat, t in enumerate(np.ndindex(*shape)):
        pts = [groups[i][t[i]] for i in range(k)]
        mean = [sum(l * x[c] for l, x in zip(lam, pts)) / sum(lam) for c in range(len(pts[0]))]
        value = sum(l * sum((x[c] - mean[c]) ** 2 for c in range(len(mean))) for l, x in zip(lam, pts))
        assert Fraction(num[flat], scale * sum(a)) == value
        ref = solve_fpq(FpqProblem(np.array(pts, dtype=float), 2, 2, [float(l) for l in lam])).value
        got = flo[flat] / float(sum(lam))
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


@st.composite
def _graph_case(draw):
    n = draw(st.integers(3, 5))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    g = Graph.from_edges(n, [(u, v) for u, v in edges if u != v])
    return g, draw(st.integers(1, 4)), draw(st.integers(1, 9))


def _class_code(g, t):
    # edge-pattern bits times b^k plus the positions' degree-rank digits,
    # b the number of distinct degrees
    k = len(t)
    levels = sorted(set(g.degrees))
    bits = sum(int(g.has_edge(t[i], t[j])) << idx for idx, (i, j) in enumerate(_pair_list(k)))
    digits = sum(levels.index(g.degrees[v]) * len(levels) ** (k - 1 - i) for i, v in enumerate(t))
    return bits * len(levels) ** k + digits


@settings(max_examples=60, deadline=None)
@given(_graph_case())
def test_class_keys_and_groups_match_a_tuple_loop(case):
    # one code per tuple, with degree digits on every graph, grouped by the
    # first flat position of each code across blocks
    g, k, chunk = case
    cfg = PointConfig(np.zeros((k, g.n, 1), dtype=np.int8), 1.0, math.inf)
    want = [_class_code(g, t) for t in itertools.product(range(g.n), repeat=k)]
    unary, pairs, base = _key_tables(cfg, g)
    assert base == len(set(g.degrees))
    with mock.patch.object(barygap.chub, "CHUNK", chunk):
        blocks = list(_grid_blocks((g.n,) * k, unary, pairs))
        codes, reps, ids = _classes(iter(blocks), keep=True)
        _, bare, none = _classes(_grid_blocks((g.n,) * k, unary, pairs), keep=False)
    assert np.array_equal(reps, bare) and none is None
    assert [start for start, _ in blocks] == list(range(0, g.n**k, chunk))
    assert np.concatenate([block for _, block in blocks]).tolist() == want
    order = sorted(set(want))
    assert codes.tolist() == order
    assert reps.tolist() == [want.index(key) for key in order]
    assert [order[c] for c in ids] == want


@st.composite
def _permutation_case(draw):
    if draw(st.booleans()):
        g, _, _ = draw(_graph_case())
    else:
        n = draw(st.sampled_from([4, 6]))
        g = random_regular_graph(n, draw(st.integers(1, n - 1)), seed=draw(st.integers(0, 9)))
    k = draw(st.integers(2, 5))
    return g, k, draw(st.integers(0, g.n**k - 1))


@settings(max_examples=60, deadline=None)
@given(_permutation_case())
def test_permuted_codes_are_the_codes_of_permuted_tuples(case):
    # on regular and irregular graphs and for every permutation of the
    # positions, not only the generators: moving position i to perm[i]
    # moves the code as _permute_codes says
    g, k, flat = case
    t = tuple(int(v) for v in np.unravel_index(flat, (g.n,) * k))
    base = len(set(g.degrees))
    code = np.array([_class_code(g, t)])
    for perm in itertools.permutations(range(k)):
        moved = [0] * k
        for i, v in enumerate(t):
            moved[perm[i]] = v
        assert _permute_codes(code, perm, base).tolist() == [_class_code(g, moved)]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda size: st.lists(st.permutations(range(size)), max_size=3).map(lambda maps: (size, maps))
))
def test_orbit_roots_are_the_least_member_of_each_closure(case):
    # an orbit is the closure under every map and its inverse
    size, maps = case
    want = []
    for a in range(size):
        orbit, todo = {a}, [a]
        while todo:
            b = todo.pop()
            for image in maps:
                for c in (image[b], image.index(b)):
                    if c not in orbit:
                        orbit.add(c)
                        todo.append(c)
        want.append(min(orbit))
    assert _orbit_roots(size, maps).tolist() == want


@pytest.mark.parametrize("cfg", [
    embed_phi(complete_graph(3), 7, p=1.0, q=1.5),
    embed_xi(Graph.from_edges(3, [(0, 1), (1, 2)]), 7, p=1.0),
])
def test_class_sweep_over_a_wide_key_space_matches_per_tuple_solves(cfg):
    # k=7 has 21 position pairs, so 2^21 edge-pattern codes, and xi on the
    # irregular path multiplies that by 2^7 with degree digits; each of the
    # 3^7 tuples must get its own solve's value up to the two reported
    # tolerances
    tol = 1e-6
    full = solve_chub(cfg, tol=tol, keep_per_tuple=True)
    assert full.method.startswith("class-cache[") and len(full.per_tuple) == 3**7
    assert full.value == full.per_tuple.min()
    barygap.fpq._MEMO.clear()
    for flat, t in enumerate(np.ndindex(*(cfg.n,) * cfg.k)):
        sol = solve_fpq(FpqProblem(cfg.dense_tuple(t).astype(float), cfg.p, cfg.q), tol=tol / 2)
        assert abs(full.per_tuple[flat] - sol.value) <= full.tolerance + sol.tolerance


@pytest.mark.parametrize("cfg, dtype", [
    (embed_phi(complete_graph(3), 8, p=1.0, q=1.5), np.int64),
    (embed_phi(complete_graph(3), 11, p=1.0, q=1.5), np.int64),
    (embed_xi(Graph.from_edges(3, [(0, 1), (1, 2)]), 11, p=1.0), object),
], ids=["phi-k8", "phi-k11", "xi-irregular-k11"])
def test_wide_sweeps_code_and_permute_every_sampled_tuple(cfg, dtype):
    # a code has C(k,2) pattern bits and k degree digits: 36 at k=8 and 66
    # at k=11, past the 32 or 64 axes of numpy's ravel_multi_index; on the
    # irregular path 2^55 * 2^11 codes overflow int64, so the codes are
    # Python ints.  Sampled tuples must have their
    # own codes, moved by every generator and a random permutation as their
    # positions are, and their own solve's value up to the two tolerances
    tol = 1e-6
    g = barygap.chub._source_graph(cfg)
    shape = (cfg.n,) * cfg.k
    unary, pairs, base = _key_tables(cfg, g)
    codes, _, ids = _classes(_grid_blocks(shape, unary, pairs), keep=True)
    assert codes.dtype == dtype
    full = solve_chub(cfg, tol=tol, keep_per_tuple=True)
    assert full.method == f"class-cache[{len(codes)}]" and full.value == full.per_tuple.min()
    rng = np.random.default_rng(0)
    flats = rng.integers(0, cfg.n**cfg.k, 20)
    perms = _position_generators(cfg.k) + [rng.permutation(cfg.k).tolist()]
    barygap.fpq._MEMO.clear()
    for flat in flats.tolist():
        t = [int(v) for v in np.unravel_index(flat, shape)]
        assert codes[ids[flat]] == _class_code(g, t)
        for perm in perms:
            moved = [0] * cfg.k
            for i, v in enumerate(t):
                moved[perm[i]] = v
            assert _permute_codes(codes[ids[[flat]]], perm, base).tolist() == [_class_code(g, moved)]
        sol = solve_fpq(FpqProblem(cfg.dense_tuple(t).astype(float), cfg.p, cfg.q), tol=tol / 2)
        assert abs(full.per_tuple[flat] - sol.value) <= full.tolerance + sol.tolerance


@settings(max_examples=40, deadline=None)
@given(_graph_case())
def test_max_multiset_edges_matches_a_tuple_loop(case):
    g, k, chunk = case
    with mock.patch.object(barygap.chub, "CHUNK", chunk):
        got = max_multiset_edges(g, k)
    assert got == max(induced_edge_count(g, t) for t in itertools.product(range(g.n), repeat=k))


@pytest.mark.parametrize("cfg, tol", [
    (embed_phi(K4, 3, p=1.0, q=1.5), 1e-6),
    (embed_phi(C5, 3), 1e-6),
    (embed_psi(C4, 4, p=2.0), 1e-3),
    (embed_xi(C5, 3, p=1.0), 1e-6),
    (embed_xi(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]), 3, p=2.0), 1e-6),
    (PointConfig(embed_phi(C4, 3, p=1.0, q=1.5).points, 1.0, 1.5), 1e-6),
])
def test_keeping_per_tuple_values_changes_nothing_else(cfg, tol):
    # the sweep without per-tuple values keeps only classes; its value,
    # argmin, tolerance and method are those of the full sweep, and the
    # argmin is the first tuple within tol of the value
    results = []
    for keep in (False, True):
        barygap.fpq._MEMO.clear()
        results.append(solve_chub(cfg, tol=tol, keep_per_tuple=keep))
    bare, full = results
    assert bare.per_tuple is None
    assert (bare.value, bare.argmin, bare.tolerance, bare.method, bare.value_exact) == \
        (full.value, full.argmin, full.tolerance, full.method, full.value_exact)
    per = full.per_tuple.astype(float)
    assert per.min() == full.value
    first = int(np.nonzero(per <= full.value + (0 if full.value_exact is not None else tol))[0][0])
    assert full.argmin == tuple(int(v) for v in np.unravel_index(first, (cfg.n,) * cfg.k))


def _doubled_c4_psi(p):
    g, k = even_k_doubling(C4, 3)
    return embed_psi(g, k, p=p)


@pytest.mark.parametrize("cfg, tol, sample", [
    (embed_phi(K4, 3, p=1.0, q=1.5), 1e-6, None),
    (embed_psi(K4, 2, p=2.0), 1e-3, None),
    (embed_psi(C4, 4, p=2.0), 1e-3, None),
    (_doubled_c4_psi(1.0), 1e-6, 200),
    (embed_xi(C5, 3, p=1.0), 1e-6, None),
    (embed_xi(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]), 3, p=2.0), 1e-6, None),
], ids=["phi", "psi-k2", "psi-k4", "psi-doubled-k6", "xi", "xi-irregular"])
def test_orbit_sweep_values_match_each_tuples_own_solve(cfg, tol, sample):
    # a tuple takes its class orbit's value; that must agree with the tuple's
    # own solve up to the two reported tolerances.  The doubled gadget has
    # 8^6 tuples: its class representatives and a random sample are checked
    full = solve_chub(cfg, tol=tol, keep_per_tuple=True)
    shape = (cfg.n,) * cfg.k
    flats = range(cfg.n**cfg.k)
    if sample is not None:
        unary, pairs, _ = _key_tables(cfg, barygap.chub._source_graph(cfg))
        _, reps, _ = _classes(_grid_blocks(shape, unary, pairs), keep=False)
        rng = np.random.default_rng(0)
        flats = sorted(set(reps.tolist()) | set(rng.integers(0, cfg.n**cfg.k, sample).tolist()))
    barygap.fpq._MEMO.clear()
    for flat in flats:
        t = np.unravel_index(flat, shape)
        sol = solve_fpq(FpqProblem(cfg.dense_tuple(t).astype(float), cfg.p, cfg.q), tol=tol / 2)
        assert abs(full.per_tuple[flat] - sol.value) <= full.tolerance + sol.tolerance


def test_a_flipped_point_entry_merges_no_classes(monkeypatch):
    # the symmetry is proven on the points, not read from the source: one
    # entry flipped, with the source graph kept, leaves every class its own
    cfg = embed_psi(K4, 4, p=2.0)
    points = cfg.points.copy()
    points[0, 0, 0] = -points[0, 0, 0]
    flipped = dataclasses.replace(cfg, points=points)
    assert flipped.source == cfg.source
    calls = []  # one entry per hub problem asked for
    orig = barygap.chub.solve_fpq_values

    def counting(probs, **kw):
        probs = list(probs)
        calls.extend(probs)
        return orig(probs, **kw)

    monkeypatch.setattr(barygap.chub, "solve_fpq_values", counting)
    res = solve_chub(cfg, tol=1e-3)
    assert res.method == "class-cache[15]" and len(calls) == 5
    del calls[:]
    unary, pairs, base = _key_tables(flipped, barygap.chub._source_graph(flipped))
    codes, _, _ = _classes(_grid_blocks((4,) * 4, unary, pairs), keep=False)
    assert _class_orbits(flipped, codes, base).tolist() == list(range(15))
    res = solve_chub(flipped, tol=1e-3)
    assert res.method == "class-cache[15]" and len(calls) == 15


@pytest.mark.parametrize("cfg, group", [
    (embed_phi(K4, 3, p=2.0, q=1.5), "all"),
    (embed_phi(complete_graph(5), 4, p=2.0, q=3.0), "all"),
    (embed_xi(C5, 3, p=1.0), "all"),
    (embed_xi(K4, 4, p=2.0), "all"),
    (embed_psi(C4, 2, p=1.0), "all"),
    (embed_psi(K4, 4, p=2.0), "all"),
    (_doubled_c4_psi(1.0), "dihedral"),
], ids=["phi-k3", "phi-k4", "xi-k3", "xi-k4", "psi-k2", "psi-k4", "psi-doubled-k6"])
def test_proven_position_symmetries(cfg, group):
    # every position permutation passes on the small gadgets; on the doubled
    # psi gadget exactly the 12 rotations and reflections of the k-cycle do
    k = cfg.k
    passed = {perm for perm in itertools.permutations(range(k)) if _is_symmetry(cfg.points, perm)}
    if group == "all":
        assert len(passed) == math.factorial(k)
    else:
        cycle = {tuple((i + j) % k for i in range(k)) for j in range(k)}
        assert passed == cycle | {tuple((j - i) % k for i in range(k)) for j in range(k)}
        assert len(passed) == 2 * k
        assert _position_generators(k)[0] not in [list(perm) for perm in passed]


def test_proofs_are_made_once_per_point_array(monkeypatch):
    # a verdict is proven once per point array and permutation: a copy of
    # the array is served from the cache, a changed entry is proven again
    cfg = embed_psi(K4, 4, p=2.0)
    perms = _position_generators(4)
    multisets = []
    orig = barygap.chub._column_multiset
    monkeypatch.setattr(barygap.chub, "_column_multiset", lambda m: multisets.append(1) or orig(m))
    first = _proven(cfg.points, perms)
    assert first == [_is_symmetry(cfg.points, perm) for perm in perms] == [True] * len(perms)
    del multisets[:]
    assert _proven(cfg.points.copy(), perms) == first and not multisets
    flipped = cfg.points.copy()
    flipped[0, 0, 0] = -flipped[0, 0, 0]
    verdicts = _proven(flipped, perms)
    assert len(multisets) == 1 + len(perms)  # the unpermuted matrix once, then one a perm
    assert verdicts == [_is_symmetry(flipped, perm) for perm in perms]


def test_tuple_cost_memory_does_not_grow_with_dimension():
    # a batch keeps no minimizer and no copy of a tuple's points: with every
    # column repeated 20 times more, a per-tuple sweep's peak allocation grows
    # far less than one d-vector per tuple would
    rng = np.random.default_rng(0)
    base = [rng.integers(-2, 3, (8, 3)).astype(float) for _ in range(3)]
    peaks = []
    for reps in (10, 200):
        groups = [np.tile(g, reps) for g in base]
        barygap.fpq._MEMO.clear()
        tracemalloc.start()
        values, _ = tuple_costs(groups, 2, 1.5, None, 1e-6)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(values) == 8**3
    assert peaks[1] - peaks[0] < 8**3 * (3 * 200) * 8 / 4
