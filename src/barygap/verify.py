"""Property-suite harness behind ``barygap verify``.

Each suite re-derives one structural fact about the embeddings, the hub
objective, or the pipeline on seeded random inputs, and reports per-check
pass/fail with serialized counterexamples on failure.  Behavior-named ids
are primary; a few legacy aliases are accepted.
"""

from __future__ import annotations

import math

import numpy as np

from .bary import BaryInstance, DiscreteMeasure, bary_value_mot, uniformize
from .chub import solve_chub
from .embed import (
    Collection,
    _overlap_vectors,
    add_edge_move,
    canonical_clique_collection,
    embed_phi,
    embed_psi,
    embed_xi,
    q1_clique_witness,
    q1_value_formula,
    qinf_clique_witness,
    verify_collection,
)
from .errors import InputError
from .fpq import FpqProblem, solve_fpq
from .graph import (
    complete_graph,
    cycle_graph,
    induced_edge_count,
    random_regular_graph,
)

ALIASES = {
    "3.2": "phi-gram",
    "4.4-lb": "coordinate-lb",
    "4.5": "kst-from-phi",
    "helper": "power-gap",
}

_REGULAR_POOL = [
    (4, 2), (4, 3), (5, 2), (5, 4), (6, 2), (6, 3), (6, 4), (6, 5),
    (7, 2), (7, 4), (8, 3), (8, 4), (8, 5), (8, 7), (7, 6), (5, 2),
    (6, 3), (8, 2), (7, 4), (6, 4),
]


def _pool_graphs(count, seed):
    out = []
    for idx in range(count):
        n, deg = _REGULAR_POOL[idx % len(_REGULAR_POOL)]
        out.append(random_regular_graph(n, deg, seed=seed + idx))
    return out


def random_collection(k, s, t, rng) -> Collection:
    """Random overlap collection: random t-edge pattern, private padding,
    then a column shuffle."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    if t > len(pairs):
        raise InputError(f"t={t} exceeds C({k},2)")
    chosen = rng.choice(len(pairs), size=t, replace=False)
    x = _overlap_vectors(k, s, [pairs[int(c)] for c in chosen])
    return Collection(vectors=x[:, rng.permutation(x.shape[1])], s=s, t=t)


def _check(name, passed, detail=None):
    out = {"name": name, "passed": bool(passed)}
    if detail is not None:
        out["detail"] = detail
    return out


def _suite_phi_gram(seed, budget):
    checks = []
    ks = [2, 3, 4]
    for gi, g in enumerate(_pool_graphs(max(4, int(20 * budget)), seed)):
        k = ks[gi % len(ks)]
        cfg = embed_phi(g, k)
        d_deg = g.regular_degree()
        pts = cfg.points.astype(np.int64)
        ok_norm = all(
            int(pts[i][v] @ pts[i][v]) == d_deg * (k - 1)
            for i in range(k)
            for v in range(g.n)
        )
        ok_ip = all(
            int(pts[i][v] @ pts[j][w]) == (1 if g.has_edge(v, w) else 0)
            for i in range(k)
            for j in range(i + 1, k)
            for v in range(g.n)
            for w in range(g.n)
        )
        detail = None if ok_norm and ok_ip else {"graph": g.to_json(), "k": k}
        checks.append(_check(f"graph{gi}-n{g.n}-D{d_deg}-k{k}", ok_norm and ok_ip, detail))
    return checks


def _suite_kst_from_phi(seed, budget):
    rng = np.random.default_rng(seed)
    checks = []
    for gi, g in enumerate(_pool_graphs(max(4, int(12 * budget)), seed)):
        k = int(rng.integers(2, 5))
        cfg = embed_phi(g, k)
        for _ in range(max(2, int(5 * budget))):
            vt = tuple(int(v) for v in rng.integers(0, g.n, size=k))
            res = verify_collection(cfg.dense_tuple(vt))
            want_t = induced_edge_count(g, vt)
            good = (
                res["ok"]
                and res["s"] == g.regular_degree() * (k - 1)
                and res["t"] == want_t
            )
            checks.append(
                _check(
                    f"graph{gi}-tuple{vt}",
                    good,
                    None if good else {"result": res, "expected_t": want_t},
                )
            )
    return checks


def _suite_coordinate_lb(seed, budget, tol=1e-8):
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(max(3, int(10 * budget))):
        k = int(rng.integers(2, 5))
        t_overlap = int(rng.integers(0, k * (k - 1) // 2 + 1))
        s = int(rng.integers(max(2, k - 1), 3 * k))
        try:
            coll = random_collection(k, s, t_overlap, rng)
        except InputError:
            continue
        q = float(rng.choice([1.5, 2.0, 3.0]))
        p = float(rng.choice([1.0, 2.0]))
        sol = solve_fpq(FpqProblem(coll.vectors.astype(float), p, q), tol=tol)
        support = coll.vectors.max(axis=0) > 0
        min_coord = float(sol.minimizer[support].min()) if support.any() else 1.0
        good = min_coord > 10 * tol
        checks.append(
            _check(
                f"trial{trial}-k{k}-s{s}-t{t_overlap}-p{p}-q{q}",
                good,
                None if good else {"min_support_coord": min_coord},
            )
        )
    return checks


def _suite_power_gap(seed, budget):
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(max(20, int(200 * budget))):
        T = 1.0 + 99 * rng.random()
        t = T * rng.random()
        tp = t * rng.random()
        gamma = 0.05 + 3 * rng.random()
        lhs = t**gamma - tp**gamma
        rhs = (t - tp) ** gamma if gamma >= 1 else gamma / T * (t - tp)
        good = lhs >= rhs - 1e-12
        checks.append(_check(f"trial{trial}", good, None if good else {"t": t, "t'": tp, "gamma": gamma, "T": T}))
    return checks


def _suite_mono(seed, budget, tol=1e-7):
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(max(4, int(15 * budget))):
        k = int(rng.integers(3, 5))
        pairs = k * (k - 1) // 2
        t0 = int(rng.integers(0, pairs))
        s = int(rng.integers(k - 1, 2 * k + 2))
        coll = random_collection(k, s, t0, rng)
        q = float(rng.choice([1.5, 2.0, 3.0]))
        p = float(rng.choice([1.0, 2.0]))
        prev = solve_fpq(FpqProblem(coll.vectors.astype(float), p, q), tol=tol).value
        ok = True
        trail = [prev]
        while coll.t < pairs:
            coll = add_edge_move(coll)
            cur = solve_fpq(FpqProblem(coll.vectors.astype(float), p, q), tol=tol).value
            trail.append(cur)
            if not cur < prev - 10 * tol:
                ok = False
                break
            prev = cur
        checks.append(
            _check(
                f"trial{trial}-k{k}-s{s}-p{p}-q{q}",
                ok,
                None if ok else {"values": trail},
            )
        )
    return checks


def _suite_cliques_equal(seed, budget, tol=1e-8):
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(max(3, int(10 * budget))):
        k = int(rng.integers(2, 5))
        D = int(rng.integers(1, 4))
        pairs = k * (k - 1) // 2
        base = canonical_clique_collection(k, D)
        other = random_collection(k, D * (k - 1), pairs, rng)
        q = float(rng.choice([1.5, 2.0, 3.0]))
        p = float(rng.choice([1.0, 2.0]))
        va = solve_fpq(FpqProblem(base.vectors.astype(float), p, q), tol=tol).value
        vb = solve_fpq(FpqProblem(other.vectors.astype(float), p, q), tol=tol).value
        good = abs(va - vb) <= 2e-6 * max(1.0, abs(va))
        checks.append(
            _check(
                f"trial{trial}-k{k}-D{D}-p{p}-q{q}",
                good,
                None if good else {"canonical": va, "other": vb},
            )
        )
    return checks


def _suite_q1_value(seed, budget):
    g = complete_graph(4)
    cfg = embed_psi(g, 4)
    pts = cfg.dense_tuple((0, 1, 2, 3)).astype(float)
    checks = []
    for p in (1.0, 2.0):
        want = float(q1_value_formula(4, 4, 6, p))
        sol = solve_fpq(FpqProblem(pts, p, 1.0), tol=1e-4 * want)
        good = abs(sol.value - want) <= 1e-4 * want
        checks.append(
            _check(f"K4-k4-p{p}", good, {"solver": sol.value, "formula": want})
        )
    return checks


def _suite_q1_witness(seed, budget):
    g = complete_graph(4)
    cfg = embed_psi(g, 4)
    y = q1_clique_witness(cfg, (0, 1, 2, 3))
    checks = []
    expected = 4 * 3 * (16 - 8 + 2) - 2 * 3  # n(k-1)(nk-2n+2) - 2(k-1)
    dists = np.abs(cfg.dense_tuple((0, 1, 2, 3)).astype(np.int64) - y).sum(axis=1).tolist()
    for i, dist in enumerate(dists):
        checks.append(_check(f"vector{i}", dist == expected, {"l1": dist, "expected": expected}))
    checks.append(_check("total-p1", sum(dists) == int(q1_value_formula(4, 4, 6, 1))))
    return checks


def _suite_qinf_clique(seed, budget):
    checks = []
    for k in (3, 4):
        g = complete_graph(max(4, k))
        cfg = embed_xi(g, k)
        vt = tuple(range(k))
        y = qinf_clique_witness(cfg, vt)
        pts = cfg.dense_tuple(vt).astype(float)
        for p in (1.0, 2.0):
            obj = float((np.abs(pts - y).max(axis=1) ** p).sum())
            good = obj <= k / 2.0**p + 1e-12
            checks.append(_check(f"k{k}-p{p}", good, {"witness_obj": obj, "bound": k / 2.0**p}))
    return checks


def _suite_qinf_nonclique(seed, budget):
    checks = []
    g = cycle_graph(5)
    for k, floor_fn in ((3, lambda p: 2.0), (4, lambda p: 2.0 + (k - 2) / 2.0**p)):
        for p in (1.0, 2.0):
            cfg_p = embed_xi(g, k, p=p)
            res = solve_chub(cfg_p, tol=1e-6)
            floor = floor_fn(p)
            good = res.value >= floor - 1e-4
            note = "k=3 uses the corrected floor 2 (source bound fails there)" if k == 3 else None
            checks.append(
                _check(
                    f"C5-k{k}-p{p}",
                    good,
                    {"value": res.value, "floor": floor, **({"note": note} if note else {})},
                )
            )
    return checks


def _suite_q1_failure(seed, budget):
    g = complete_graph(4)
    cfg = embed_phi(g, 6)
    pts = cfg.dense_tuple((0, 1, 2, 3, 0, 1)).astype(float)
    checks = []
    for p in (1.0, 2.0):
        want = 6 * (3 * 5) ** p
        sol = solve_fpq(FpqProblem(pts, p, 1.0), tol=1e-4 * want)
        good = abs(sol.value - want) <= 1e-4 * want
        checks.append(_check(f"k6-p{p}", good, {"solver": sol.value, "expected": want}))
    return checks


def _suite_qinf_failure(seed, budget):
    checks = []
    for k in (3, 4):
        g = complete_graph(4)
        cfg = embed_phi(g, k)
        vt = tuple(v % 4 for v in range(k))
        pts = cfg.dense_tuple(vt).astype(float)
        for p in (1.0, 2.0):
            want = k / 2.0**p
            sol = solve_fpq(FpqProblem(pts, p, math.inf), tol=1e-6)
            good = abs(sol.value - want) <= 1e-4 * max(1.0, want)
            checks.append(_check(f"k{k}-p{p}", good, {"solver": sol.value, "expected": want}))
    return checks


def _suite_unif(seed, budget):
    rng = np.random.default_rng(seed)
    checks = []
    for trial in range(max(1, int(2 * budget))):
        atoms = rng.uniform(-0.5, 0.5, size=(2, 2, 2))
        masses = rng.dirichlet(np.ones(2), size=2)
        inst = BaryInstance(
            [DiscreteMeasure(atoms[i], masses[i]) for i in range(2)], 2, 2
        )
        ui = uniformize(inst, 0.1)
        v0 = bary_value_mot(inst).value
        v1 = bary_value_mot(ui, cap=2 * 10**6).value
        uniform_ok = all(m.is_uniform() for m in ui.measures)
        ball_ok = all(
            bool((np.linalg.norm(m.atoms, axis=1) <= 1 + 1e-9).all())
            for m in ui.measures
        )
        good = abs(v0 - v1) <= 0.1 and uniform_ok and ball_ok
        checks.append(
            _check(
                f"trial{trial}",
                good,
                {"before": v0, "after": v1, "N": ui.measures[0].size},
            )
        )
    return checks


SUITES = {
    "phi-gram": _suite_phi_gram,
    "kst-from-phi": _suite_kst_from_phi,
    "coordinate-lb": _suite_coordinate_lb,
    "power-gap": _suite_power_gap,
    "mono": _suite_mono,
    "cliques-equal": _suite_cliques_equal,
    "q1-value": _suite_q1_value,
    "q1-witness": _suite_q1_witness,
    "qinf-clique": _suite_qinf_clique,
    "qinf-nonclique": _suite_qinf_nonclique,
    "q1-failure": _suite_q1_failure,
    "qinf-failure": _suite_qinf_failure,
    "unif": _suite_unif,
}


def verify_lemma(lemma_id, seed=0, budget=1.0):
    """Run one property suite; returns {id, passed, checks}."""
    key = ALIASES.get(lemma_id, lemma_id)
    if key not in SUITES:
        raise InputError(
            f"unknown verification id {lemma_id!r}; known: {sorted(SUITES)} "
            f"(aliases: {sorted(ALIASES)})"
        )
    checks = SUITES[key](seed, budget)
    return {
        "id": key,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }
