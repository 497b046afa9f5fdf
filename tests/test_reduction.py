import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import barygap.reduction
from barygap.bary import DEFAULT_LP_CAP, BaryInstance, DiscreteMeasure, _transport_lp, bary_value_mot
from barygap.chub import ChubResult, chub_closed_form_22, solve_chub
from barygap.embed import embed_phi
from barygap.errors import InputError, ResourceCapError
from barygap.fpq import FpqProblem, solve_fpq, solve_fpq_values
from barygap.graph import Graph, complete_graph, cycle_graph, has_k_clique, random_regular_graph
from barygap.reduction import (
    build_instance,
    decide_clique,
    gap_certificate,
    oracle_decision,
    unique_triangle_graph,
)

K4 = complete_graph(4)
C5 = cycle_graph(5)


def test_certificate_q22():
    c = gap_certificate(4, 3, 3, 2, 2)
    assert c.gamma_exact == Fraction(10)
    assert c.delta_exact == Fraction(2, 3)
    assert c.provenance == "closed-form"


def test_certificate_q1():
    c = gap_certificate(4, 4, 3, 1, 1)
    assert c.gamma == 456 and c.delta == 4
    assert c.delta >= 1 / 4**1  # stated lower bound 1/k^p
    c2 = gap_certificate(4, 4, 3, 2, 1)
    assert c2.gamma == 51984
    assert c2.delta >= 1 / 4**2
    with pytest.raises(InputError):
        gap_certificate(4, 3, 3, 1, 1)  # odd k


def test_certificate_qinf():
    c = gap_certificate(4, 3, 3, 1, math.inf)
    assert c.gamma == 1.5
    # corrected k=3 floor: non-clique tuples reach exactly 2
    assert abs(c.delta - 0.5) < 1e-12
    c = gap_certificate(5, 4, 2, 1, math.inf)
    assert c.gamma == 2.0 and abs(c.delta - 1.0) < 1e-12
    c = gap_certificate(5, 4, 2, 2, math.inf)
    assert abs(c.delta - (2 - 2 / 4)) < 1e-12
    with pytest.raises(InputError):
        gap_certificate(2, 2, 1, 1, math.inf)  # n < 3


def test_certificate_qin_calibration():
    c = gap_certificate(4, 3, 3, 2, 1.5, tol=1e-7)
    assert c.provenance == "solver-certified"
    assert c.delta > 10 * c.tol
    assert c.separation is not None and c.separation > 0
    # gamma sits just above the canonical clique collection value
    from barygap.embed import canonical_clique_collection

    coll = canonical_clique_collection(3, 3)
    val = solve_fpq(FpqProblem(coll.vectors.astype(float), 2, 1.5), tol=1e-9).value
    assert val <= c.gamma <= val + 2 * c.tol + 1e-9


def test_qin_certificate_sweeps_once_per_key(monkeypatch):
    import barygap.reduction

    calls = []  # one entry per problem the sweep solves
    orig = barygap.reduction.solve_fpq_values

    def counted(probs, **kwargs):
        calls.extend(probs)
        return orig(probs, **kwargs)

    monkeypatch.setattr(barygap.reduction, "solve_fpq_values", counted)
    first = gap_certificate(4, 3, 3, 2, 1.5, tol=1e-7)
    assert len(calls) == 4  # one solve per orbit of the 2^3 overlap patterns
    # n is not part of the key: the patterns depend only on (k, D, p, q, tol)
    assert gap_certificate(5, 3, 3, 2, 1.5, tol=1e-7).to_json()["gamma"] == first.gamma
    assert len(calls) == 4
    gap_certificate(4, 3, 3, 2, 1.5, tol=1e-8)
    assert len(calls) == 2 * 4


@pytest.mark.parametrize("k, D, p, q, orbits", [
    (3, 3, 2, 1.5, 4), (4, 3, 2, 1.5, 11), (4, 2, 1, 3, 11), (2, 1, 2, 1.5, 2),
])
def test_qin_pattern_sweep_solves_one_pattern_per_orbit(monkeypatch, k, D, p, q, orbits):
    # one solve per isomorphism class of k-vertex patterns, with the value
    # and bound a solve of every pattern gives, bit for bit
    tol = 1e-7
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    complete, lower = None, math.inf
    for mask in range(2 ** len(pairs)):
        edges = [pairs[b] for b in range(len(pairs)) if mask >> b & 1]
        coll = barygap.reduction.collection_from_pattern(k, D, edges)
        sol = solve_fpq(FpqProblem(coll.vectors.astype(float), p, q), tol=tol)
        if len(edges) == len(pairs):
            complete = sol.value
        else:
            lower = min(lower, sol.lower_bound)
    calls = []  # one entry per problem the sweep solves
    orig = barygap.reduction.solve_fpq_values
    monkeypatch.setattr(
        barygap.reduction, "solve_fpq_values", lambda probs, **kw: calls.extend(probs) or orig(probs, **kw)
    )
    barygap.fpq._MEMO.clear()
    assert barygap.reduction._qin_pattern_sweep(k, D, p, q, tol) == (complete, lower)
    assert len(calls) == orbits


def test_bary_mot_route_takes_the_orbit_lp_on_the_k4_q1_gadget(monkeypatch):
    # the sweep gives one value per proven orbit of classes, so the K4, k=4,
    # (2, 1) cost tensor is exactly symmetric and its LP runs on orbits
    import barygap.bary

    shapes = []
    orig = barygap.bary.solve_lp
    monkeypatch.setattr(
        barygap.bary, "solve_lp", lambda A, *a, **kw: shapes.append(A.shape) or orig(A, *a, **kw)
    )
    inst = build_instance(K4, 4, 2, 1)
    r = decide_clique(inst, "bary-mot", tol=inst.certificate.delta / 20)
    # one LP, one column per multiset of k = 4 of the n = 4 vertices
    assert shapes == [(4, math.comb(4 + 4 - 1, 4))] == [(4, 35)]
    assert r["hasClique"] is True


def test_build_instance_shapes():
    inst = build_instance(K4, 3, 2, 2)
    assert inst.points.d == 48 and len(inst.bary.measures) == 3
    assert inst.bary.measures[0].size == 4
    inst = build_instance(C5, 4, 1, 1)
    assert inst.points.d == 2 * 6 * 25 == 300
    inst = build_instance(K4, 3, 1, math.inf)
    assert inst.points.d == 48 and inst.regime == "QINF"


def test_build_instance_doubles_for_odd_k_q1():
    inst = build_instance(C5, 3, 1, 1)
    assert inst.transform == {"doubled": True, "original_n": 5, "original_k": 3}
    assert inst.graph.n == 10 and inst.k == 6
    assert inst.points.regime == "Q1"


def test_decide_examples_q22():
    inst = build_instance(K4, 3, 2, 2)
    r = decide_clique(inst, "chub-bruteforce")
    assert r["hasClique"] and abs(r["value"] - 10) < 1e-9
    assert r["margin"] > 0
    inst = build_instance(C5, 3, 2, 2)
    r = decide_clique(inst, "chub-bruteforce")
    assert not r["hasClique"] and abs(r["value"] - 20 / 3) < 1e-9


def test_decide_qinf_nonclique():
    inst = build_instance(C5, 3, 1, math.inf)
    r = decide_clique(inst, "chub-bruteforce")
    assert not r["hasClique"]
    assert r["value"] >= 2.0 - 1e-6  # corrected floor is attained exactly
    assert r["value"] < 2.5  # the uncorrected floor overshoots reality


def test_decide_tol_precondition():
    inst = build_instance(K4, 3, 2, 2)
    with pytest.raises(InputError):
        decide_clique(inst, "chub-bruteforce", tol=1.0)


def test_decide_unknown_solver():
    inst = build_instance(K4, 3, 2, 2)
    with pytest.raises(InputError):
        decide_clique(inst, "sinkhorn")


def test_scale_consistency_on_gadgets():
    for g in (K4, C5):
        inst = build_instance(g, 3, 2, 2)
        chub = decide_clique(inst, "chub-bruteforce")
        mot = decide_clique(inst, "bary-mot")
        assert mot["hasClique"] == chub["hasClique"] == has_k_clique(g, 3)
        if g is K4:
            assert abs(mot["value"] - chub["value"] / 3) < 1e-8
        else:
            # the sweep proves "no", so the route solves no LP; the LP
            # identity is checked on the gadget's measures instead
            assert mot["hasClique"] is False and mot["value"] is None
            assert abs(bary_value_mot(inst.bary).value - chub["value"] / 3) < 1e-8


@pytest.mark.parametrize("p, q", [(2, 2), (1, 2), (1, math.inf)])
@pytest.mark.parametrize("g", [K4, C5], ids=["K4", "C5"])
def test_bary_mot_route_matches_bary_value_mot(g, p, q):
    inst = build_instance(g, 3, p, q)
    tol = inst.certificate.delta / 20
    r = decide_clique(inst, "bary-mot", tol=tol)
    mot = bary_value_mot(inst.bary, tol=tol / 3)
    if g is K4:
        assert abs(r["value"] - mot.value) <= r["tolerance"]
    else:
        # no LP on a proven "no": the LP value is F*/3 on the vertex-transitive C5
        assert r["hasClique"] is False and r["value"] is None
        fstar = decide_clique(inst, "chub-bruteforce", tol=tol)["value"]
        assert abs(fstar / 3 - mot.value) <= r["tolerance"]


def test_build_instance_builds_no_measure(monkeypatch):
    built = []
    post_init = DiscreteMeasure.__post_init__
    monkeypatch.setattr(
        DiscreteMeasure, "__post_init__", lambda self: built.append(1) or post_init(self)
    )
    for p, q in [(2, 2), (1, 2), (1, math.inf)]:
        inst = build_instance(K4, 3, p, q)
        decide_clique(inst, "bary-mot", tol=inst.certificate.delta / 20)
    assert built == []
    assert len(inst.bary.measures) == 3 and len(built) == 3


def test_bary_mot_cap_is_checked_before_any_lp(monkeypatch):
    inst = build_instance(C5, 3, 2, 1)  # doubled: n=10, k=6
    total = inst.points.n ** inst.k
    assert total > DEFAULT_LP_CAP

    def unreachable(*args, **kwargs):
        raise AssertionError("no sweep or LP may run past the cap")

    monkeypatch.setattr(barygap.reduction, "_transport_lp", unreachable)
    monkeypatch.setattr(barygap.reduction, "solve_chub", unreachable)
    sweep = ChubResult(0.0, (0,) * inst.k, 0.0, "reused", per_tuple=np.zeros(total))
    for reuse in (sweep, None):
        with pytest.raises(ResourceCapError, match=f"MOT LP with {total} variables exceeds cap"):
            decide_clique(inst, "bary-mot", tol=inst.certificate.delta / 20, reuse=reuse)


def test_bary_mot_skips_the_lp_when_the_sweep_proves_no(monkeypatch):
    # the LP value is at least F*/k, so once F* - tolerance lies above the
    # threshold no LP (and no second, per-tuple sweep) can change the answer
    cases = []
    for p, q in [(2, 2), (1, 2), (2, 1.5), (1, math.inf), (2, math.inf)]:
        inst = build_instance(C5, 3, p, q)
        tol = inst.certificate.delta / 20
        cases.append((inst, tol, solve_chub(inst.points, tol=tol)))
    clique = build_instance(K4, 3, 2, 2)
    clique_sweep = solve_chub(clique.points, tol=1e-6, keep_per_tuple=True)

    def unreachable(*args, **kwargs):
        raise AssertionError("a proven 'no' needs no LP and no sweep")

    monkeypatch.setattr(barygap.reduction, "_transport_lp", unreachable)
    monkeypatch.setattr(barygap.reduction, "solve_chub", unreachable)
    for inst, tol, sweep in cases:
        assert sweep.per_tuple is None
        r = decide_clique(inst, "bary-mot", tol=tol, reuse=sweep)
        assert r["hasClique"] is False and r["value"] is None and r["margin"] is None
        assert "mot_plan_support" not in r
        assert r["tolerance"] == max(tol, sweep.tolerance) / 3
        assert r["threshold"] == inst.certificate.threshold() / 3
        assert r["regime"] == inst.regime and r["certificate"] == inst.certificate.to_json()
    calls = []
    monkeypatch.setattr(
        barygap.reduction, "_transport_lp", lambda *a: calls.append(1) or _transport_lp(*a)
    )
    r = decide_clique(clique, "bary-mot", reuse=clique_sweep)
    assert calls == [1] and r["hasClique"] is True and r["mot_plan_support"] > 0


@st.composite
def _regular_decision_case(draw):
    n = draw(st.integers(4, 7))
    degree = draw(st.integers(1, n - 1).filter(lambda d: n * d % 2 == 0))
    g = random_regular_graph(n, degree, seed=draw(st.integers(0, 9)))
    k = draw(st.sampled_from([2, 3]))
    pqs = [(2, 2), (1, 2), (2, 1.5), (1, math.inf), (2, math.inf)]
    if k == 2:
        pqs += [(1, 1), (2, 1)]  # odd k at q=1 doubles the graph past these sizes
    p, q = draw(st.sampled_from(pqs))
    return g, k, p, q, draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(_regular_decision_case())
def test_bary_mot_answers_the_rule_on_a_directly_solved_lp(case):
    # the route's answer equals the rule applied to the LP it used to solve
    # every time: True at or below threshold/k, else False on a proven "no"
    g, k, p, q, keep = case
    inst = build_instance(g, k, p, q)
    tol = inst.certificate.delta / 20
    sweep = solve_chub(inst.points, tol=tol, keep_per_tuple=True)
    n, threshold = inst.points.n, inst.certificate.threshold()
    value, _ = _transport_lp([np.full(n, 1 / n)] * k, sweep.per_tuple.astype(float) / k)
    if value <= threshold / k:
        want = True
    elif sweep.value - sweep.tolerance > threshold:
        want = False
    else:
        want = None
    reuse = sweep if keep else dataclasses.replace(sweep, per_tuple=None)
    assert decide_clique(inst, "bary-mot", tol=tol, reuse=reuse)["hasClique"] is want


def test_zero_regular_gadget_decides_false():
    inst = build_instance(Graph.from_edges(4, []), 3, 2, 2)
    for solver in ("chub-bruteforce", "bary-mot"):
        assert decide_clique(inst, solver)["hasClique"] is False
    with pytest.raises(InputError, match="pairwise distinct"):
        inst.bary


def test_decide_reuse_matches_fresh():
    inst = build_instance(K4, 3, 1, 2)
    tol = inst.certificate.delta / 20
    sweep = solve_chub(inst.points, tol=tol, keep_per_tuple=True)
    a = decide_clique(inst, "chub-bruteforce", tol=tol, reuse=sweep)
    b = decide_clique(inst, "chub-bruteforce", tol=tol)
    assert a["hasClique"] == b["hasClique"] and abs(a["value"] - b["value"]) < 1e-12
    m1 = decide_clique(inst, "bary-mot", tol=tol, reuse=sweep)
    m2 = decide_clique(inst, "bary-mot", tol=tol)
    assert m1["hasClique"] == m2["hasClique"]
    assert abs(m1["value"] - m2["value"]) < 1e-9


def test_decisions_claim_only_what_the_tolerance_proves():
    # C5 has no triangle; once the sweep's tolerance reaches below the
    # threshold, its value no longer proves "no" on either route
    inst = build_instance(C5, 3, 1, 2)
    tol = inst.certificate.delta / 20
    sweep = solve_chub(inst.points, tol=tol, keep_per_tuple=True)
    threshold = inst.certificate.threshold()
    for solver in ("chub-bruteforce", "bary-mot"):
        r = decide_clique(inst, solver, tol=tol, reuse=sweep)
        assert r["hasClique"] is False and r["tolerance"] >= sweep.tolerance / inst.k
    inflated = dataclasses.replace(sweep, tolerance=sweep.value - threshold)
    for solver in ("chub-bruteforce", "bary-mot"):
        r = decide_clique(inst, solver, tol=tol, reuse=inflated)
        assert r["hasClique"] is None, solver
        assert r["margin"] < 0 and r["tolerance"] >= inflated.tolerance / inst.k


def test_oracle_decision_tracks_doubling():
    inst = build_instance(C5, 3, 1, 1)
    assert oracle_decision(inst) == has_k_clique(C5, 3) == False
    inst = build_instance(K4, 3, 1, 1)
    assert oracle_decision(inst) == has_k_clique(K4, 3) == True


def test_clique_value_universality_across_graphs():
    # two non-isomorphic 4-regular graphs on 7 vertices, both with triangles:
    # complements of C7 and of C3+C4
    from barygap.embed import embed_phi
    from barygap.graph import Graph

    def complement(g):
        edges = [
            (u, v)
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if (u, v) not in g.edges
        ]
        return Graph.from_edges(g.n, edges)

    c7 = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)])
    c3c4 = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    g1, g2 = complement(c7), complement(c3c4)
    assert g1.edges != g2.edges
    assert g1.regular_degree() == g2.regular_degree() == 4

    def triangle(g):
        for a in range(g.n):
            for b in range(a + 1, g.n):
                for c in range(b + 1, g.n):
                    if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c):
                        return (a, b, c)
        raise AssertionError("no triangle")

    tol = 1e-8
    for p, q in [(1.0, 2.0), (2.0, 1.5)]:
        vals = []
        for g in (g1, g2):
            cfg = embed_phi(g, 3, p=p, q=q)
            pts = cfg.dense_tuple(triangle(g)).astype(float)
            vals.append(solve_fpq(FpqProblem(pts, p, q), tol=tol).value)
        assert abs(vals[0] - vals[1]) <= 2e-6 * max(1.0, abs(vals[0])), (p, q, vals)


def test_unique_triangle_characterization():
    """The transport-LP route needs couplings through minimum-cost tuples;
    a lone triangle in a sparse regular graph cannot absorb uniform
    marginals, so the LP value strictly exceeds F*/k even though the
    brute-force route stays sound."""
    g = unique_triangle_graph()
    assert g.is_regular() and g.regular_degree() == 3
    assert has_k_clique(g, 3)
    tri = sum(
        1
        for a in range(8)
        for b in range(a + 1, 8)
        for c in range(b + 1, 8)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    )
    assert tri == 1
    inst = build_instance(g, 3, 2, 2)
    chub = decide_clique(inst, "chub-bruteforce")
    assert chub["hasClique"] is True
    fstar_over_k = float(chub_closed_form_22(g, 3)) / 3
    mot = bary_value_mot(inst.bary)
    assert mot.value > fstar_over_k + 1e-3


@pytest.mark.parametrize("p, q", [(2, 2), (1, 2), (2, 1.5), (1, math.inf), (2, math.inf)])
def test_bary_mot_never_answers_a_wrong_no(p, q):
    # the lone triangle leaves the LP value above threshold/k; the route must
    # then stay inconclusive rather than deny the clique
    inst = build_instance(unique_triangle_graph(), 3, p, q)
    tol = inst.certificate.delta / 20
    sweep = solve_chub(inst.points, tol=tol, keep_per_tuple=True)
    mot = decide_clique(inst, "bary-mot", tol=tol, reuse=sweep)
    assert mot["hasClique"] is not False
    assert decide_clique(inst, "chub-bruteforce", tol=tol, reuse=sweep)["hasClique"] is True


@pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", [
    lambda tol: solve_fpq(FpqProblem(np.array([[0.0], [1.0]]), 2, 1.5), tol=tol),
    lambda tol: solve_fpq_values([FpqProblem(np.array([[0.0], [1.0]]), 2, 1.5)], tol=tol),
    lambda tol: solve_chub(embed_phi(K4, 3, p=2.0, q=1.5), tol=tol),
    lambda tol: bary_value_mot(BaryInstance([DiscreteMeasure.uniform([[0.0], [1.0]])] * 2, 2, 2), tol=tol),
    lambda tol: decide_clique(build_instance(K4, 3, 2, 2), tol=tol),
], ids=["solve_fpq", "solve_fpq_values", "solve_chub", "bary_value_mot", "decide_clique"])
def test_every_entry_point_refuses_a_tolerance_that_is_not_positive(entry, tol):
    # nan passed the old inline "tol <= 0" checks: solve_fpq and
    # bary_value_mot returned values at tol=nan, and solve_chub died on an
    # empty reduction
    with pytest.raises(InputError, match="tol must be positive"):
        entry(tol)
