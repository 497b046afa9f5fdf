import itertools
import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scipy.optimize
from scipy.optimize import linprog

import barygap.fpq
from barygap.bary import DiscreteMeasure, _symmetric
from barygap.chub import solve_chub
from barygap.embed import (
    canonical_clique_collection,
    collection_from_pattern,
    embed_phi,
    embed_psi,
    embed_xi,
    q1_clique_witness,
    q1_value_formula,
    qinf_clique_witness,
)
from barygap.errors import InputError
from barygap.fpq import (
    FpqProblem,
    fpq_closed_form_22,
    fpq_gradient,
    fpq_objective,
    solve_fpq,
    solve_fpq_values,
    unique_columns,
)
from barygap.graph import complete_graph, cycle_graph
from conftest import newton_solve

K4 = complete_graph(4)


def test_trivial_examples():
    s = solve_fpq(FpqProblem(np.array([[0.0, 0.0], [2.0, 0.0]]), 2, 2))
    assert abs(s.value - 2) < 1e-12 and np.allclose(s.minimizer, [1, 0])
    s = solve_fpq(FpqProblem(np.array([[5.0, -1.0]]), 1.7, 3))
    assert s.value == 0 and np.allclose(s.minimizer, [5, -1])
    s = solve_fpq(FpqProblem(np.array([[0.0], [1.0], [2.0]]), 1, 2))
    assert abs(s.value - 2) < 1e-9 and abs(s.minimizer[0] - 1) < 1e-9


def test_input_validation():
    # nan compares false against 1, so a plain p < 1 test lets it through
    for p in (0.5, math.nan, math.inf):
        with pytest.raises(InputError, match="p must be a finite number >= 1"):
            FpqProblem(np.array([[0.0]]), p, 2)
    with pytest.raises(InputError):
        FpqProblem(np.array([[0.0]]), 1, 0.5)
    with pytest.raises(InputError):
        FpqProblem(np.array([[np.inf]]), 1, 2)
    with pytest.raises(InputError):
        solve_fpq(FpqProblem(np.array([[0.0]]), 1, 2), tol=0)


def test_closed_form_22_examples():
    cfg = embed_phi(K4, 3)
    sol = fpq_closed_form_22(cfg.dense_tuple((0, 1, 2)).astype(np.int64))
    assert sol.value_exact == Fraction(10)  # M - k + 1 = 12 - 2
    sol = fpq_closed_form_22(np.array([[1, 0], [-1, 0]]))
    assert sol.value_exact == Fraction(2)
    sol = fpq_closed_form_22(np.array([[3, 1], [3, 1], [3, 1]]))
    assert sol.value_exact == 0


def test_closed_form_matches_generic_solver():
    cfg = embed_phi(K4, 3)
    pts = cfg.dense_tuple((0, 1, 2)).astype(float)
    generic = newton_solve(FpqProblem(pts, 2, 2))
    closed = solve_fpq(FpqProblem(pts, 2, 2))
    assert closed.method == "closed-form-22" and closed.value == 10.0
    assert abs(generic.value - 10.0) < 1e-8
    assert abs(fpq_objective(pts, generic.minimizer, 2, 2) - generic.value) <= 1e-12 * 10.0


def test_q1_value_formula():
    assert q1_value_formula(4, 4, 6, 1) == 456
    assert q1_value_formula(4, 4, 0, 1) == 480
    assert q1_value_formula(4, 4, 6, 2) == Fraction(456**2, 4) == 51984
    with pytest.raises(InputError):
        q1_value_formula(4, 3, 0, 1)  # odd k
    with pytest.raises(InputError):
        q1_value_formula(1, 2, 100, 1)  # negative base


def test_q1_exact_median_solver_on_clique_tuple():
    cfg = embed_psi(K4, 4)
    pts = cfg.dense_tuple((0, 1, 2, 3)).astype(float)
    sol = solve_fpq(FpqProblem(pts, 1, 1))
    assert sol.method == "coordinate-q1"
    assert abs(sol.value - 456) < 1e-9


def test_q1_frank_wolfe_p2_certified():
    cfg = embed_psi(K4, 4)
    pts = cfg.dense_tuple((0, 1, 2, 3)).astype(float)
    sol = solve_fpq(FpqProblem(pts, 2, 1), tol=5.0)
    want = 51984.0
    assert sol.lower_bound is not None
    assert sol.lower_bound - 1e-9 <= want <= sol.value + 1e-9
    assert abs(sol.value - want) <= 1e-4 * want


def test_q1_clique_witness_identities():
    cfg = embed_psi(K4, 4)
    y = q1_clique_witness(cfg, (0, 1, 2, 3))
    for i in range(4):
        dist = int(np.abs(cfg.points[i, i].astype(np.int64) - y).sum())
        assert dist == 114  # n(k-1)(nk-2n+2) - 2(k-1)
    total = sum(
        int(np.abs(cfg.points[i, i].astype(np.int64) - y).sum()) for i in range(4)
    )
    assert total == q1_value_formula(4, 4, 6, 1)


def test_q1_clique_witness_k2():
    g = complete_graph(2)
    cfg = embed_psi(g, 2)
    y = q1_clique_witness(cfg, (0, 1))
    # per-vector distance n(k-1)(nk-2n+2) - 2(k-1) = 2*1*2 - 2 = 2
    for i in range(2):
        dist = int(np.abs(cfg.points[i, i].astype(np.int64) - y).sum())
        assert dist == 2
    sol = solve_fpq(FpqProblem(cfg.dense_tuple((0, 1)).astype(float), 1, 1))
    assert abs(sol.value - 4) < 1e-12  # k * 2


def test_qinf_clique_witness():
    cfg = embed_xi(K4, 3)
    y = qinf_clique_witness(cfg, (0, 1, 2))
    pts = cfg.dense_tuple((0, 1, 2)).astype(float)
    assert np.abs(pts - y).max() <= 0.5
    assert abs(fpq_objective(pts, y, 1, math.inf) - 1.5) < 1e-12
    assert abs(fpq_objective(pts, y, 2, math.inf) - 0.75) < 1e-12
    # n = 3 boundary
    cfg3 = embed_xi(complete_graph(3), 3)
    y3 = qinf_clique_witness(cfg3, (0, 1, 2))
    pts3 = cfg3.dense_tuple((0, 1, 2)).astype(float)
    assert abs(fpq_objective(pts3, y3, 1, math.inf) - 1.5) < 1e-12


def test_qinf_lp_exact_and_bounds():
    cfg = embed_xi(K4, 3)
    pts = cfg.dense_tuple((0, 1, 2)).astype(float)
    sol = solve_fpq(FpqProblem(pts, 1, math.inf))
    assert abs(sol.value - 1.5) < 1e-7
    sol = solve_fpq(FpqProblem(pts, 2, math.inf), tol=1e-6)
    assert abs(sol.value - 0.75) < 1e-5
    assert sol.lower_bound is not None and sol.lower_bound <= sol.value + 1e-12


def test_failure_mode_q1_on_phi():
    cfg = embed_phi(K4, 6)
    pts = cfg.dense_tuple((0, 1, 2, 3, 0, 1)).astype(float)
    sol = solve_fpq(FpqProblem(pts, 1, 1))
    assert abs(sol.value - 90) < 1e-9  # k (D(k-1))^p
    sol = solve_fpq(FpqProblem(pts, 2, 1), tol=0.1)
    assert abs(sol.value - 1350) <= 1e-4 * 1350


def test_failure_mode_qinf_on_phi():
    for k in (3, 4):
        cfg = embed_phi(K4, k)
        pts = cfg.dense_tuple(tuple(v % 4 for v in range(k))).astype(float)
        for p in (1.0, 2.0):
            sol = solve_fpq(FpqProblem(pts, p, math.inf), tol=1e-6)
            assert abs(sol.value - k / 2**p) <= 1e-4


def test_weights_are_respected():
    pts = np.array([[0.0], [1.0]])
    lam = np.array([0.25, 0.75])
    sol = solve_fpq(FpqProblem(pts, 2, 2, weights=lam))
    # weighted mean 0.75; value = 0.25*0.75^2 + 0.75*0.25^2
    assert abs(sol.minimizer[0] - 0.75) < 1e-12
    assert abs(sol.value - (0.25 * 0.5625 + 0.75 * 0.0625)) < 1e-12


def test_column_compression_is_exact():
    rng = np.random.default_rng(3)
    base = rng.integers(-1, 2, size=(4, 6)).astype(float)
    dup = np.hstack([base, base[:, :3], np.zeros((4, 5))])
    for p, q in [(1, 2), (2, 1.5), (1, 1), (2, math.inf)]:
        a = solve_fpq(FpqProblem(base, p, q), tol=1e-8)
        # duplicated columns double those coordinates' contribution; compare
        # against the solver on the expanded matrix directly
        b = solve_fpq(FpqProblem(dup, p, q), tol=1e-8)
        direct = fpq_objective(dup, b.minimizer, p, q)
        assert abs(b.value - direct) < 1e-9


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_power_gap_helper(data):
    T = data.draw(st.floats(1.0, 100.0))
    t = data.draw(st.floats(0.0, T))
    tp = data.draw(st.floats(0.0, t))
    gamma = data.draw(st.floats(0.05, 4.0))
    lhs = t**gamma - tp**gamma
    if gamma >= 1:
        assert lhs >= (t - tp) ** gamma - 1e-9 * max(1.0, t**gamma)
    else:
        assert lhs >= gamma / T * (t - tp) - 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = float(rng.choice([1.5, 2.0, 2.5]))
        x = rng.normal(size=(k, d))
        y = rng.normal(size=d) * 0.5
        g = fpq_gradient(x, y, p, q)
        h = 1e-6
        fd = np.empty(d)
        for c in range(d):
            e = np.zeros(d)
            e[c] = h
            fd[c] = (fpq_objective(x, y + e, p, q) - fpq_objective(x, y - e, p, q)) / (2 * h)
        scale = max(1.0, float(np.abs(g).max()))
        assert np.abs(g - fd).max() <= 1e-5 * scale


def test_minimizer_stays_in_bounding_box():
    rng = np.random.default_rng(4)
    for p, q in [(1, 2), (2, 1.5), (2, 1), (1, math.inf)]:
        x = rng.normal(size=(4, 3))
        sol = solve_fpq(FpqProblem(x, p, q), tol=1e-6)
        assert (sol.minimizer >= x.min(axis=0) - 1e-9).all()
        assert (sol.minimizer <= x.max(axis=0) + 1e-9).all()


def test_smooth_minimizer_gradient_consistency():
    # q in (1, inf), p > 1: interior minimizers carry a near-zero gradient
    rng = np.random.default_rng(14)
    for _ in range(10):
        k = int(rng.integers(3, 6))
        coll = canonical_clique_collection(k, int(rng.integers(1, 4)))
        p = float(rng.choice([1.5, 2.0]))
        q = float(rng.choice([1.5, 2.0, 3.0]))
        x = coll.vectors.astype(float)
        sol = solve_fpq(FpqProblem(x, p, q), tol=1e-9)
        g = fpq_gradient(x, sol.minimizer, p, q)
        interior = (sol.minimizer > x.min(axis=0) + 1e-9) & (
            sol.minimizer < x.max(axis=0) - 1e-9
        )
        scale = max(1.0, abs(sol.value))
        assert np.abs(g[interior]).max() <= 1e-5 * scale


def test_residual_identity():
    rng = np.random.default_rng(9)
    for p, q in [(2, 2), (1, 1), (2, 1), (1, math.inf), (2, 3)]:
        x = rng.integers(-1, 2, size=(3, 8)).astype(float)
        sol = solve_fpq(FpqProblem(x, p, q), tol=1e-6)
        assert abs(sol.value - fpq_objective(x, sol.minimizer, p, q)) < 1e-9


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_linf_radii_reduction(data):
    _check_linf_radii_reduction(
        data.draw(st.integers(0, 2**32 - 1)), data.draw(st.integers(1, 5)),
        data.draw(st.integers(1, 5)), data.draw(st.booleans()), data.draw(st.booleans()),
    )


def test_linf_radii_reduction_on_loose_radii():
    # integer, weighted, k=5, d=1: the radii loop stops with radii that are
    # not all tight, and their sum sat 1.9e-12 above the hub's objective
    # until the radii were tightened
    _check_linf_radii_reduction(1886, 5, 1, True, True)


def _check_linf_radii_reduction(seed, k, d, integer, weighted):
    # l_inf is hyperconvex: radii with t_i + t_l >= D_il always leave a common
    # point, read off coordinate by coordinate; at p = 1 the radii LP has the
    # value of the y-space epigraph LP
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(k, d)).astype(float) if integer else rng.normal(size=(k, d))
    D = barygap.fpq._pairwise_linf(x)
    t = barygap.fpq._make_feasible(rng.random(k) * D.max(initial=0.0), D)
    assert (t[:, None] + t[None, :] >= D).all()
    y = barygap.fpq._hub_from_radii(x, t)
    assert (np.abs(x - y).max(axis=1) <= t + 1e-12).all()

    lam = rng.random(k) + 0.1 if weighted else np.ones(k)
    sol = solve_fpq(FpqProblem(x, 1, math.inf, weights=lam), tol=1e-9)
    assert abs(sol.value - _linf_hub_lp(x, lam)[0]) <= 1e-9
    assert abs(sol.value - fpq_objective(x, sol.minimizer, 1, math.inf, lam)) <= 1e-12


def _linf_hub_lp(x, lam, breaks=None):
    # HiGHS on the y-space epigraph LP of min_y sum_i lam_i ||x_i - y||_inf^p,
    # variables [y_1..y_d, t_1..t_k] (and e_1..e_k with breaks): exact at p = 1;
    # with breaks 0 = b_0 < ... < b_N, e_i lies on the secants of t^2 through
    # them and t_i <= b_N, an LP whose optimum is at or above the p = 2 one.
    # Returns (LP optimum, y)
    k, d = x.shape
    n = d + k + (0 if breaks is None else k)
    rows, rhs = [], []
    for i in range(k):
        for j in range(d):  # y_j - t_i <= x_ij and -y_j - t_i <= -x_ij
            for sign in (1.0, -1.0):
                r = np.zeros(n)
                r[j], r[d + i] = sign, -1.0
                rows.append(r)
                rhs.append(sign * x[i, j])
        if breaks is not None:
            for a, b in zip(breaks[:-1], breaks[1:]):  # (a + b) t_i - e_i <= a b
                r = np.zeros(n)
                r[d + i], r[d + k + i] = a + b, -1.0
                rows.append(r)
                rhs.append(a * b)
    if breaks is None:
        cost, bounds = np.concatenate([np.zeros(d), lam]), [(0, None)] * k
    else:
        cost = np.concatenate([np.zeros(d + k), lam])
        bounds = [(0, breaks[-1])] * k + [(None, None)] * k
    ref = linprog(cost, A_ub=np.array(rows), b_ub=rhs,
                  bounds=[(None, None)] * d + bounds, method="highs")
    assert ref.success
    return ref.fun, ref.x[:d]


def _random_hub_problems(count=300, seed=0):
    # the fixed certification set: k in [2, 5], d in [1, 6], every fifth weighted
    rng = np.random.default_rng(seed)
    probs = []
    for i in range(count):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(1, 7))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = [1.0, math.inf][int(rng.integers(2))]
        x = rng.normal(size=(k, d))
        w = rng.random(k) + 0.1 if i % 5 == 0 else None
        probs.append(FpqProblem(x, p, q, weights=w))
    return probs


def test_simplicial_certifies_random_hub_problems():
    tol = 1e-6
    for prob in _random_hub_problems():
        sol = solve_fpq(prob, tol=tol)
        assert sol.method == ("simplicial-decomposition" if prob.q == 1 else "linf-radii")
        assert sol.tolerance <= tol
        assert sol.lower_bound <= sol.value + 1e-9 * max(1.0, abs(sol.value))


@pytest.mark.parametrize("seed", [0, 3])
def test_linf_radii_certify_random_hub_problems(seed):
    tol = 1e-9
    for prob in _random_hub_problems(400, seed):
        if prob.q != math.inf:
            continue
        sol = solve_fpq(prob, tol=tol)
        assert sol.tolerance <= tol
        assert sol.lower_bound <= sol.value + 1e-12 * max(1.0, abs(sol.value))


def test_linf_radii_certify_a_degenerate_integer_problem():
    # optimum 14 at unit radii; one SQP step here is a degenerate 8 x 28
    # least-distance problem on which scipy's nnls (1.17) stops at a
    # non-optimal point, which left the bound at 0
    x = np.array([[1, 0, 0, -1, 1], [1, 1, 1, -1, 0], [1, -1, 0, 1, 0], [-1, -1, 1, 0, 1],
                  [1, 0, -1, 0, 0], [0, 1, 1, 1, 1], [-1, 0, 0, -1, 0]], dtype=float)
    lam = np.array([3.0, 1.0, 0.5, 0.5, 3.0, 3.0, 3.0])
    sol = solve_fpq(FpqProblem(x, 1.1, math.inf, weights=lam), tol=1e-9)
    assert sol.lower_bound <= 14.0 + 1e-12 and abs(sol.value - 14.0) <= 1e-9
    assert sol.tolerance <= 1e-9


def test_linf_bound_is_never_above_the_optimum():
    # optimum exactly 9.169: primal y = (0.85, -0.22) with radii
    # (2.02, 0.71, 0.71, 2.02); dual z_14 = 4.04, z_23 = 1.42.  A bound read
    # from an LP solver's objective sat 1.15e-7 above it with tolerance 0
    x = np.array([[-1.17, 0.64], [1.32, 0.49], [0.16, -0.93], [2.87, 0.88]])
    tol = 1e-9
    sol = solve_fpq(FpqProblem(x, 2, math.inf), tol=tol)
    assert sol.lower_bound <= 9.169 <= sol.value
    assert sol.value - sol.lower_bound <= tol


def test_linf_p_above_1_makes_no_lp_call(monkeypatch):
    calls = []
    inner = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    for prob in _random_hub_problems(60, seed=1):
        if prob.q == math.inf:
            solve_fpq(prob, tol=1e-9)
    assert calls == []
    solve_fpq(FpqProblem(np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]]), 1, math.inf))
    assert calls == []


def test_linf_radii_log_an_open_gap(monkeypatch, caplog):
    # the step cap at 0: both problems of the one radii stack stop open, and
    # each logs its own DEBUG record
    monkeypatch.setattr(barygap.fpq, "_RADII_STEPS", 0)
    pts = np.array([[0.0, 0.0], [1.0, 3.0], [4.0, 1.0]])
    for p in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="barygap.fpq"):
            values, lower = solve_fpq_values(
                [FpqProblem(pts, p, math.inf), FpqProblem(2 * pts, p, math.inf)], tol=1e-9
            )
        assert (values - lower > 1e-9).all()
        assert (lower <= values).all()
        records = [r for r in caplog.records if r.name == "barygap.fpq"]
        assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
        assert all("above tol" in r.getMessage() for r in records)


def test_linf_p1_radii_match_highs():
    # the proximal steps close every p = 1 gap, and no bound lies above the
    # LP optimum: k in [2, 6], d in [1, 5], scaled by 1e-2 to 1e2; every
    # fifth problem integer, every third weighted
    tol = 1e-9
    rng = np.random.default_rng(11)
    for i in range(600):
        k, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        scale = 10.0 ** rng.uniform(-2, 2)
        x = rng.integers(-3, 4, size=(k, d)).astype(float) if i % 5 == 0 else rng.normal(size=(k, d))
        x *= scale
        lam = rng.random(k) + 0.1 if i % 3 == 0 else np.ones(k)
        sol = solve_fpq(FpqProblem(x, 1, math.inf, weights=lam), tol=tol)
        opt = _linf_hub_lp(x, lam)[0]
        assert sol.lower_bound <= opt + 1e-12 * max(1.0, abs(opt))
        assert sol.tolerance <= tol
        assert abs(sol.value - opt) <= tol


@pytest.mark.parametrize("scale", [1e3, 1e6])
@pytest.mark.parametrize("p", [1, 2])
def test_linf_radii_at_large_scales(monkeypatch, scale, p):
    # tol is absolute, so at these scales some gaps can only close to a few
    # ulps of the value: the loop must stop in time, cleanly, with a bound
    # still at or below the optimum
    steps = _counting(monkeypatch, "_nnls")  # one least-distance solve a step of each problem
    max_steps = barygap.fpq._RADII_STEPS
    rng = np.random.default_rng(4)
    for i in range(40):
        k, d = int(rng.integers(2, 7)), int(rng.integers(1, 6))
        x = rng.normal(size=(k, d)) * scale
        lam = rng.random(k) + 0.1 if i % 3 == 0 else np.ones(k)
        barygap.fpq._MEMO.clear()
        steps.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol = solve_fpq(FpqProblem(x, p, math.inf, weights=lam), tol=1e-9)
        assert len(steps) < max_steps  # stopped by its own rules, not by the cap
        assert sol.tolerance == max(sol.value - sol.lower_bound, 0.0)
        if p == 1:
            opt = _linf_hub_lp(x, lam)[0]
        else:
            top = float(np.ptp(x, axis=0).max())  # HiGHS fails on the unscaled secants
            y = top * _linf_hub_lp(x / top, lam, np.linspace(0.0, 1.0, 1001))[1]
            opt = fpq_objective(x, y, 2, math.inf, lam)  # a hub's value: >= the optimum
        assert sol.lower_bound <= opt + 1e-12 * abs(opt)
        assert abs(sol.value - opt) <= 1e-5 * opt  # the secants sit above t^2 by at most (top/1000)^2/4



def test_simplicial_closes_a_former_cap_miss():
    # weighted p=3, q=1, k=5, d=3: pairwise Frank-Wolfe stopped at its
    # 1000-call cap with gap 6.1e-6 here, its Fenchel bound lagging the
    # primal value; the corrective steps close it under the default cap, and
    # the interval holds the optimum of a solve at tol 1e-12
    prob = _random_hub_problems(400, seed=3)[365]
    sol = solve_fpq(prob, tol=1e-6)
    assert sol.method == "simplicial-decomposition"
    assert sol.tolerance <= 1e-6
    barygap.fpq._MEMO.clear()
    opt = solve_fpq(prob, tol=1e-12)
    assert opt.tolerance <= 1e-12
    assert sol.value - sol.tolerance <= opt.lower_bound <= opt.value <= sol.value


def test_simplicial_closes_a_three_point_p2_problem():
    # pairwise Frank-Wolfe stopped here with value 14.667466852259428 and
    # gap 5.6e-7 at tol 1e-9; at p = 2 each corrective step is exact
    x = np.array([[1.31, -0.33, 0.59], [-0.6, 0.43, -0.7], [2.08, -1.1, 0.27]])
    sol = solve_fpq(FpqProblem(x, 2, 1), tol=1e-9)
    assert sol.tolerance <= 1e-9
    assert sol.lower_bound <= 14.667466666666667 <= sol.value + 1e-12


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_simplicial_metamorphic(data):
    # point and coordinate permutations and translations keep the value;
    # scaling by c multiplies it by c^p, all within the reported tolerances
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(2, 4))
    d = data.draw(st.integers(1, 4))
    p = data.draw(st.sampled_from([1.5, 2.0, 3.0]))
    q = data.draw(st.sampled_from([1.0, math.inf]))
    x = rng.normal(size=(k, d))
    w = rng.random(k) + 0.1 if data.draw(st.booleans()) else None
    base = solve_fpq(FpqProblem(x, p, q, weights=w), tol=1e-6)
    rows, cols = rng.permutation(k), rng.permutation(d)
    c = data.draw(st.floats(0.25, 4.0))
    moved = [
        (x[rows], None if w is None else w[rows], 1.0),
        (x[:, cols], w, 1.0),
        (x + rng.normal(size=d) * 10, w, 1.0),
        (c * x, w, c**p),
    ]
    for pts, wts, factor in moved:
        sol = solve_fpq(FpqProblem(pts, p, q, weights=wts), tol=1e-6)
        slack = sol.tolerance + factor * base.tolerance + 1e-9 * max(1.0, sol.value)
        assert abs(sol.value - factor * base.value) <= slack


def test_simplicial_logs_an_open_gap(monkeypatch, caplog):
    # the oracle-call cap at 1: both problems of the one simplicial stack
    # stop open, and each logs its own DEBUG record
    monkeypatch.setattr(barygap.fpq, "_SIMPLICIAL_CALLS", 1)
    pts = np.array([[0.0, 0.0], [1.0, 3.0], [4.0, 1.0]])
    with caplog.at_level(logging.DEBUG, logger="barygap.fpq"):
        values, lower = solve_fpq_values([FpqProblem(pts, 2, 1), FpqProblem(2 * pts, 2, 1)], tol=1e-9)
    assert (values - lower > 1e-9).all()
    assert (lower <= values).all()
    records = [r for r in caplog.records if r.name == "barygap.fpq"]
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    assert all("above tol" in r.getMessage() for r in records)


def _random_smooth_hub_problems(count=400, seed=0):
    # the fixed smooth certification set: k in [2, 5], d in [1, 6], every
    # fifth weighted, every seventh rounded to integers as gadget inputs are
    rng = np.random.default_rng(seed)
    probs = []
    for i in range(count):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(1, 7))
        p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        q = float(rng.choice([1.5, 2.0, 3.0]))
        x = rng.normal(size=(k, d))
        if i % 7 == 0:
            x = np.round(2 * x)
        w = rng.random(k) + 0.1 if i % 5 == 0 else None
        probs.append(FpqProblem(x, p, q, weights=w))
    return probs


def test_newton_certifies_random_smooth_hub_problems():
    tol = 1e-6
    for prob in _random_smooth_hub_problems():
        sol = newton_solve(prob, tol=tol)
        assert sol.method == "newton" or not np.ptp(prob.points, axis=0).any()
        assert sol.tolerance <= tol
        assert sol.lower_bound <= sol.value + 1e-12 * max(1.0, sol.value)
        assert abs(sol.value - fpq_objective(prob.points, sol.minimizer, prob.p, prob.q,
                                             prob.weights)) <= 1e-12 * max(1.0, sol.value)


@pytest.mark.parametrize("x, optimum", [
    ([[-0.281590918492431, -0.11413892868304698, 0.9318229900520207],
      [-0.047297453385549915, 0.2147128686174058, 0.7800318280865711],
      [0.26676312084405873, 0.16649058918725823, 0.7661854100826598]], 0.2496434529),
    ([[-1.0303631480379034, 0.13748915385826277, 0.34847300587891183],
      [-0.9799455520128595, 0.17984781397298089, 0.44216133872916563],
      [-0.9163064692178533, 0.25482291623691367, 0.10541576323511981]], 0.1355059123),
])
def test_newton_leaves_a_non_optimal_data_point(x, optimum):
    # (1, 2) problems of the bary-generic benchmark whose optimum lies about
    # 0.015 from a data point that is not optimal
    sol = solve_fpq(FpqProblem(np.array(x), 1, 2, weights=np.full(3, 1 / 3)), tol=1e-8)
    assert sol.method == "newton" and sol.tolerance <= 1e-8
    assert abs(sol.value - optimum) <= 1e-9
    assert sol.lower_bound <= optimum + 1e-10  # optimum is rounded to 1e-10


def test_newton_steps_out_of_a_non_optimal_data_point():
    # p = 1: the iterate reaches x_0, which is not optimal, and leaves it along
    # its steepest descent direction; the optimum lies about 1e-4 from x_0
    x = np.array([[2.0, -2.0], [1.0, -2.0], [3.0, 2.0]])
    sol = solve_fpq(FpqProblem(x, 1, 1.5), tol=1e-9)
    assert sol.method == "newton" and sol.tolerance <= 1e-9
    assert sol.lower_bound <= sol.value
    assert 0 < np.abs(sol.minimizer - x[0]).max() < 1e-3
    assert sol.value == pytest.approx(5.326748321983024, abs=1e-9)
    assert fpq_objective(x, sol.minimizer, 1, 1.5) == pytest.approx(sol.value, rel=1e-15)


def test_newton_stops_at_an_optimal_data_point():
    # p = 1: x_0 weighs 3 against two pulls of dual norm 1 each, so it is the
    # optimum, and the gradients there certify it exactly
    x = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    sol = solve_fpq(FpqProblem(x, 1, 1.5, weights=np.array([3.0, 1.0, 1.0])), tol=1e-12)
    assert sol.method == "newton"
    assert np.array_equal(sol.minimizer, x[0]) and sol.value == 4.0
    assert sol.lower_bound == pytest.approx(4.0, rel=1e-15)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fenchel_bound_is_below_every_objective_value(data):
    # weak duality, apart from any engine: the term gradients at a point y,
    # shifted to sum to zero, bound the objective at any point y' from below
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    k = data.draw(st.integers(1, 5))
    c = data.draw(st.integers(1, 5))
    p = data.draw(st.sampled_from([1.0, 1.3, 2.0, 3.0]))
    q = data.draw(st.sampled_from([1.2, 1.5, 2.0, 3.0]))
    x = rng.normal(size=(k, c))
    w = rng.integers(1, 4, size=c).astype(float)
    lam = rng.random(k) + 0.1
    y, y_other = rng.normal(size=c), rng.normal(size=c)
    v = x - y
    n = ((np.abs(v) ** q) * w).sum(axis=1) ** (1 / q)
    u = (lam * p * n ** (p - q))[:, None] * w * np.abs(v) ** (q - 1) * np.sign(v)
    u -= lam[:, None] / lam.sum() * u.sum(axis=0)
    bound = barygap.fpq._fenchel_bound(v, u, w, lam, p, q)
    for point in (y, y_other):
        value = sum(lam[i] * (w @ np.abs(x[i] - point) ** q) ** (p / q) for i in range(k))
        assert bound <= value + 1e-12 * max(1.0, value)


def test_newton_logs_an_open_gap(monkeypatch, caplog):
    # the batched engine's step cap at 0: both problems of the one stack stop
    # open, and each logs its own DEBUG record
    monkeypatch.setattr(barygap.fpq, "_NEWTON_STEPS", 0)
    pts = np.array([[0.0, 0.0], [1.0, 3.0], [4.0, 1.0]])
    with caplog.at_level(logging.DEBUG, logger="barygap.fpq"):
        values, lower = solve_fpq_values([FpqProblem(pts, 2, 1.5), FpqProblem(2 * pts, 2, 1.5)], tol=1e-9)
    assert (values - lower > 1e-9).all()
    assert (lower <= values).all()
    records = [r for r in caplog.records if r.name == "barygap.fpq"]
    assert len(records) == 2 and all(r.levelno == logging.DEBUG for r in records)
    assert all("above tol" in r.getMessage() for r in records)


@st.composite
def _hub_problem_lists(draw):
    # problems of a few (p, q) regimes and shapes, so that some share a
    # Newton, simplicial (q = 1) or radii (q = inf) stack; duplicate rows,
    # zero weights and constant columns mixed in
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    regimes = draw(st.lists(
        st.tuples(st.sampled_from([1.0, 1.3, 2.0, 3.0]),
                  st.sampled_from([1.0, 1.2, 1.5, 2.0, 3.0, math.inf])),
        min_size=1, max_size=2,
    ))
    shapes = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=2))
    probs = []
    for _ in range(draw(st.integers(1, 10))):
        p, q = draw(st.sampled_from(regimes))
        k, d = draw(st.sampled_from(shapes))
        x = rng.normal(size=(k, d)) if draw(st.booleans()) else rng.integers(-2, 3, (k, d)) * 1.0
        if k > 1 and draw(st.booleans()):
            x[-1] = x[0]
        if draw(st.booleans()):
            x[:, 0] = x[0, 0]
        w = rng.integers(0, 3, k) * 0.5 if draw(st.booleans()) else None
        probs.append(FpqProblem(x, p, q, weights=w))
    return probs, draw(st.sampled_from([1e-6, 1e-9]))


@given(_hub_problem_lists())
@settings(max_examples=150, deadline=None)
def test_solve_fpq_values_matches_each_problem_alone(case):
    # a problem's result does not depend on the rest of its batch: every
    # value and lower bound equals solve_fpq's on that problem alone, bit for
    # bit, and the tolerance is their difference
    probs, tol = case
    barygap.fpq._MEMO.clear()
    values, lower = solve_fpq_values(probs, tol=tol)
    for prob, value, bound in zip(probs, values, lower):
        barygap.fpq._MEMO.clear()
        alone = solve_fpq(prob, tol=tol)
        assert np.array([value, bound]).tobytes() == np.array([alone.value, alone.lower_bound]).tobytes()
        assert alone.tolerance == alone.value - alone.lower_bound
        want = fpq_objective(prob.points, alone.minimizer, prob.p, prob.q, prob.weights)
        assert abs(alone.value - want) <= 1e-12 * max(1.0, abs(want))


def test_newton_p1_q3_four_points_report_an_honest_interval():
    # an optimal data point that the data-point test once missed by one ulp,
    # leaving a gap of 3.5e-6 at tol 1e-9; alone and inside a batch the
    # interval holds a Nelder-Mead optimum and is closed
    x = np.array([[-3.0, -3.0], [3.0, 3.0], [2.0, 1.0], [-2.0, -2.0]])
    prob = FpqProblem(x, 1, 3)
    ref = min(
        scipy.optimize.minimize(
            lambda y: fpq_objective(x, y, 1, 3), start, method="Nelder-Mead",
            options={"xatol": 1e-13, "fatol": 1e-15, "maxiter": 20000},
        ).fun
        for start in (x[3], x.mean(axis=0))
    )
    alone = solve_fpq(prob, tol=1e-9)
    assert alone.method == "newton"
    assert alone.tolerance == alone.value - alone.lower_bound
    barygap.fpq._MEMO.clear()
    other = FpqProblem(np.array([[0.0, 0.0], [1.0, 3.0], [4.0, 1.0], [-1.0, 2.0]]), 1, 3)
    values, lower = solve_fpq_values([other, prob, other], tol=1e-9)
    for value, bound in ((alone.value, alone.lower_bound), (values[1], lower[1])):
        assert bound <= ref <= value
        # the optimum is the data point (-2, -2), whose pulls' dual norm is 1,
        # its weight, up to one ulp: the data-point test certifies it
        assert value - bound <= 1e-9


@st.composite
def _column_matrices(draw):
    k = draw(st.integers(0, 4))
    d = draw(st.integers(0, 8))
    if draw(st.booleans()):
        dtype, elements = np.int64, st.integers(-2, 2)
    else:
        # few distinct values, so columns collide; -0.0 and 0.0 mix
        dtype = np.float64
        elements = st.sampled_from([-1.5, -0.0, 0.0, 0.5]) | st.floats(-3, 3)
    col = draw(hnp.arrays(dtype, (k, 1), elements=elements))
    if draw(st.booleans()):
        return np.repeat(col, d, axis=1)  # all columns equal, up to the zero sign
    return draw(hnp.arrays(dtype, (k, d), elements=elements))


@given(_column_matrices())
@settings(max_examples=300, deadline=None)
def test_unique_columns_matches_numpy(x):
    want = np.unique(x, axis=1, return_index=True, return_inverse=True, return_counts=True)
    got = unique_columns(x)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))


def test_unique_columns_edge_shapes():
    for x in [np.zeros((3, 0)), np.zeros((0, 4)), np.array([[2.0], [-0.0]]),
              np.array([[0.0, -0.0, 0.0]]), np.ones((2, 5), dtype=np.int64)]:
        want = np.unique(x, axis=1, return_index=True, return_inverse=True, return_counts=True)
        for a, b in zip(unique_columns(x), want):
            assert a.shape == b.shape and np.array_equal(a, b)


def _counting(monkeypatch, name):
    # one entry per problem of each call: every engine (``_newton``,
    # ``_simplicial``, ``_radii``) and ``_nnls`` take a stack of problems
    calls = []
    inner = getattr(barygap.fpq, name)

    def wrapper(*args, **kwargs):
        calls.extend([args] * len(args[0]))
        return inner(*args, **kwargs)

    monkeypatch.setattr(barygap.fpq, name, wrapper)
    return calls


def _qin_problem():
    # a path-pattern overlap collection: the problem the QIN certificate sweep
    # and the phi-embedded class problems share
    return collection_from_pattern(4, 2, [(0, 1), (1, 2)]).vectors.astype(float)


def test_memo_solves_a_permuted_problem_once(monkeypatch):
    calls = _counting(monkeypatch, "_newton")
    x = _qin_problem()
    rng = np.random.default_rng(5)
    moved = x[[2, 0, 3, 1]][:, rng.permutation(x.shape[1])]
    a = solve_fpq(FpqProblem(x, 2, 1.5), tol=1e-8)
    b = solve_fpq(FpqProblem(moved, 2, 1.5), tol=1e-8)
    assert len(calls) == 1
    assert a.value == b.value and a.method == b.method == "newton"
    assert a.tolerance <= 1e-8 and a.lower_bound <= a.value
    assert abs(b.value - fpq_objective(moved, b.minimizer, 2, 1.5)) < 1e-9


def test_batch_solves_each_canonical_problem_once(monkeypatch):
    # a permuted copy in the same batch shares its canonical problem, and the
    # two distinct problems of one shape are solved in one Newton stack
    calls = _counting(monkeypatch, "_newton")
    x = _qin_problem()
    moved = x[[2, 0, 3, 1]][:, np.random.default_rng(5).permutation(x.shape[1])]
    values, _ = solve_fpq_values([FpqProblem(pts, 2, 1.5) for pts in (x, moved, 2 * x)])
    assert len(calls) == 2 and calls[0] is calls[1] and len(barygap.fpq._MEMO) == 2
    assert values[0] == values[1] and values[2] == pytest.approx(2**2 * values[0])
    assert solve_fpq(FpqProblem(x, 2, 1.5)).value == values[0]
    assert len(calls) == 2


def test_a_batch_solves_its_misses_in_bounded_rounds(monkeypatch):
    # with the work bound below one problem, each miss is solved as it comes,
    # one engine stack a problem, and the solutions are those of one round
    for q, engine in [(1.5, "_newton"), (1.0, "_simplicial"), (math.inf, "_radii")]:
        rng = np.random.default_rng(3)
        probs = [FpqProblem(rng.normal(size=(3, 4)), 2, q) for _ in range(6)]
        whole = solve_fpq_values(probs, tol=1e-9)
        barygap.fpq._MEMO.clear()
        stacks = []
        inner = getattr(barygap.fpq, engine)
        with monkeypatch.context() as patch:
            patch.setattr(barygap.fpq, engine,
                          lambda first, *a: stacks.append(len(first)) or inner(first, *a))
            patch.setattr(barygap.fpq, "_BATCH_WORK", 1)
            rounds = solve_fpq_values(probs, tol=1e-9)
        assert stacks == [1] * 6
        for a, b in zip(whole, rounds):
            assert a.tobytes() == b.tobytes()


def test_memo_reuses_only_a_tight_enough_entry(monkeypatch):
    # an entry serves only requests at least as loose as its certified gap
    calls = _counting(monkeypatch, "_newton")
    prob = FpqProblem(_qin_problem(), 2, 1.5)
    loose = solve_fpq(prob, tol=1e-2)
    assert 1e-8 < loose.tolerance <= 1e-2
    tight = solve_fpq(prob, tol=1e-8)
    assert tight.tolerance <= 1e-8
    assert len(calls) == 2
    assert solve_fpq(prob, tol=1e-2).tolerance == tight.tolerance  # the tighter entry serves
    assert solve_fpq(prob, tol=1e-8).tolerance == tight.tolerance
    assert len(calls) == 2


def test_memo_keeps_weights_p_and_q_apart(monkeypatch):
    calls = _counting(monkeypatch, "_newton")
    x = _qin_problem()
    variants = [
        FpqProblem(x, 2, 1.5),
        FpqProblem(x, 2, 1.5, weights=np.array([1.0, 1.0, 1.0, 2.0])),
        FpqProblem(x, 2, 1.5, weights=np.array([2.0, 1.0, 1.0, 1.0])),
        FpqProblem(x, 3, 1.5),
        FpqProblem(x, 2, 3.0),
    ]
    values = [solve_fpq(prob, tol=1e-8).value for prob in variants]
    assert len(calls) == len(variants)
    assert len(set(values)) == len(variants)
    for prob, value in zip(variants, values):
        assert solve_fpq(prob, tol=1e-8).value == value
    assert len(calls) == len(variants)


def _equal_linf_problems():
    # a reflected copy, rows permuted, with one more coordinate that never
    # sets a distance: the same (p, weights, distances) at q = inf
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    shortest = barygap.fpq._pairwise_linf(x)[np.triu_indices(4, 1)].min()
    perm = [2, 0, 3, 1]
    other = np.hstack([-x, 0.5 * shortest * rng.random((4, 1))])[perm]
    lam = np.array([1.0, 2.0, 0.5, 1.5])
    return [FpqProblem(x, 3, math.inf, weights=lam),
            FpqProblem(other, 3, math.inf, weights=lam[perm])]


def test_memo_solves_equal_linf_distances_once(monkeypatch):
    # at q = inf the memo is keyed on weights and pairwise distances: the
    # two problems are one, and each hit rebuilds its hub from its own points
    calls = _counting(monkeypatch, "_radii")
    probs = _equal_linf_problems()
    a, b = (solve_fpq(prob, tol=1e-9) for prob in probs)
    assert len(calls) == 1
    for prob, sol in zip(probs, (a, b)):
        direct = fpq_objective(prob.points, sol.minimizer, 3, math.inf, prob.weights)
        assert abs(sol.value - direct) <= 1e-9
    for mine, theirs in ((a, b), (b, a)):
        slack = 1e-12 * theirs.value  # the two hubs round differently
        assert theirs.lower_bound <= mine.value <= theirs.value + slack

    # an entry serves only requests at least as loose as its own gap
    barygap.fpq._MEMO.clear()
    loose = solve_fpq(probs[0], tol=1e-1)
    assert 1e-9 < loose.tolerance <= 1e-1
    assert solve_fpq(probs[1], tol=1e-9).tolerance <= 1e-9
    assert len(calls) == 3
    assert solve_fpq(probs[0], tol=1e-1).tolerance <= 1e-9  # the tighter entry serves
    assert len(calls) == 3


def test_a_batch_solves_equal_linf_distances_once(monkeypatch):
    # in one batch the two problems wait as one miss: one radii problem is
    # solved and both report its value; each memo hit of solve_fpq places
    # its own hub
    calls = _counting(monkeypatch, "_radii")
    probs = _equal_linf_problems()
    values, lower = solve_fpq_values(probs + [FpqProblem(2 * probs[0].points, 3, math.inf)], tol=1e-9)
    assert len(calls) == 2 and len(barygap.fpq._MEMO) == 2
    assert values[0] == values[1] and lower[0] == lower[1] and values[0] - lower[0] <= 1e-9
    sols = [solve_fpq(prob, tol=1e-9) for prob in probs]  # memo hits
    assert len(calls) == 2
    assert [sol.minimizer.shape for sol in sols] == [(3,), (4,)]
    for prob, sol in zip(probs, sols):
        assert (sol.value, sol.lower_bound) == (values[0], lower[0])
        direct = fpq_objective(prob.points, sol.minimizer, 3, math.inf, prob.weights)
        assert abs(sol.value - direct) <= 1e-9


def test_lower_bounds_never_lie_above_their_values():
    # a bound rounded above its value, seen at (2, 1.5) on the second (3, 3)
    # normal draw of default_rng(1); every engine rounds its bound down by a
    # few ulps of the value, so that the reported interval is never empty
    rng = np.random.default_rng(1)
    rng.normal(size=(3, 3))
    sol = solve_fpq(FpqProblem(rng.normal(size=(3, 3)), 2, 1.5), tol=1e-9)
    assert sol.lower_bound < sol.value and sol.tolerance == sol.value - sol.lower_bound
    rng = np.random.default_rng(2)
    probs = []
    for i in range(1200):
        k, d = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        p = float(rng.choice([1.0, 1.3, 2.0, 3.0]))
        q = float(rng.choice([1.0, 1.2, 1.5, 2.0, 3.0, math.inf]))
        x = rng.normal(size=(k, d)) if i % 4 else rng.integers(-2, 3, (k, d)) * 1.0
        w = rng.random(k) + 0.1 if i % 3 == 0 else None
        probs.append(FpqProblem(x, p, q, weights=w))
    values, lower = solve_fpq_values(probs, tol=1e-9)
    assert (lower <= values).all()
    for prob, value, bound in zip(probs, values, lower):  # memo hits
        sol = solve_fpq(prob, tol=1e-9)
        assert (sol.value, sol.lower_bound) == (value, bound)
        assert sol.tolerance == sol.value - sol.lower_bound


def test_newton_stops_at_a_gap_that_rounding_cannot_close():
    # two equal-weight points scaled by 1e3: their weighted mean is the
    # optimum, and the gap there is a few ulps of a value near 2e10, above
    # the absolute tol 1e-6.  Stopped by tol alone, Newton spends 25 damped
    # steps on each until its damping passes 1e12; the stop floor of 8 ulps
    # of the value ends it at the start, with an interval as tight as the floor
    for seed in (2, 3, 4, 5):
        x = np.random.default_rng(seed).normal(size=(2, 7)) * 1e3
        _, _, (steps,) = barygap.fpq._newton(x[None], np.ones((1, 2)), np.ones((1, 7)), 3, 2, 1e-6)
        assert steps == 0
        sol = solve_fpq(FpqProblem(x, 3, 2), tol=1e-6)
        assert sol.method == "newton"
        assert 0 <= sol.tolerance <= 16 * np.finfo(float).eps * sol.value


def _degenerate_problems():
    # every weight 0, one weighted point among weightless ones, all points
    # equal; at q in {1, 1.5, 2, inf} and p in {1, 2}
    x = np.array([[0.0, 1.0, 2.0], [3.0, -1.0, 0.5], [1.0, 1.0, -2.0], [3.0, -1.0, 0.5]])
    cases = [(x, np.zeros(4)), (x, np.array([0.0, 2.5, 0.0, 0.0])), (np.repeat(x[2:3], 4, axis=0), None)]
    return [FpqProblem(pts, p, q, weights=w)
            for pts, w in cases for p in (1, 2) for q in (1, 1.5, 2, math.inf)]


def test_fewer_than_two_weighted_points_make_a_constant_problem():
    # the optimum is 0, attained at a weighted point (any point when no
    # point has weight): alone, each problem reports it exactly, and inside
    # a batch with ordinary problems its value and bound are 0
    probs = _degenerate_problems()
    for prob in probs:
        barygap.fpq._MEMO.clear()
        sol = solve_fpq(prob, tol=1e-9)
        assert (sol.method, sol.value, sol.lower_bound, sol.tolerance) == ("constant", 0.0, 0.0, 0.0)
        rows = prob.points if prob.weights is None or not prob.weights.any() else \
            prob.points[prob.weights > 0]
        assert any(np.array_equal(sol.minimizer, row) for row in rows)
    barygap.fpq._MEMO.clear()
    ordinary = [FpqProblem(np.array([[0.0, 1.0], [2.0, -1.0], [1.0, 3.0]]), p, q)
                for p in (1, 2) for q in (1, 1.5, 2, math.inf)]
    values, lower = solve_fpq_values(ordinary + probs + ordinary, tol=1e-9)
    n = len(ordinary)
    assert (values[n:-n] == 0).all() and (lower[n:-n] == 0).all()
    assert (values[:n] > 0).all() and (values[:n] == values[-n:]).all()


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("g", [complete_graph(4), cycle_graph(4), cycle_graph(5)])
def test_qinf_values_do_not_depend_on_point_order(g, p):
    # tuples that share a memo entry, like (0,0,0,1) and (0,0,1,0), are
    # different point sets; each reports the entry's value, so the gadget's
    # cost tensor is exactly symmetric, and every value covers its own hub
    cfg = embed_xi(g, 4, p=p)
    res = solve_chub(cfg, tol=1e-6, keep_per_tuple=True)
    measures = [DiscreteMeasure.uniform(group.astype(float)) for group in cfg.points]
    assert _symmetric([m.masses for m in measures], res.per_tuple / 4)
    for t in itertools.product(range(cfg.n), repeat=4):
        pts = cfg.dense_tuple(t).astype(float)
        sol = solve_fpq(FpqProblem(pts, p, math.inf), tol=5e-7)
        assert sol.value >= fpq_objective(pts, sol.minimizer, p, math.inf)
