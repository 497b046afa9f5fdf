import contextlib
import math
from fractions import Fraction
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import barygap.bary
import barygap.chub
from barygap.bary import (
    BaryInstance,
    DiscreteMeasure,
    bary_value_mot,
    barycenter_objective,
    borgwardt_2approx,
    extract_barycenter,
    ot_cost,
    quantize_masses,
    rounding_coupling,
    uniformize,
    wasserstein_pq,
    _transport_lp,
)
from barygap.embed import embed_phi
from barygap.errors import InputError, ResourceCapError
from barygap.fpq import FpqProblem, solve_fpq, solve_fpq_values
from barygap.graph import complete_graph, cycle_graph
from barygap.simplex import solve_lp


def gadget_instance(g, k, p=2.0, q=2.0):
    cfg = embed_phi(g, k)
    measures = [DiscreteMeasure.uniform(group.astype(float)) for group in cfg.points]
    return BaryInstance(measures, p, q)


# ---------------------------------------------------------------------------
# measures


def test_measure_validation():
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))  # dup atoms
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0]]), np.array([0.9]))  # mass != 1
    with pytest.raises(InputError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([1.5, -0.5]))
    m = DiscreteMeasure.uniform([[0.0, 1.0], [1.0, 0.0]])
    assert m.is_uniform() and m.d == 2
    with pytest.raises(InputError, match="atoms must be pairwise distinct"):
        DiscreteMeasure.uniform([[0.0, 1.0], [-0.0, 1.0]])  # -0.0 is 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("build", [
    lambda bad: DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([bad, 1.0])),
    lambda bad: BaryInstance([DiscreteMeasure.dirac([0.0])] * 2, 2, 2, weights=[bad, 1.0]),
    lambda bad: FpqProblem(np.array([[0.0], [1.0], [2.0]]), 2, 1.5, weights=[bad, 1.0, 1.0]),
], ids=["masses", "instance-weights", "hub-weights"])
def test_non_finite_masses_and_weights_are_refused(build, bad):
    # every comparison with nan is false, so a plain "< 0" or "sum != 1"
    # test let a nan mass or weight through
    with pytest.raises(InputError):
        build(bad)


@pytest.mark.parametrize("p, q", [(math.nan, 2), (math.inf, 2), (0.5, 2), (2, math.nan), (2, 0.5)])
def test_instance_needs_finite_p_at_least_one_and_q_at_least_one(p, q):
    m = DiscreteMeasure.uniform([[0.0], [1.0]])
    with pytest.raises(InputError, match="need finite p >= 1"):
        BaryInstance([m, m], p, q)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.data())
def test_atom_distinctness_matches_numpy(m, d, data):
    # few distinct values, so rows collide; -0.0 and 0.0 mix; a measure is
    # refused exactly when numpy finds fewer distinct rows than atoms
    cells = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5]), min_size=m * d, max_size=m * d))
    atoms = np.array(cells).reshape(m, d)
    if len(np.unique(atoms, axis=0)) < m:
        with pytest.raises(InputError, match="atoms must be pairwise distinct"):
            DiscreteMeasure.uniform(atoms)
    else:
        DiscreteMeasure.uniform(atoms)


def test_measure_json_roundtrip():
    m = DiscreteMeasure(np.array([[0.25, -1.0], [0.5, 0.125]]), np.array([0.3, 0.7]))
    back = DiscreteMeasure.from_json(m.to_json())
    assert np.array_equal(back.atoms, m.atoms)
    assert np.array_equal(back.masses, m.masses)


# ---------------------------------------------------------------------------
# wasserstein


def test_wasserstein_examples():
    mu = DiscreteMeasure.dirac([0.0, 0.0])
    nu = DiscreteMeasure.dirac([3.0, 4.0])
    assert abs(wasserstein_pq(mu, nu, 2, 2) - 5.0) < 1e-12
    assert abs(wasserstein_pq(mu, nu, 1, 1) - 7.0) < 1e-12
    assert abs(wasserstein_pq(mu, nu, 2, math.inf) - 4.0) < 1e-12
    m1 = DiscreteMeasure.uniform([[0.0], [2.0]])
    assert abs(wasserstein_pq(m1, DiscreteMeasure.dirac([1.0]), 2, 2) - 1.0) < 1e-12
    assert wasserstein_pq(m1, m1, 2, 2) < 1e-12


def test_wasserstein_dimension_mismatch():
    with pytest.raises(InputError):
        wasserstein_pq(DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([0.0, 1.0]), 2, 2)


def test_metric_properties_on_random_measures():
    rng = np.random.default_rng(12)
    for p in (1, 2):
        for q in (1, 2, math.inf):
            for _ in range(4):
                ms = [DiscreteMeasure.uniform(rng.random((3, 2))) for _ in range(3)]
                a, b, c = ms
                dab = wasserstein_pq(a, b, p, q)
                assert abs(dab - wasserstein_pq(b, a, p, q)) < 1e-8
                assert dab <= wasserstein_pq(a, c, p, q) + wasserstein_pq(c, b, p, q) + 1e-8
                assert wasserstein_pq(a, a, p, q) < 1e-9


def test_ot_plan_marginals():
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(rng.random((4, 2)), np.array([0.1, 0.2, 0.3, 0.4]))
    nu = DiscreteMeasure(rng.random((3, 2)), np.array([0.5, 0.25, 0.25]))
    _, plan = ot_cost(mu, nu, 2, 2)
    assert plan.max_marginal_violation([mu, nu]) < 1e-9



def test_exact_ot_needs_p_q_2_and_integer_atoms():
    # at (1, 2) the value holds square roots, which no Fraction equals
    mu = DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array([[1.0, 1.0], [3.0, 2.0]]), np.array([0.25, 0.75]))
    with pytest.raises(InputError):
        ot_cost(mu, nu, 1, 2, exact=True)
    with pytest.raises(InputError):
        ot_cost(DiscreteMeasure(mu.atoms + 0.5, mu.masses), nu, 2, 2, exact=True)


def test_exact_ot_squares_distances_in_integers():
    # squared distances near 1e16 lie past the integers floats hold exactly
    big = 10**8
    a = [(0, 0), (1, 0)]
    b = [(big + 1, 1), (big + 3, 2)]
    mu = DiscreteMeasure(np.array(a, dtype=float), np.array([0.5, 0.5]))
    nu = DiscreteMeasure(np.array(b, dtype=float), np.array([0.25, 0.75]))
    value, plan = ot_cost(mu, nu, 2, 2, exact=True)
    cost = [[(x0 - y0) ** 2 + (x1 - y1) ** 2 for y0, y1 in b] for x0, x1 in a]
    # the plans are t * [[1, -1], [-1, 1]] + [[0, 1/2], [1/4, 1/4]], t in [0, 1/4]
    ends = [[[t, Fraction(1, 2) - t], [Fraction(1, 4) - t, Fraction(1, 4) + t]] for t in (0, Fraction(1, 4))]
    want = min(sum(p[i][j] * cost[i][j] for i in range(2) for j in range(2)) for p in ends)
    assert value == want and value.denominator <= 4
    assert all(isinstance(v, Fraction) for v in plan.entries.values())


def test_exact_mode_needs_one_rational_mass_total_per_marginal():
    # float masses that sum to 1 within 1e-12 can have rationals that do
    # not, and then A x = b has no solution: refused as input, before HiGHS
    masses = np.random.default_rng(1).dirichlet(np.ones(3))
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), masses)
    nu = DiscreteMeasure(np.array([[0.0], [5.0]]), np.array([0.1, 0.9]))
    total = sum(barygap.bary._rationals(mu.masses))
    assert total != 1
    with mock.patch.object(barygap.bary, "solve_lp", side_effect=AssertionError("no LP")):
        for solve in (
            lambda: ot_cost(mu, nu, 2, 2, exact=True),
            lambda: bary_value_mot(BaryInstance([mu, nu], 2, 2), exact=True),
        ):
            with pytest.raises(InputError, match=f"got {total} and 1$"):
                solve()
    # masses whose rationals sum to one still solve
    dyadic = DiscreteMeasure(mu.atoms, np.array([0.25, 0.25, 0.5]))
    assert ot_cost(dyadic, nu, 2, 2, exact=True)[0] == Fraction(49, 4)
    # two measures at equal weights: the barycenter value is W_2^2 / 4
    assert bary_value_mot(BaryInstance([dyadic, nu], 2, 2), exact=True).value_exact == Fraction(49, 16)


def test_assignment_fast_path_matches_lp():
    # equal-size uniform marginals take the assignment branch at every size;
    # the reference is the transportation LP itself, solved here by HiGHS
    rng = np.random.default_rng(8)
    for n in (3, 20, 70):
        atoms_a, atoms_b = rng.random((n, 2)), rng.random((n, 2))
        mu, nu = DiscreteMeasure.uniform(atoms_a), DiscreteMeasure.uniform(atoms_b)
        value, plan = ot_cost(mu, nu, 2, 2)
        assert len(plan.entries) == n
        assert plan.max_marginal_violation([mu, nu]) < 1e-12
        cost = ((atoms_a[:, None, :] - atoms_b[None, :, :]) ** 2).sum(axis=2)
        A = np.vstack([np.kron(np.eye(n), np.ones(n)), np.kron(np.ones(n), np.eye(n))])
        ref = linprog(cost.ravel(), A_eq=A, b_eq=np.full(2 * n, 1.0 / n), method="highs")
        assert ref.status == 0
        assert abs(value - ref.fun) < 1e-9


def test_near_uniform_masses_take_the_lp():
    # 8e-6 relative off uniform: an assignment here would miss the optimum
    # 2.00002 and break the first marginal by 4e-6
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.500004, 0.499996]))
    nu = DiscreteMeasure.uniform([[0.0], [3.0]])
    assert not mu.is_uniform()
    value, plan = ot_cost(mu, nu, 2, 2)
    A = np.vstack([np.kron(np.eye(2), np.ones(2)), np.kron(np.ones(2), np.eye(2))])
    b = np.concatenate([mu.masses, nu.masses])
    ref = linprog([0.0, 9.0, 1.0, 4.0], A_eq=A, b_eq=b, method="highs")
    assert ref.status == 0
    assert abs(value - ref.fun) <= 1e-12 * ref.fun
    assert plan.max_marginal_violation([mu, nu]) <= 1e-12


def _random_measures(seed, sizes, d):
    rng = np.random.default_rng(seed)
    return [DiscreteMeasure(rng.random((m, d)), rng.dirichlet(np.ones(m))) for m in sizes]


def _moved(measures, rng, c=1.0):
    """The measures in another order, atoms and coordinates permuted, scaled by c."""
    cols = rng.permutation(measures[0].d)
    out = []
    for i in rng.permutation(len(measures)):
        perm = rng.permutation(measures[i].size)
        out.append(DiscreteMeasure(c * measures[i].atoms[perm][:, cols], measures[i].masses[perm]))
    return out


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    d=st.integers(1, 3),
    c=st.floats(0.25, 4.0),
)
def test_ot_cost_metamorphic_22(seed, sizes, d, c):
    ms = _random_measures(seed, sizes, d)
    base, _ = ot_cost(ms[0], ms[1], 2, 2)
    rng = np.random.default_rng(seed + 1)
    a, b = _moved(ms, rng)
    assert abs(ot_cost(a, b, 2, 2)[0] - base) <= 1e-9
    a, b = _moved(ms, rng, c)
    assert abs(ot_cost(a, b, 2, 2)[0] - c * c * base) <= 1e-9 * max(1.0, c * c)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4),
    d=st.integers(1, 3),
    c=st.floats(0.25, 4.0),
)
def test_mot_value_metamorphic_22(seed, sizes, d, c):
    ms = _random_measures(seed, sizes, d)
    base = bary_value_mot(BaryInstance(ms, 2, 2)).value
    rng = np.random.default_rng(seed + 1)
    moved = bary_value_mot(BaryInstance(_moved(ms, rng), 2, 2)).value
    assert abs(moved - base) <= 1e-9
    scaled = bary_value_mot(BaryInstance(_moved(ms, rng, c), 2, 2)).value
    assert abs(scaled - c * c * base) <= 1e-9 * max(1.0, c * c)


def test_mot_value_survives_a_large_common_offset():
    # the p=q=2 value is translation invariant; an offset of 1e6 shared by
    # every atom must not cancel away a spread of 1e-2
    rng = np.random.default_rng(0)
    ms = [DiscreteMeasure(rng.random((3, 2)) * 1e-2, rng.dirichlet(np.ones(3))) for _ in range(3)]
    base = bary_value_mot(BaryInstance(ms, 2, 2)).value
    far = [DiscreteMeasure(m.atoms + 1e6, m.masses) for m in ms]
    assert abs(bary_value_mot(BaryInstance(far, 2, 2)).value - base) <= 1e-6 * base


# ---------------------------------------------------------------------------
# MOT


def test_mot_single_atom_forced_plan():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    inst = BaryInstance([DiscreteMeasure.dirac(x) for x in pts], 2, 2)
    res = bary_value_mot(inst)
    hub = solve_fpq(FpqProblem(pts, 2, 2))
    assert abs(res.value - hub.value / 3) < 1e-10
    assert list(res.plan.entries) == [(0, 0, 0)]


def test_mot_k2_hand_example():
    inst = BaryInstance([DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([2.0])], 2, 2)
    res = bary_value_mot(inst)
    assert abs(res.value - 1.0) < 1e-12
    nu = extract_barycenter(res.plan, inst)
    assert nu.size == 1 and abs(nu.atoms[0, 0] - 1.0) < 1e-12


def test_mot_identical_measures():
    m = DiscreteMeasure.uniform([[0.0, 0.0], [1.0, 1.0]])
    inst = BaryInstance([m, m], 2, 2)
    res = bary_value_mot(inst)
    assert abs(res.value) < 1e-12
    nu = extract_barycenter(res.plan, inst)
    assert abs(barycenter_objective(inst, nu)) < 1e-10


def test_mot_gadget_value_exact():
    inst = gadget_instance(complete_graph(4), 3)
    res = bary_value_mot(inst, exact=True)
    assert res.value_exact == Fraction(10, 3)
    assert res.plan.max_marginal_violation(inst.measures) < 1e-12


def test_mot_cap():
    rng = np.random.default_rng(0)
    ms = [DiscreteMeasure.uniform(rng.random((10, 1))) for _ in range(3)]
    with pytest.raises(ResourceCapError):
        bary_value_mot(BaryInstance(ms, 2, 2), cap=100)


def test_mot_grid_consistency_2d():
    # a fine candidate grid cannot beat the LP value (d <= 2 check)
    rng = np.random.default_rng(5)
    ms = [DiscreteMeasure.uniform(rng.random((2, 2))) for _ in range(3)]
    inst = BaryInstance(ms, 2, 2)
    res = bary_value_mot(inst)
    grid = np.linspace(0, 1, 21)
    best = math.inf
    for gx in grid:
        for gy in grid:
            nu = DiscreteMeasure.dirac([gx, gy])
            best = min(best, barycenter_objective(inst, nu))
    assert res.value <= best + 1e-9


def test_extract_barycenter_achieves_value():
    rng = np.random.default_rng(21)
    for _ in range(3):
        ms = [DiscreteMeasure.uniform(rng.random((3, 2))) for _ in range(3)]
        inst = BaryInstance(ms, 2, 2)
        res = bary_value_mot(inst, tol=1e-8)
        nu = extract_barycenter(res.plan, inst)
        obj = barycenter_objective(inst, nu)
        assert obj <= res.value + 3e-8
        assert nu.size <= len(res.plan.entries)


# ---------------------------------------------------------------------------
# symmetric transport LPs on axis-permutation orbits


@contextlib.contextmanager
def lp_shapes():
    """Records the shape of every constraint matrix bary hands to solve_lp."""
    shapes = []

    def spy(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return solve_lp(A, *args, **kwargs)

    with mock.patch.object(barygap.bary, "solve_lp", spy):
        yield shapes


def symmetrized(tensor):
    """Sum of the axis-permuted copies of ``tensor``, exactly symmetric: each
    entry adds the same values in the same (sorted) order."""
    copies = [np.transpose(tensor, perm) for perm in permutations(range(tensor.ndim))]
    return np.sort(np.stack(copies), axis=0).sum(axis=0)


def full_marginal_matrix(n, k):
    total = n**k
    A = np.zeros((k * n, total))
    for i, ix in enumerate(np.unravel_index(np.arange(total), (n,) * k)):
        A[i * n + ix, np.arange(total)] = 1.0
    return A


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 4),
    n=st.integers(1, 5),
    uniform=st.booleans(),
)
def test_orbit_lp_matches_the_full_lp(seed, k, n, uniform):
    rng = np.random.default_rng(seed)
    masses = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
    mu = DiscreteMeasure(np.arange(n, dtype=float)[:, None], masses)
    shape = (n,) * k
    costs = symmetrized(rng.random(shape)).ravel()
    with lp_shapes() as shapes:
        value, plan = _transport_lp([mu.masses] * k, costs)
    # two uniform marginals are an assignment; every other case is the orbit LP
    assert shapes == ([] if k == 2 and mu.is_uniform() else [(n, math.comb(n + k - 1, k))])
    ref = linprog(costs, A_eq=full_marginal_matrix(n, k), b_eq=np.tile(mu.masses, k), method="highs")
    assert ref.status == 0
    assert abs(value - ref.fun) <= 1e-9 * abs(ref.fun)
    assert plan.max_marginal_violation([mu] * k) <= 1e-12
    plan_cost = sum(w * costs[np.ravel_multi_index(t, shape)] for t, w in plan.entries.items())
    assert math.isclose(plan_cost, value, rel_tol=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_copies_of_one_float_measure_take_the_orbit_lp_at_p2_q2(seed):
    # the Gram costs of permuted tuples round differently; each tuple takes
    # its sorted tuple's cost, so the tensor is exactly symmetric.  The value
    # is 0 up to rounding (the diagonal plan), so it is compared at the scale
    # of the costs
    rng = np.random.default_rng(seed)
    mu = DiscreteMeasure(rng.random((4, 3)), rng.dirichlet(np.ones(4)))
    with lp_shapes() as shapes:
        res = bary_value_mot(BaryInstance([mu] * 3, 2, 2))
    assert shapes == [(4, math.comb(6, 3))]
    costs, _ = barygap.chub.tuple_costs([mu.atoms] * 3, 2, 2, None, 1e-6)
    ref = linprog(costs, A_eq=full_marginal_matrix(4, 3), b_eq=np.tile(mu.masses, 3))
    assert ref.status == 0
    assert abs(res.value - ref.fun) <= 1e-12 * costs.max()
    assert res.plan.max_marginal_violation([mu] * 3) <= 1e-12


@pytest.mark.parametrize(
    "graph, k, want",
    [
        (complete_graph(4), 3, Fraction(10, 3)),
        (complete_graph(5), 3, Fraction(14, 3)),
        (cycle_graph(5), 3, Fraction(20, 9)),
        (cycle_graph(6), 3, Fraction(20, 9)),
        (cycle_graph(4), 4, Fraction(4)),
    ],
)
def test_orbit_lp_exact_gadget_values_and_plans(graph, k, want):
    inst = gadget_instance(graph, k)
    n = inst.measures[0].size
    with lp_shapes() as shapes:
        res = bary_value_mot(inst, exact=True)
    assert shapes == [(n, math.comb(n + k - 1, k))]
    assert res.value_exact == want
    # p=q=2 with uniform weights: sum_{i<j} |x_i - x_j|^2 / k^2, in integers
    atoms = [[[int(v) for v in row] for row in m.atoms] for m in inst.measures]
    total = Fraction(0)
    sums = [[Fraction(0)] * n for _ in range(k)]
    for t, w in res.plan.entries.items():
        assert isinstance(w, Fraction)
        pts = [atoms[i][t[i]] for i in range(k)]
        cost = sum(sum((a - b) ** 2 for a, b in zip(x, y)) for x, y in combinations(pts, 2))
        total += w * Fraction(cost, k * k)
        for i in range(k):
            sums[i][t[i]] += w
    assert sums == [[Fraction(1, n)] * n for _ in range(k)]
    assert total == res.value_exact


def test_asymmetric_lps_take_the_full_lp():
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure.uniform(np.arange(3, dtype=float)[:, None])
    nu = DiscreteMeasure(mu.atoms, np.array([0.5, 0.25, 0.25]))
    small = DiscreteMeasure.uniform(np.arange(2, dtype=float)[:, None])
    sym = symmetrized(rng.random((3, 3, 3)))
    skewed = sym.copy()
    skewed[0, 1, 2] = np.nextafter(skewed[0, 1, 2], np.inf)
    with lp_shapes() as shapes:
        _transport_lp([mu.masses] * 3, sym.ravel())
    assert shapes == [(3, 10)]
    cases = [
        ([mu] * 3, skewed.ravel()),  # one ulp off symmetric
        ([mu, mu, nu], sym.ravel()),  # unequal mass vectors
        ([mu, mu, small], rng.random(18)),  # unequal sizes
    ]
    for measures, costs in cases:
        with lp_shapes() as shapes:
            _transport_lp([m.masses for m in measures], costs)
        sizes = [m.size for m in measures]
        assert shapes == [(sum(sizes), math.prod(sizes))]


def test_extract_barycenter_from_a_symmetrized_plan():
    # the C6 gadget's three groups differ, but its (1, 2) cost tensor is symmetric
    inst = gadget_instance(cycle_graph(6), 3, p=1.0, q=2.0)
    with lp_shapes() as shapes:
        res = bary_value_mot(inst, tol=1e-8)
    assert shapes == [(6, 56)]
    assert res.value > 1
    nu = extract_barycenter(res.plan, inst)
    assert abs(barycenter_objective(inst, nu) - res.value) <= res.tolerance + 1e-8


def test_nonuniform_weights():
    inst = BaryInstance(
        [DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([2.0])],
        2, 2, weights=np.array([0.75, 0.25]),
    )
    res = bary_value_mot(inst)
    # min_y .75 y^2 + .25 (2-y)^2 at y=1/2: .1875 + .5625 = .75
    assert abs(res.value - 0.75) < 1e-12


# ---------------------------------------------------------------------------
# borgwardt


def test_borgwardt_identical_is_optimal():
    m = DiscreteMeasure.uniform([[0.0], [1.0]])
    res = borgwardt_2approx(BaryInstance([m, m], 2, 2))
    assert abs(res["value"]) < 1e-12


def test_borgwardt_tight_factor_two():
    inst = BaryInstance([DiscreteMeasure.dirac([0.0]), DiscreteMeasure.dirac([2.0])], 2, 2)
    res = borgwardt_2approx(inst)
    assert abs(res["value"] - 2.0) < 1e-12
    opt = bary_value_mot(inst).value
    assert abs(res["value"] / opt - 2.0) < 1e-9


def test_borgwardt_ratio_in_range():
    rng = np.random.default_rng(17)
    for _ in range(5):
        ms = [DiscreteMeasure.uniform(rng.random((3, 2))) for _ in range(3)]
        inst = BaryInstance(ms, 2, 2)
        opt = bary_value_mot(inst).value
        bw = borgwardt_2approx(inst)["value"]
        assert opt - 1e-9 <= bw <= 2 * opt + 1e-9


# ---------------------------------------------------------------------------
# uniformize


def test_quantize_masses_example():
    assert list(quantize_masses([0.3, 0.7], 10)) == [3, 7]
    assert list(quantize_masses([0.26, 0.26, 0.48], 10)) == [3, 2, 5]
    assert sum(quantize_masses(np.full(7, 1 / 7), 100)) == 100


def test_rounding_coupling_bound():
    # W^p(mu, mu~) <= moved_mass * diam^p via the explicit coupling; the
    # linear form W <= 2n/N is additionally valid at p = 1
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0):
        atoms = rng.uniform(-0.5, 0.5, size=(3, 2))
        masses = rng.dirichlet(np.ones(3))
        mu = DiscreteMeasure(atoms, masses)
        N = 40
        counts = quantize_masses(mu.masses, N)
        entries, moved = rounding_coupling(mu, counts, N)
        mu_t = DiscreteMeasure(atoms, counts / N)
        w = wasserstein_pq(mu, mu_t, p, 2)
        diam = max(
            np.linalg.norm(atoms[i] - atoms[j])
            for i in range(3)
            for j in range(3)
        )
        assert w**p <= moved * diam**p + 1e-12
        assert moved <= 3 / N + 1e-12
        if p == 1:
            assert w <= 2 * 3 / N + 1e-12


def test_uniformize_structure_and_preservation():
    rng = np.random.default_rng(31)
    ms = [
        DiscreteMeasure(rng.uniform(-0.5, 0.5, size=(2, 2)), rng.dirichlet(np.ones(2)))
        for _ in range(2)
    ]
    inst = BaryInstance(ms, 2, 2)
    out = uniformize(inst, 0.1)
    N = out.measures[0].size
    assert N == math.ceil(4 * 2 * 2 * 4 / 0.1)
    for m in out.measures:
        assert m.size == N and m.is_uniform()
        assert (np.linalg.norm(m.atoms, axis=1) <= 1 + 1e-12).all()
    v0 = bary_value_mot(inst).value
    v1 = bary_value_mot(out, cap=2 * 10**6).value
    assert abs(v0 - v1) <= 0.1


def test_uniformize_already_uniform_stays_close():
    atoms = np.array([[0.2, 0.0], [-0.2, 0.1], [0.0, -0.3], [0.3, 0.3]])
    m = DiscreteMeasure.uniform(atoms)
    inst = BaryInstance([m, m], 2, 2)
    out = uniformize(inst, 0.4, c=1.0)
    N = out.measures[0].size
    assert N == math.ceil(1 * 4 * 2 * 4 / 0.4)
    r = 0.4 / (2 * 2 * 4)
    for newm in out.measures:
        # every new atom is within the split radius of some original atom
        d = np.abs(newm.atoms[:, None, :] - atoms[None, :, :]).sum(axis=2).min(axis=1)
        assert (d <= 2 * r + 1e-12).all()


def test_uniformize_guards():
    m = DiscreteMeasure.dirac([2.0, 0.0])  # outside unit ball
    with pytest.raises(InputError):
        uniformize(BaryInstance([m, m], 2, 2), 0.1)
    inside = DiscreteMeasure.dirac([0.5, 0.0])
    with pytest.raises(InputError):
        uniformize(BaryInstance([inside, inside], 2, 2), -1.0)
    with pytest.raises(ResourceCapError) as exc:
        uniformize(BaryInstance([inside, inside], 2, 2), 1e-9)
    assert exc.value.required is not None


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0])
def test_uniformize_refuses_an_eps_outside_zero_to_inf(eps):
    inside = DiscreteMeasure.dirac([0.5, 0.0])
    with pytest.raises(InputError, match="eps"):
        uniformize(BaryInstance([inside, inside], 2, 2), eps)


def test_uniformize_rejects_colliding_split_atoms():
    # N = 3 atoms of mass 1/3 at split radius r = 1/3: the atom at 0 moves to
    # r, and the first of the two split from r/2 lands on r as well
    r = 1 / 3
    mu = DiscreteMeasure(np.array([[0.0], [r / 2]]), np.array([1 / 3, 2 / 3]))
    with pytest.raises(InputError, match="split atoms collide"):
        uniformize(BaryInstance([mu, mu], 1, 2), 4 / 3, c=1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mot_tolerance_covers_hub_solves(seed, monkeypatch):
    # every hub solve meets the tol/2 it is asked for; a hub tolerance
    # inflated past tol must still show in the reported tolerance
    inner, reported = [], []

    def recording(probs, tol):
        values, lower = solve_fpq_values(probs, tol=tol)
        inner.extend((values - lower).tolist())
        lower = lower - 1e-2
        reported.extend((values - lower).tolist())
        return values, lower

    monkeypatch.setattr(barygap.chub, "solve_fpq_values", recording)
    rng = np.random.default_rng(seed)
    ms = [DiscreteMeasure(rng.random((4, 3)), rng.dirichlet(np.ones(4))) for _ in range(3)]
    res = bary_value_mot(BaryInstance(ms, 2, 1), tol=1e-6)
    assert len(inner) == 64 and max(inner) <= 1e-6 / 2
    assert res.tolerance >= max(reported) > 1e-2
