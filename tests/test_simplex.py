from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

import barygap.simplex
from barygap.bary import _marginal_matrix
from barygap.errors import InputError, SolverError
from barygap.simplex import solve_lp


def test_agrees_with_scipy_on_random_lps():
    rng = np.random.default_rng(42)
    solved = 0
    for _ in range(60):
        m, n = int(rng.integers(2, 7)), int(rng.integers(3, 12))
        A = rng.integers(-3, 4, size=(m, n)).astype(float)
        x0 = rng.random(n) * (rng.random(n) < 0.6)
        b = A @ x0
        c = rng.integers(-5, 6, size=n).astype(float)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        try:
            val, x = solve_lp(A, b, c)
        except SolverError:
            assert ref.status == 3  # unbounded
            continue
        assert ref.status == 0
        assert abs(val - ref.fun) < 1e-7 * max(1.0, abs(ref.fun))
        assert np.abs(A @ x - b).max() < 1e-7
        assert (x >= -1e-9).all()
        solved += 1
    assert solved >= 20


def test_exact_rational_transportation():
    A = np.array(
        [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=float
    )
    b = np.array(
        [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 2)], dtype=object
    )
    c = np.array([0, 1, 1, 0], dtype=object)
    val, x = solve_lp(A, b, c, exact=True)
    assert val == Fraction(1, 6)
    assert sum(x) == 1


def test_infeasible_raises_input_error():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    with pytest.raises(InputError):
        solve_lp(A, b, np.zeros(2))


def test_unbounded_raises_solver_error():
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    with pytest.raises(SolverError):
        solve_lp(A, b, np.array([-1.0, 0.0]))


def test_redundant_rows_are_tolerated():
    A = np.array([[1.0, 1.0], [2.0, 2.0]])
    b = np.array([1.0, 2.0])
    val, x = solve_lp(A, b, np.array([1.0, 3.0]))
    assert abs(val - 1.0) < 1e-12


def test_degenerate_problem_terminates():
    A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([-1.0, -2.0, 0.0, 0.0])
    val, x = solve_lp(A, b, c)
    assert abs(val - (-2.0)) < 1e-9


def test_exact_edge_cases():
    # exact mode on the edge cases: infeasible, unbounded, redundant, degenerate
    with pytest.raises(InputError):
        solve_lp(np.array([[1, 1], [1, 1]]), [Fraction(1), Fraction(2)], [0, 0], exact=True)
    with pytest.raises(SolverError):
        solve_lp(np.array([[1, -1]]), [Fraction(0)], [-1, 0], exact=True)
    val, x = solve_lp(np.array([[1, 1], [2, 2]]), [Fraction(1), Fraction(2)], [1, 3], exact=True)
    assert val == 1 and list(x) == [1, 0]
    A = np.array([[1, 1, 1, 0], [1, 0, 0, 1]])
    val, _ = solve_lp(A, [Fraction(1), Fraction(1)], [-1, -2, 0, 0], exact=True)
    assert val == -2
    rng = np.random.default_rng(7)
    for _ in range(10):
        m, n = int(rng.integers(2, 5)), int(rng.integers(3, 8))
        A = rng.integers(-3, 4, size=(m, n))
        b = A @ rng.integers(0, 3, size=n)
        c = rng.integers(0, 6, size=n)
        val, x = solve_lp(A, b, c, exact=True)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        assert abs(float(val) - ref.fun) < 1e-9
        assert all(isinstance(v, Fraction) and v >= 0 for v in x)
        assert (A @ x == b).all()


def _fake_vertex(monkeypatch, x):
    # HiGHS's own result for the LP, with its primal point replaced by x
    def fake(*args, **kwargs):
        res = linprog(*args, **kwargs)
        res.x = np.asarray(x, dtype=float)
        return res

    monkeypatch.setattr(barygap.simplex, "linprog", fake)


def test_certificate_rejects_a_wrong_vertex(monkeypatch):
    # 2x2 transportation: the optimum is x = (1/3, 0, 1/6, 1/2) at value 1/6
    A = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]])
    b = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 2)]
    c = [0, 1, 1, 0]
    assert solve_lp(A, b, c, exact=True)[0] == Fraction(1, 6)
    # a feasible vertex of value 5/6: its dual prices column 0 below zero
    _fake_vertex(monkeypatch, [0, 1 / 3, 1 / 2, 1 / 6])
    with pytest.raises(SolverError):
        solve_lp(A, b, c, exact=True)
    # the optimum with x[1] nudged to 0.1, off A x = b: its support admits
    # no nonnegative solution of A x = b
    _fake_vertex(monkeypatch, [1 / 3, 0.1, 1 / 6, 1 / 2])
    with pytest.raises(SolverError):
        solve_lp(A, b, c, exact=True)


def _degenerate_lps(count, seed):
    # integer entries in [-3, 3], a doubled redundant row every third LP,
    # b from a sparse integer point (primal degeneracy), costs in [0, 3]
    # with many ties (dual degeneracy)
    rng = np.random.default_rng(seed)
    for t in range(count):
        m, n = int(rng.integers(2, 7)), int(rng.integers(3, 11))
        A = rng.integers(-3, 4, size=(m, n))
        if t % 3 == 0:
            A = np.vstack([A, 2 * A[0]])
        b = A @ (rng.integers(0, 3, size=n) * (rng.random(n) < 0.4))
        yield A, [Fraction(int(v)) for v in b], [int(v) for v in rng.integers(0, 4, size=n)]


def _tied_transport_lps(count, seed):
    # k-marginal transportation on the sparse marginal matrix, with rational
    # marginals and small integer costs full of ties
    rng = np.random.default_rng(seed)
    for _ in range(count):
        shape = tuple(int(s) for s in rng.integers(2, 5, size=int(rng.integers(2, 4))))
        b = []
        for s in shape:
            parts = rng.integers(1, 4, size=s)
            b += [Fraction(int(v), int(parts.sum())) for v in parts]
        c = [int(v) for v in rng.integers(0, 3, size=int(np.prod(shape)))]
        yield _marginal_matrix(shape), b, c


def test_exact_lp_certified_on_degenerate_and_transport_lps():
    lps = list(_degenerate_lps(300, 11)) + list(_tied_transport_lps(60, 12))
    for A, b, c in lps:
        dense = A.toarray().astype(int) if hasattr(A, "toarray") else A
        val, x = solve_lp(A, b, c, exact=True)
        ref = linprog(c, A_eq=A, b_eq=[float(v) for v in b], bounds=(0, None), method="highs")
        assert all(isinstance(v, Fraction) and v >= 0 for v in x)
        assert list(dense @ x) == b
        assert val == sum(ci * xi for ci, xi in zip(c, x))
        assert abs(float(val) - ref.fun) <= 1e-9


def _float_transport_lps(count, seed):
    # k-marginal transportation on the sparse marginal matrix, shapes (n,)*k:
    # uniform or Dirichlet masses, squared-distance costs from random points
    # or integer costs in [0, 3] full of ties; the last LP has equal costs
    rng = np.random.default_rng(seed)
    for t in range(count):
        k = 2 + t % 3
        n = int(rng.integers(2, 7 if k == 4 else 9))
        shape = (n,) * k
        if t % 2:
            b = np.concatenate([rng.dirichlet(np.ones(n)) for _ in range(k)])
        else:
            b = np.full(k * n, 1.0 / n)
        if t == count - 1:
            c = np.ones(n**k)
        elif (t // 6) % 2:
            c = rng.integers(0, 4, size=n**k).astype(float)
        else:
            pts = [rng.random((n, 2)) for _ in range(k)]
            c = np.zeros(shape)
            for i in range(k):
                for j in range(i + 1, k):
                    index = [None] * k
                    index[i] = index[j] = slice(None)
                    c = c + ((pts[i][:, None] - pts[j][None]) ** 2).sum(-1)[tuple(index)]
            c = c.ravel()
        yield _marginal_matrix(shape), b, c


def test_float_transport_lps_match_highs_with_presolve():
    lps = list(_float_transport_lps(40, 13))
    assert {A.shape[1] for A, _, _ in lps} >= {2**2, 8**2, 8**3, 6**4}
    for A, b, c in lps:
        val, x = solve_lp(A, b, c)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                      options={"presolve": True})
        assert ref.status == 0
        assert abs(val - ref.fun) <= 1e-9 * max(1.0, abs(ref.fun))
        assert np.abs(A @ x - b).max() <= 1e-9
        assert (x >= -1e-12).all()


def test_highs_runs_without_presolve(monkeypatch):
    options = []

    def spy(*args, **kwargs):
        options.append(kwargs.get("options"))
        return linprog(*args, **kwargs)

    monkeypatch.setattr(barygap.simplex, "linprog", spy)
    A = _marginal_matrix((2, 2))
    b = [Fraction(1, 3), Fraction(2, 3), Fraction(1, 2), Fraction(1, 2)]
    c = [0, 1, 1, 0]
    assert abs(solve_lp(A, [float(v) for v in b], c)[0] - 1 / 6) < 1e-12
    assert solve_lp(A, b, c, exact=True)[0] == Fraction(1, 6)
    assert options == [{"presolve": False}] * 2
