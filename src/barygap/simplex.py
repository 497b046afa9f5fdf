"""LP entry point: HiGHS solves every LP; exact mode certifies its vertex.

Every LP goes to HiGHS (``scipy.optimize.linprog(method="highs")``) on a
dense or scipy-sparse matrix, with presolve off.  The library's LPs are
transport LPs (the union-support LP adds a -1 per support weight): marginal
rows, one of them dependent per extra marginal, and columns of a few ones.
Presolve removes next to nothing from them and costs more than the dual
simplex run itself: on a (25, 25, 25) MOT LP it drops 2 of 75 rows, and
HiGHS reports 0.11 s with it against 0.03 s without.  Median ``linprog``
time per LP, presolve on -> off, 2-core host: 9.6 -> 5.6 ms at MOT shape
(6, 6, 6, 6), 88 -> 41 ms at (11, 11, 11, 11), 96 -> 42 ms at (25, 25, 25),
313 -> 184 ms for OT at 200 x 200; values agree to 3e-16.

Exact mode then proves that vertex optimal in rationals (Applegate, Cook,
Dash and Espinoza, *Exact solutions to linear programming problems*, 2007):
it picks a basis of ``[A | I]`` that agrees with HiGHS's primal and dual
solutions, solves it for x and y in ``Fraction``s, and checks x >= 0,
A x = b, c - A^T y >= 0 and c x = b y, raising SolverError rather than
returning an unproven vertex.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InputError, SolverError

_ZERO = 1e-9  # HiGHS values this close to zero mark basis candidates


def solve_lp(A, b, c, exact=False):
    """Minimize c @ x subject to A x = b, x >= 0.

    Returns (value, x).  Raises InputError when infeasible and SolverError
    when unbounded or when HiGHS fails.  ``A`` may be dense or scipy-sparse.
    With ``exact=True`` b and c are read as exact rationals (Fractions as
    they are, floats at their binary value), A's entries at their float
    value (exact for integers), and the result is a certified optimal
    Fraction value with an object array of Fractions; SolverError is raised
    when the certificate does not hold.  HiGHS runs once, with presolve off
    (module docstring): the simplex handles the dependent marginal rows.
    """
    m, n = np.shape(A)
    if np.shape(b) != (m,) or np.shape(c) != (n,):
        raise InputError(f"shape mismatch: A {np.shape(A)}, b {np.shape(b)}, c {np.shape(c)}")
    A = A if sparse.issparse(A) else np.asarray(A, dtype=float)
    res = linprog(
        np.asarray(c, dtype=float), A_eq=A, b_eq=np.asarray(b, dtype=float),
        bounds=(0, None), method="highs", options={"presolve": False},
    )
    if res.status == 2:
        raise InputError(f"LP infeasible: {res.message}")
    if res.status != 0:
        raise SolverError(f"HiGHS failed: {res.message}")
    if not exact:
        return float(res.fun), res.x
    return _certify(sparse.csc_array(A), [Fraction(v) for v in b], [Fraction(v) for v in c], res)


def _certify(A, b, c, res):
    """Exact optimal vertex from HiGHS's solution ``res``, or SolverError."""
    m, n = A.shape
    zero = Fraction(0)
    spans = list(zip(A.indptr[:-1], A.indptr[1:]))
    data = [Fraction(a) for a in A.data]
    cost = c + [zero] * m  # over the columns of [A | I]

    def column(j):  # column j of [A | I], exact
        out = [zero] * m
        if j >= n:
            out[j - n] = Fraction(1)
            return out
        lo, hi = spans[j]
        for i, a in zip(A.indices[lo:hi], data[lo:hi]):
            out[i] = a
        return out

    # A basis of [A | I], greedily: the support of x, the columns HiGHS
    # prices at zero, then the row slacks, zero duals first (HiGHS keeps
    # slacks basic on degenerate LPs; the rest only complete the basis, and
    # the checks below reject a wrong one).  A basic slack pins its row's
    # dual to 0 and, for A x = b to hold, its own value to 0.
    reduced = np.abs(res.lower.marginals)
    priced = np.flatnonzero((reduced <= _ZERO) & (res.x <= _ZERO))
    candidates = np.concatenate([
        np.flatnonzero(res.x > _ZERO),
        priced[np.argsort(reduced[priced], kind="stable")],
        n + np.argsort(np.abs(res.eqlin.marginals), kind="stable"),
    ])
    basis, pivots = [], []
    for j in candidates:
        v = column(j)
        for row, piv in pivots:
            f = v[row]
            if f:
                v = [a - f * t if t else a for a, t in zip(v, piv)]
        row = next((i for i, a in enumerate(v) if a), None)
        if row is not None:
            inv = 1 / v[row]
            pivots.append((row, [a * inv if a else a for a in v]))
            basis.append(int(j))
            if len(basis) == m:
                break

    B = [column(j) for j in basis]  # the rows of B^T
    z = _solve([list(r) for r in zip(*B)], b)
    y = _solve(B, [cost[j] for j in basis])
    x = np.full(n + m, zero, dtype=object)
    x[basis] = z
    if any(x[n:]) or any(zj < 0 for zj in z):
        raise SolverError("HiGHS vertex failed the exact primal check")
    for j, (lo, hi) in enumerate(spans):
        if c[j] < sum((a * y[i] for i, a in zip(A.indices[lo:hi], data[lo:hi])), zero):
            raise SolverError(f"HiGHS vertex failed the exact dual check at column {j}")
    value = sum((cost[j] * zj for j, zj in zip(basis, z)), zero)
    if value != sum((bi * yi for bi, yi in zip(b, y)), zero):
        raise SolverError("HiGHS vertex failed the exact duality check")
    return value, x[:n]


def _solve(M, rhs):
    """Solve M z = rhs exactly by Gauss-Jordan (M square, as a list of rows)."""
    rows = [r + [v] for r, v in zip(M, rhs)]
    for col in range(len(rows)):
        p = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if p is None:
            raise SolverError("singular basis in the exact certificate")
        rows[col], rows[p] = rows[p], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = piv = [a * inv if a else a for a in rows[col]]
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != col:
                rows[r] = [a - f * t if t else a for a, t in zip(row, piv)]
    return [row[-1] for row in rows]
