"""LP entry point: HiGHS for floats, a dense two-phase tableau for rationals.

Float LPs go to HiGHS (``scipy.optimize.linprog(method="highs")``), which
takes dense or scipy-sparse constraint matrices.  The tableau runs only in
exact mode: every entry is a ``Fraction`` and every comparison is against
literal zero, so results are exact rationals.  Pivoting uses Dantzig's rule
with an automatic switch to Bland's rule after a run of degenerate pivots,
which guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from .errors import InputError, SolverError

_DEGENERATE_LIMIT = 30
_MAX_ITERS = 200000


def _to_fraction_array(a):
    out = np.empty(np.shape(a), dtype=object)
    flat_in = np.asarray(a, dtype=object).ravel()
    flat = out.ravel()
    for i, v in enumerate(flat_in):
        flat[i] = v if isinstance(v, Fraction) else Fraction(v)
    return out


def solve_lp(A, b, c, exact=False):
    """Minimize c @ x subject to A x = b, x >= 0.

    Returns (value, x).  Raises InputError when infeasible and SolverError
    when unbounded or out of iterations.  Floats are solved by HiGHS; with
    ``exact=True`` all data is converted to Fractions and the solve is exact
    (``A`` must then be dense).
    """
    m, n = np.shape(A)
    if np.shape(b) != (m,) or np.shape(c) != (n,):
        raise InputError(f"shape mismatch: A {np.shape(A)}, b {np.shape(b)}, c {np.shape(c)}")
    if not exact:
        res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        if res.status == 2:
            raise InputError(f"LP infeasible: {res.message}")
        if res.status != 0:
            raise SolverError(f"HiGHS failed: {res.message}")
        return float(res.fun), res.x

    A = _to_fraction_array(A)
    b = _to_fraction_array(b)
    c = _to_fraction_array(c)
    zero = Fraction(0)
    neg = b < zero
    if neg.any():
        A[neg] = -A[neg]
        b[neg] = -b[neg]

    # Phase 1 tableau: [A | I | b], basis = artificials.
    T = np.empty((m, n + m + 1), dtype=object)
    T[:, :n] = A
    T[:, n : n + m] = _to_fraction_array(np.eye(m))
    T[:, -1] = b
    phase1_cost = np.array([zero] * n + [Fraction(1)] * m, dtype=object)
    basis = list(range(n, n + m))
    _run_simplex(T, basis, phase1_cost, allow=n + m)
    if any(T[i, -1] != 0 for i in range(m) if basis[i] >= n):
        raise InputError("LP infeasible")

    # Drive leftover artificials out of the basis; drop redundant rows.
    keep_rows = []
    for i in range(m):
        if basis[i] < n:
            keep_rows.append(i)
            continue
        pivot_col = next((j for j in range(n) if T[i, j] != 0), None)
        if pivot_col is None:
            continue  # redundant constraint
        _pivot(T, i, pivot_col)
        basis[i] = pivot_col
        keep_rows.append(i)
    basis = [basis[i] for i in keep_rows]

    # Phase 2 on the original columns only.
    T2 = T[keep_rows][:, list(range(n)) + [n + m]]
    _run_simplex(T2, basis, c, allow=n)

    x = np.array([zero] * n, dtype=object)
    for i, bi in enumerate(basis):
        x[bi] = T2[i, -1]
    return sum(c * x, zero), x


def _pivot(T, row, col):
    T[row] = T[row] / T[row, col]
    for i in range(T.shape[0]):
        if i != row and T[i, col] != 0:
            T[i] = T[i] - T[i, col] * T[row]


def _run_simplex(T, basis, cost, allow):
    """Minimize cost over the tableau in place; columns >= allow are barred."""
    m = T.shape[0]
    cb = np.array([cost[b] for b in basis], dtype=object)
    red = cost[:allow] - cb @ T[:, :allow]  # reduced costs, updated by each pivot
    degenerate_run = 0
    for _ in range(_MAX_ITERS):
        improving = [j for j in range(allow) if red[j] < 0]
        if not improving:
            return
        if degenerate_run >= _DEGENERATE_LIMIT:
            j = improving[0]  # Bland: least index
        else:
            j = min(improving, key=lambda jj: (red[jj], jj))
        rows = [i for i in range(m) if T[i, j] > 0]
        if not rows:
            raise SolverError("LP unbounded")
        ratio, _, leave = min((T[i, -1] / T[i, j], basis[i], i) for i in rows)
        degenerate_run = degenerate_run + 1 if ratio == 0 else 0
        _pivot(T, leave, j)
        red = red - red[j] * T[leave, :allow]
        basis[leave] = j
    raise SolverError("simplex iteration limit reached")
