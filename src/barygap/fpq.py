"""Evaluator for the inner hub objective min_y sum_i w_i ||z_i - y||_q^p.

The objective is convex for every p >= 1, q in [1, inf].  There is no single
algorithm that is simultaneously exact, certified and fast across the whole
(p, q) square, so the solver dispatches:

* p = q = 2            -- closed form (weighted mean).
* q = 1,  p = 1        -- exact per-coordinate weighted median.
* q = inf, p = 1       -- one exact LP (epigraph form).
* q in {1, inf}, p > 1 -- pairwise Frank-Wolfe from the weighted mean over the
                          achievable-distance polytope; the linear oracle is a
                          per-coordinate weighted median (q = 1) or one LP
                          (q = inf), and every oracle call carries a Fenchel
                          lower bound, so each solve is certified.
* q in (1, inf)        -- Weiszfeld for (p, q) = (1, 2); otherwise L-BFGS-B
                          multistart with analytic gradients.

Every call goes through one canonical hub problem.  Coordinates with
identical values across all k points are fixed at that shared value,
duplicate coordinate columns are merged into one weighted column, and the
rows are sorted with their weights by a signature that ignores column order:
all three are exact for every norm, and they are what makes brute-force
enumeration over embedded instances cheap.  Solutions are memoized on that
canonical form plus (p, q), so a problem met again in another tuple class,
instance or certificate sweep, or under a point or coordinate permutation,
is looked up rather than solved again.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import optimize as sciopt

from .errors import InputError, SolverError

logger = logging.getLogger(__name__)


@dataclass
class FpqProblem:
    points: np.ndarray  # (k, d)
    p: float
    q: float  # math.inf allowed
    weights: np.ndarray | None = None  # per-point multipliers, default all-ones

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError(f"points must be a nonempty (k, d) array, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise InputError("points must be finite")
        if self.p < 1:
            raise InputError(f"p must be >= 1, got {self.p}")
        if not (self.q >= 1):
            raise InputError(f"q must be in [1, inf], got {self.q}")
        object.__setattr__(self, "points", pts)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],) or (w < 0).any():
                raise InputError("weights must be nonnegative, one per point")
            object.__setattr__(self, "weights", w)


@dataclass
class FpqSolution:
    value: float
    minimizer: np.ndarray
    tolerance: float
    method: str
    lower_bound: float | None = None
    value_exact: Fraction | None = None


def fpq_objective(points, y, p, q, weights=None):
    """sum_i w_i ||x_i - y||_q^p, evaluated exactly as stated."""
    x = np.asarray(points, dtype=float)
    diff = np.abs(x - np.asarray(y, dtype=float)[None, :])
    if q == math.inf:
        norms = diff.max(axis=1)
    else:
        norms = (diff**q).sum(axis=1) ** (1.0 / q)
    vals = norms**p
    if weights is not None:
        vals = vals * weights
    return float(vals.sum())


def fpq_gradient(points, y, p, q, weights=None):
    """Analytic gradient for q in (1, inf); a subgradient at kink points."""
    if not (1 < q < math.inf):
        raise InputError("fpq_gradient is defined for q in (1, inf)")
    x = np.asarray(points, dtype=float)
    y = np.asarray(y, dtype=float)
    diff = y[None, :] - x
    absd = np.abs(diff)
    s = (absd**q).sum(axis=1)  # ||x_i - y||_q^q
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = p * np.where(s > 0, s ** (p / q - 1.0), 0.0)
    if weights is not None:
        scale = scale * weights
    g = (scale[:, None] * absd ** (q - 1.0) * np.sign(diff)).sum(axis=0)
    return g


# ---------------------------------------------------------------------------
# Canonical form


def unique_columns(x):
    """Distinct columns of x by one lexsort: (uniq, first, inverse, counts).

    The same arrays, in the same order, as numpy's ``unique`` over axis 1
    with index, inverse and counts: columns sorted lexicographically (row 0
    first), each represented by its first occurrence.  The distinct rows of
    ``a`` are ``unique_columns(a.T)``.
    """
    x = np.asarray(x)
    d = x.shape[1]
    order = np.lexsort(x[::-1]) if x.shape[0] else np.arange(d)
    xs = x[:, order]
    new = np.ones(d, dtype=bool)
    new[1:] = (xs[:, 1:] != xs[:, :-1]).any(axis=0)
    group = np.cumsum(new) - 1
    inverse = np.empty(d, dtype=np.intp)
    inverse[order] = group
    first = order[new]
    return x[:, first], first, inverse, np.bincount(group, minlength=len(first))


def _canonical(points, lam, p, q):
    """Canonical form of a hub problem: (x, w, lam, column map, var, key).

    Constant columns are matched exactly; permuting identical columns of y
    leaves the objective unchanged, so by convexity some optimum is constant
    on each duplicate class, which becomes one column of multiplicity w.
    Rows are sorted with their weights by the multiset of (value, w) pairs
    they hold, then the columns are merged again; ``x[:, col_of]`` is the
    call's own non-constant columns ``points[:, var]``, rows reordered.
    Equal keys mean equal problems; equal problems whose rows tie on the
    signature may still get different keys.
    """
    k = points.shape[0]
    lam = np.ones(k) if lam is None else lam
    var = ~(points == points[0]).all(axis=0)
    xv, _, inv, counts = unique_columns(points[:, var])
    pairs = np.sort(xv + 1j * counts, axis=1)  # complex sort: by value, then w
    rows = np.lexsort(np.hstack([lam[:, None], pairs.real, pairs.imag]).T[::-1])
    x, first, col_of, _ = unique_columns(xv[rows])
    w = counts[first].astype(float)
    lam = lam[rows]
    key = (p, q, lam.tobytes(), x.shape, x.tobytes(), w.tobytes())
    return x, w, lam, col_of[inv], var, key


def _wobj(x, w, y, p, q, lam):
    """Objective on reduced columns with multiplicities w."""
    diff = np.abs(x - y[None, :])
    if q == math.inf:
        norms = diff.max(axis=1)
    else:
        norms = ((diff**q) * w[None, :]).sum(axis=1) ** (1.0 / q)
    return float((lam * norms**p).sum())


def _wgrad(x, w, y, p, q, lam):
    diff = y[None, :] - x
    absd = np.abs(diff)
    s = ((absd**q) * w[None, :]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = lam * p * np.where(s > 0, s ** (p / q - 1.0), 0.0)
    return (scale[:, None] * w[None, :] * absd ** (q - 1.0) * np.sign(diff)).sum(axis=0)


def _l1_dists(x, w, y):
    return (np.abs(x - y[None, :]) * w[None, :]).sum(axis=1)


def _linf_dists(x, y):
    return np.abs(x - y[None, :]).max(axis=1)


def _weighted_median_columns(x, g):
    """argmin_y sum_i g_i |x_ic - y_c| per column, all columns at once."""
    k, c = x.shape
    order = np.argsort(x, axis=0, kind="stable")
    gw = np.broadcast_to(g[:, None], (k, c))
    g_sorted = np.take_along_axis(gw, order, axis=0)
    csum = np.cumsum(g_sorted, axis=0)
    total = csum[-1, :]
    # first index where cumulative weight reaches half the total
    idx = (csum < 0.5 * total[None, :] - 1e-15).sum(axis=0)
    med_pos = order[idx, np.arange(c)]
    return x[med_pos, np.arange(c)]


def _conjugate_power_sum(g, p, lam):
    """Fenchel conjugate of t -> sum_i lam_i t_i^p on t >= 0, at g >= 0."""
    g = np.maximum(g, 0.0)
    if p == 1:
        # conjugate is 0 where g <= lam, +inf otherwise; callers keep g <= lam
        return 0.0
    out = 0.0
    pos = lam > 0
    r = p / (p - 1.0)
    out += ((p - 1.0) * lam[pos] * (g[pos] / (p * lam[pos])) ** r).sum()
    # lam_i = 0 forces g_i = 0 for a finite conjugate; treat tiny g as 0
    return float(out)


# ---------------------------------------------------------------------------
# Engines


def _solve_mean_22(x, w, lam):
    if lam.sum() <= 0:
        return np.zeros(x.shape[1]), 0.0
    y = (lam[:, None] * x).sum(axis=0) / lam.sum()
    return y, _wobj(x, w, y, 2.0, 2.0, lam)


def _solve_median_q1p1(x, w, lam):
    y = _weighted_median_columns(x, lam)
    return y, _wobj(x, w, y, 1.0, 1.0, lam)


def _solve_weiszfeld(x, w, lam, iters=10000, tol=1e-14):
    """Geometric median of the rows of x under the w-weighted l2 metric."""
    xt = x * np.sqrt(w)[None, :]
    y = (lam[:, None] * xt).sum(axis=0) / lam.sum()
    for _ in range(iters):
        dist = np.linalg.norm(xt - y[None, :], axis=1)
        hit = dist < 1e-13
        if hit.any():
            rest = ~hit
            if not rest.any():
                break
            r = (
                lam[rest, None] * (xt[rest] - y[None, :]) / dist[rest, None]
            ).sum(axis=0)
            if np.linalg.norm(r) <= lam[hit].sum() + 1e-12:
                break  # subgradient optimality at the data point
            y = y + (np.linalg.norm(r) - lam[hit].sum()) / lam.sum() * r / np.linalg.norm(r)
            continue
        wts = lam / dist
        y_new = (wts[:, None] * xt).sum(axis=0) / wts.sum()
        if np.linalg.norm(y_new - y) <= tol * (1.0 + np.linalg.norm(y)):
            y = y_new
            break
        y = y_new
    y_back = np.divide(y, np.sqrt(w), out=np.zeros_like(y), where=w > 0)
    return y_back, _wobj(x, w, y_back, 1.0, 2.0, lam)


def _solve_lbfgs(x, w, lam, p, q, seed=0):
    """Multistart L-BFGS-B: mean and median starts, random restarts only
    when those two disagree (kinks can trap a single run)."""
    lo = x.min(axis=0)
    hi = x.max(axis=0)
    bounds = list(zip(lo, hi))

    def run(y0):
        res = sciopt.minimize(
            lambda y: _wobj(x, w, y, p, q, lam),
            np.clip(y0, lo, hi),
            jac=lambda y: _wgrad(x, w, y, p, q, lam),
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-12},
        )
        return res.x, _wobj(x, w, res.x, p, q, lam)

    cands = [
        run((lam[:, None] * x).sum(axis=0) / max(lam.sum(), 1e-30)),
        run(np.sort(x, axis=0)[(x.shape[0] - 1) // 2]),
    ]
    best = min(cands, key=lambda c: c[1])
    spread = max(c[1] for c in cands) - best[1]
    if spread > 1e-9 * (1.0 + abs(best[1])):
        logger.debug("l-bfgs starts disagree by %.3e; taking 3 random restarts", spread)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            cand = run(lo + rng.random(x.shape[1]) * (hi - lo))
            if cand[1] < best[1]:
                best = cand
    return best


def _q1_oracle(x, w, g):
    """min_y sum_i g_i ||x_i - y||_1 (w-weighted columns): exact, separable."""
    y = _weighted_median_columns(x, g)
    t = _l1_dists(x, w, y)
    return y, t, float((g * t).sum())


def _qinf_constraints(x):
    """Epigraph rows of t_i >= |x_ij - y_j| over variables [y_1..y_c, t_1..t_k].

    Row 2(i c + j) is y_j - t_i <= x_ij and the row after it is
    -y_j - t_i <= -x_ij.
    """
    k, c = x.shape
    rows = np.arange(2 * k * c).reshape(k, c, 2)
    A = np.zeros((2 * k * c, c + k))
    A[rows[:, :, 0], np.arange(c)] = 1.0
    A[rows[:, :, 1], np.arange(c)] = -1.0
    A[rows, c + np.arange(k)[:, None, None]] = -1.0
    return A, np.stack([x, -x], axis=2).ravel()


def _qinf_oracle(x, g, lo, hi):
    """min_y sum_i g_i ||x_i - y||_inf via one LP (HiGHS)."""
    k, c = x.shape
    A, rhs = _qinf_constraints(x)
    cost = np.concatenate([np.zeros(c), np.maximum(g, 0.0)])
    bounds = [(float(a), float(b)) for a, b in zip(lo, hi)] + [(0.0, None)] * k
    res = sciopt.linprog(cost, A_ub=A, b_ub=rhs, bounds=bounds, method="highs")
    if not res.success:
        raise SolverError(f"LP oracle failed: {res.message}")
    y = res.x[:c]
    t = _linf_dists(x, y)
    return y, t, float(res.fun)


def _frank_wolfe(x, w, lam, p, q, tol, max_iters=1000):
    """Pairwise Frank-Wolfe for the polyhedral norms q in {1, inf}, p > 1.

    Minimizes phi(t) = sum_i lam_i t_i^p over convex combinations of oracle
    vertices t_v = dists(y_v), starting from the clipped weighted mean.  Each
    step moves weight from the away atom (largest g . t_v) to the oracle
    vertex, which converges linearly on polytopes (Lacoste-Julien & Jaggi,
    NeurIPS 2015).  Every oracle call also gives the Fenchel lower bound
    g . t_s - phi*(g); the loop stops once phi(t) is within tol of the best
    one.  Returns (y, phi(dists(y)), lower bound) for y = sum_v alpha_v y_v;
    by convexity dists(y) <= t.
    """
    lo = x.min(axis=0)
    hi = x.max(axis=0)

    def dists(y):
        return _l1_dists(x, w, y) if q == 1 else _linf_dists(x, y)

    def fval(t):
        return float((lam * t**p).sum())

    y0 = np.clip((lam[:, None] * x).sum(axis=0) / max(lam.sum(), 1e-30), lo, hi)
    ys, ts, alpha = y0[None, :], dists(y0)[None, :], np.ones(1)
    best_lb = -math.inf
    for it in range(1, max_iters + 1):
        t = alpha @ ts
        g = lam * p * t ** (p - 1.0)
        if q == 1:
            y_s, t_s, lpval = _q1_oracle(x, w, g)
        else:
            y_s, t_s, lpval = _qinf_oracle(x, g, lo, hi)
        best_lb = max(best_lb, lpval - _conjugate_power_sum(g, p, lam))
        if fval(t) - best_lb <= tol:
            break
        a = int(np.argmax(ts @ g))
        dt = t_s - ts[a]
        amax = alpha[a]

        def slope(gamma):
            return float((lam * np.maximum(t + gamma * dt, 0.0) ** (p - 1.0) * dt).sum())

        if slope(amax) <= 0:
            gamma = amax  # drop step: the away atom leaves the active set
        elif p == 2:
            gamma = -float((lam * t * dt).sum()) / float((lam * dt * dt).sum())
            gamma = min(amax, max(0.0, gamma))
        else:
            lo_g, hi_g = 0.0, amax
            for _ in range(50):
                mid = 0.5 * (lo_g + hi_g)
                lo_g, hi_g = (mid, hi_g) if slope(mid) < 0 else (lo_g, mid)
            gamma = lo_g
        if gamma <= 0:
            break  # no descent along the pairwise direction
        same = np.nonzero((ys == y_s).all(axis=1))[0]
        if same.size:
            s = int(same[0])
            if s == a:
                break
        else:
            ys, ts = np.vstack([ys, y_s]), np.vstack([ts, t_s])
            alpha, s = np.append(alpha, 0.0), len(alpha)
        alpha[s] += gamma
        alpha[a] = 0.0 if gamma == amax else amax - gamma
        keep = alpha > 0
        ys, ts, alpha = ys[keep], ts[keep], alpha[keep]
    y = alpha @ ys
    val = fval(dists(y))
    if val - best_lb > tol:
        logger.debug(
            "frank-wolfe stopped after %d iterations with gap %.3e above tol %.3e",
            it, val - best_lb, tol,
        )
    return y, val, best_lb


# ---------------------------------------------------------------------------
# Public entry points

_MEMO_CAP = 4096  # canonical solutions kept; the memo is emptied when full
_MEMO = {}


def _solve_canonical(x, w, lam, p, q, tol, force_iterative, seed):
    """Dispatch on (p, q) over a canonical problem; minimizer in its columns."""
    if x.shape[1] == 0:
        return FpqSolution(0.0, np.zeros(0), 0.0, "constant", 0.0)
    if p == 2 and q == 2 and not force_iterative:
        y, val = _solve_mean_22(x, w, lam)
        return FpqSolution(val, y, 0.0, "closed-form-22", val)
    if q == 1 and p == 1:
        y, val = _solve_median_q1p1(x, w, lam)
        return FpqSolution(val, y, 0.0, "coordinate-q1", val)
    if q == math.inf and p == 1:
        y, _, lpv = _qinf_oracle(x, lam, x.min(axis=0), x.max(axis=0))
        val = _wobj(x, w, y, p, q, lam)
        return FpqSolution(val, y, max(val - lpv, 0.0), "lp-qinf", lpv)
    if q in (1, math.inf):  # p > 1
        y, val, lb = _frank_wolfe(x, w, lam, p, q, tol)
        return FpqSolution(val, y, max(val - lb, 0.0), "pairwise-frank-wolfe", lb)
    # q in (1, inf)
    if p == 1 and q == 2:
        y, val = _solve_weiszfeld(x, w, lam)
        return FpqSolution(val, y, tol, "weiszfeld")
    y, val = _solve_lbfgs(x, w, lam, p, q, seed=seed)
    return FpqSolution(val, y, tol, "lbfgs")


def solve_fpq(
    prob: FpqProblem,
    tol: float = 1e-8,
    certify: bool = False,
    force_iterative: bool = False,
    seed: int = 0,
) -> FpqSolution:
    """Minimize sum_i w_i ||z_i - y||_q^p over y.

    ``tol`` is the accuracy target.  On the certified paths (q in {1, inf})
    ``tolerance`` is value - lower_bound; pairwise Frank-Wolfe stops once it
    is at most ``tol`` or after 1000 oracle calls, and with ``certify`` a gap
    left above ``tol`` raises SolverError carrying (lower, upper).  The
    smooth paths report ``tol`` as an estimate with no lower bound.
    A memoized solution of the same canonical problem is reused when its
    ``tolerance`` is at most ``tol``.  ``force_iterative`` skips the p=q=2
    closed form and the memo (used by agreement tests).
    """
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    x, w, lam, col_of, var, key = _canonical(prob.points, prob.weights, prob.p, prob.q)
    sol = None if force_iterative else _MEMO.get(key)
    if sol is None or sol.tolerance > tol:
        sol = _solve_canonical(x, w, lam, prob.p, prob.q, tol, force_iterative, seed)
        if not force_iterative:
            if len(_MEMO) >= _MEMO_CAP:
                _MEMO.clear()
            _MEMO[key] = sol
    if certify and sol.tolerance > tol:
        raise SolverError(
            f"{sol.method} gap {sol.tolerance:.3e} above tol {tol:.3e}",
            lower=sol.lower_bound, upper=sol.value,
        )
    y = prob.points[0].copy()
    y[var] = sol.minimizer[col_of]
    return replace(sol, minimizer=y)


def fpq_closed_form_22(points, weights=None) -> FpqSolution:
    """p=q=2 value at the weighted mean; exact rationals for integer input.

    With unit weights: value = (1 - 1/k) sum ||x_i||^2 - (2/k) sum_{i<i'}
    <x_i, x_i'>, an integer divided by k.
    """
    x = np.asarray(points)
    k = x.shape[0]
    if weights is None and np.issubdtype(x.dtype, np.integer):
        g = x.astype(np.int64) @ x.astype(np.int64).T
        s = int(np.trace(g))
        total = int(g.sum())
        exact = Fraction(k * s - total, k)
        y = x.astype(float).mean(axis=0)
        return FpqSolution(float(exact), y, 0.0, "closed-form-22", float(exact), exact)
    lam = None if weights is None else np.asarray(weights, dtype=float)
    lamv = np.ones(k) if lam is None else lam
    y = (lamv[:, None] * x.astype(float)).sum(axis=0) / lamv.sum()
    val = fpq_objective(x, y, 2.0, 2.0, lam)
    return FpqSolution(val, y, 0.0, "closed-form-22", val)


def q1_value_formula(n, k, D, t, p):
    """Clique-regime value bound for the q=1 embedding:
    k^(1-p) * (n k (k-1)(n k - 2n + 2) - 4t)^p.

    Exact (Fraction) when p is a positive integer.  D is accepted for
    signature symmetry with the certificate helpers; the bound does not
    depend on it.
    """
    if k < 2 or k % 2 != 0:
        raise InputError(f"formula requires even k >= 2, got {k}")
    if t < 0:
        raise InputError(f"t must be nonnegative, got {t}")
    base = n * k * (k - 1) * (n * k - 2 * n + 2) - 4 * t
    if base < 0:
        raise InputError(f"negative base {base}: t too large for (n, k) = ({n}, {k})")
    if float(p) == int(p) and p >= 1:
        ip = int(p)
        return Fraction(base**ip, k ** (ip - 1))
    return float(k) ** (1.0 - p) * float(base) ** p


def q1_clique_witness(config, vertex_tuple) -> np.ndarray:
    """Optimal hub for a clique tuple under the q=1 embedding.

    Sets y = s on every doubly-selected edge coordinate (both group slots
    matching the tuple and the underlying pair adjacent), zero elsewhere.
    """
    from .embed import psi_coord  # local import to avoid a cycle

    if config.regime != "Q1":
        raise InputError("q1_clique_witness expects a psi-embedded config")
    g = config.source.get("graph")
    if g is None:
        raise InputError("config lacks source graph metadata")
    from .graph import Graph

    graph = Graph.from_json(g)
    k, n = config.k, config.n
    vt = tuple(vertex_tuple)
    y = np.zeros(config.d, dtype=np.int64)
    for l in range(k):
        for lp in range(l + 1, k):
            if graph.has_edge(vt[l], vt[lp]):
                y[psi_coord(n, k, l, vt[l], lp, vt[lp], 1)] = 1
                y[psi_coord(n, k, l, vt[l], lp, vt[lp], -1)] = -1
    return y


def qinf_clique_witness(config, vertex_tuple) -> np.ndarray:
    """Half-integer hub for a clique tuple under the q=inf embedding:
    -1/2 where some selected point is -1, +1/2 elsewhere."""
    if config.regime != "QINF":
        raise InputError("qinf_clique_witness expects a xi-embedded config")
    pts = config.dense_tuple(vertex_tuple)
    y = np.where((pts == -1).any(axis=0), -0.5, 0.5)
    return y
