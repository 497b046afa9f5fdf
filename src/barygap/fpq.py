"""Evaluator for the inner hub objective min_y sum_i w_i ||z_i - y||_q^p.

The objective is convex for every p >= 1, q in [1, inf].  There is no single
algorithm that is simultaneously exact, certified and fast across the whole
(p, q) square, so the solver dispatches:

* p = q = 2            -- closed form (weighted mean).
* q = 1,  p = 1        -- exact per-coordinate weighted median.
* q = 1,  p > 1        -- pairwise Frank-Wolfe from the weighted mean over the
                          achievable-distance polytope; the linear oracle is a
                          per-coordinate weighted median, and every oracle call
                          carries a Fenchel lower bound, so each solve is
                          certified.
* q = inf              -- in distance space: l_inf is hyperconvex, so the
                          problem is min sum_i w_i t_i^p over radii with
                          t_i + t_l >= ||z_i - z_l||_inf, and a hub is read off
                          any feasible radii coordinate by coordinate.  p = 1
                          is one k-variable LP; p > 1 is sequential quadratic
                          programming with NNLS steps.  The lower bound is the
                          Lagrange dual at a point z >= 0 in both cases.
* q in (1, inf)        -- Weiszfeld for (p, q) = (1, 2); otherwise L-BFGS-B
                          multistart with analytic gradients.

Every call at q < inf goes through one canonical hub problem.  Coordinates
with identical values across all k points are fixed at that shared value,
duplicate coordinate columns are merged into one weighted column, and the
rows are sorted with their weights by a signature that ignores column order:
all three are exact for every norm, and they are what makes brute-force
enumeration over embedded instances cheap.  Solutions are memoized on that
canonical form plus (p, q), so a problem met again in another tuple class,
instance or certificate sweep, or under a point or coordinate permutation,
is looked up rather than solved again.  At q = inf the memo is keyed on the
weights and the pairwise distances alone, rows sorted, and holds radii: a
hit rebuilds the hub from the caller's own points.
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
    norms = ((np.abs(x - y[None, :]) ** q) * w[None, :]).sum(axis=1) ** (1.0 / q)
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


def _frank_wolfe(x, w, lam, p, tol, max_iters=1000):
    """Pairwise Frank-Wolfe for q = 1, p > 1.

    Minimizes phi(t) = sum_i lam_i t_i^p over convex combinations of oracle
    vertices t_v = dists(y_v), the w-weighted l1 distances, starting from the
    clipped weighted mean.  Each step moves weight from the away atom
    (largest g . t_v) to the oracle vertex, which converges linearly on
    polytopes (Lacoste-Julien & Jaggi, NeurIPS 2015).  Every oracle call
    also gives the Fenchel lower bound g . t_s - phi*(g); the loop stops
    once phi(t) is within tol of the best one.  Returns (y, phi(dists(y)),
    lower bound) for y = sum_v alpha_v y_v; by convexity dists(y) <= t.
    """
    def dists(y):
        return _l1_dists(x, w, y)

    def fval(t):
        return float((lam * t**p).sum())

    y0 = (lam[:, None] * x).sum(axis=0) / max(lam.sum(), 1e-30)
    y0 = np.clip(y0, x.min(axis=0), x.max(axis=0))
    ys, ts, alpha = y0[None, :], dists(y0)[None, :], np.ones(1)
    best_lb = -math.inf
    for it in range(1, max_iters + 1):
        t = alpha @ ts
        g = lam * p * t ** (p - 1.0)
        y_s, t_s, lpval = _q1_oracle(x, w, g)
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
# q = inf in distance space
#
# l_inf is hyperconvex (Aronszajn & Panitchpakdi, Pacific J. Math. 1956):
# balls B(x_i, t_i) share a point exactly when t_i + t_l >= D_il :=
# ||x_i - x_l||_inf for every pair.  So min_y sum_i lam_i ||x_i - y||^p is
# min sum_i lam_i t_i^p over radii t >= 0 with t_i + t_l >= D_il, which
# depends on (lam, D) alone.  With z >= 0 on the pair rows and s_i the sum of
# z over the pairs holding i, the Lagrange dual is
# h(z) = sum_e D_e z_e - sum_i (p-1) lam_i (s_i / (p lam_i))^(p/(p-1)),
# or sum_e D_e z_e under s <= lam at p = 1; every such z bounds the optimum
# from below.


def _pairwise_linf(x):
    return np.abs(x[:, None, :] - x[None, :, :]).max(axis=2)


def _make_feasible(t, D):
    """One sequential sweep t_a <- max(t_a, max_l D_al - t_l); feasible after it."""
    t = t.copy()
    for a in range(len(t)):
        t[a] = max(t[a], float((D[a] - t).max()))
    return t


def _hub_from_radii(x, t):
    """y_j: midpoint of [max_i x_ij - t_i, min_i x_ij + t_i], nonempty for feasible t."""
    return 0.5 * ((x - t[:, None]).max(axis=0) + (x + t[:, None]).min(axis=0))


def _pair_rows(k):
    """Incidence rows of the k(k-1)/2 pairs (i, l), i < l, in lexicographic order."""
    i, l = np.array([(a, b) for a in range(k) for b in range(a + 1, k)]).reshape(-1, 2).T
    B = np.zeros((len(i), k))
    B[np.arange(len(i)), i] = 1.0
    B[np.arange(len(i)), l] = 1.0
    return B, i, l


def _radii_lp(D, lam):
    """p = 1: one LP in k radii; the bound is D . z with HiGHS's pair duals,
    clipped to z >= 0 and scaled down until s <= lam."""
    B, i, l = _pair_rows(len(lam))
    De = D[i, l]
    res = sciopt.linprog(lam, A_ub=-B, b_ub=-De, bounds=(0, None), method="highs")
    if not res.success:
        raise SolverError(f"radii LP failed: {res.message}")
    t = _make_feasible(np.maximum(res.x, 0.0), D)
    z = np.maximum(-res.ineqlin.marginals, 0.0)
    s = B.T @ z
    z *= min(1.0, float(np.min(lam / np.maximum(s, 1e-300))))
    return t, float(lam @ t), float(De @ z)


def _nnls(A, b):
    """argmin ||A u - b|| over u >= 0 by Lawson & Hanson's active-set method
    (Solving Least Squares Problems, ch. 23), at most 3n outer steps.

    Not scipy.optimize.nnls: on some degenerate steps of the radii SQP it
    returns a point that fails the optimality conditions, and the dual bound
    read from it is worthless.
    """
    n = A.shape[1]
    tiny = 10 * np.finfo(float).eps * max(A.shape) * float(np.abs(A).sum(axis=0).max())
    free = np.zeros(n, dtype=bool)
    u = np.zeros(n)
    grad = A.T @ b
    for _ in range(3 * n):
        if free.all() or grad[~free].max() <= tiny:
            break
        free[np.argmax(np.where(free, -np.inf, grad))] = True
        while True:
            v = np.zeros(n)
            v[free] = np.linalg.lstsq(A[:, free], b, rcond=None)[0]
            if v[free].min(initial=np.inf) > 0:
                break
            out = free & (v <= 0)  # step back to the first column that leaves
            u += float(np.min(u[out] / (u[out] - v[out]))) * (v - u)
            free &= u > tiny
            u[~free] = 0.0
        u = v
        grad = A.T @ (b - A @ u)
    return u


def _radii_sqp(D, lam, p, tol, max_steps=50):
    """p > 1: sequential quadratic programming over the radii polyhedron.

    Each step minimizes the separable quadratic model of sum lam_i t_i^p at
    t over {t >= 0, t_i + t_l >= D_il} exactly, as a least-distance problem
    solved by NNLS (Lawson & Hanson, ch. 23), then backtracks along the
    segment to the model's minimizer, which stays feasible.  At p = 2 the
    model is the objective and one step is exact.  The model's pair
    multipliers z >= 0 give the dual bound h(z).  The model curvature is
    taken at t >= floor, which changes h by at most about
    1e-12 max(D)^p max(lam).  Returns (feasible radii, sum lam t^p, best
    bound).
    """
    top = float(D.max())
    if top == 0:
        return np.zeros(len(lam)), 0.0, 0.0
    # solve at unit scale: radii in units of top, values in units of top^p lam.max()
    unit_value = top**p * float(lam.max())
    D, lam, tol = D / top, lam / lam.max(), tol / unit_value
    k = len(lam)
    B, i, l = _pair_rows(k)
    m = len(i)
    De = D[i, l]
    G = np.vstack([B, np.eye(k)])  # G t >= lo
    lo = np.concatenate([De, np.zeros(k)])
    e_last = np.zeros(k + 1)
    e_last[k] = 1.0
    floor = 1e-12 ** (1.0 / p)

    def phi(t):
        return float((lam * t**p).sum())

    t = _make_feasible(0.5 * D.max(axis=1), D)
    upper, lower = phi(t), 0.0  # h(0) = 0
    steps = 0
    while steps < max_steps and upper - lower > tol:
        steps += 1
        ts = np.maximum(t, floor)
        g = p * lam * ts ** (p - 1.0)
        a = (p - 1.0) * g / ts
        c = t - g / a  # unconstrained minimizer of the model
        sa = 1.0 / np.sqrt(a)
        h = lo - G @ c
        E = np.vstack([(G * sa).T, h])
        u = _nnls(E, e_last)
        den = 1.0 - float(h @ u)
        z = u[:m] / den
        lower = max(lower, float(De @ z) - _conjugate_power_sum(B.T @ z, p, lam))
        d = np.maximum(c + sa * (E[:k] @ u) / den, 0.0) - t
        slope = float((p * lam * t ** (p - 1.0)) @ d)
        alpha = 1.0
        while phi(t + alpha * d) > upper + 1e-4 * alpha * slope and alpha > 1e-10:
            alpha *= 0.5
        t_new = _make_feasible(t + alpha * d, D)
        if not phi(t_new) < upper:
            break  # no progress left at this precision
        t, upper = t_new, phi(t_new)
    if upper - lower > tol:
        logger.debug(
            "radii sqp stopped after %d steps with gap %.3e above tol %.3e",
            steps, (upper - lower) * unit_value, tol * unit_value,
        )
    return t * top, upper * unit_value, lower * unit_value


def _solve_qinf(points, lam, p, tol, force_iterative):
    """q = inf through the radii problem; memo keyed on (p, lam, D), rows sorted."""
    lam = np.ones(points.shape[0]) if lam is None else lam
    x, lam = points[lam > 0], lam[lam > 0]  # weightless points constrain nothing
    if x.shape[0] < 2:
        y = (x if len(x) else points)[0].copy()
        return FpqSolution(0.0, y, 0.0, "linf-radii", 0.0)
    D = _pairwise_linf(x)
    rows = np.lexsort(np.hstack([lam[:, None], np.sort(D, axis=1)]).T[::-1])
    lam_s, D_s = lam[rows], D[np.ix_(rows, rows)]
    key = (p, math.inf, lam_s.tobytes(), D_s.tobytes())
    entry = None if force_iterative else _MEMO.get(key)
    if entry is None or entry[1] - entry[2] > tol:
        entry = _radii_lp(D_s, lam_s) if p == 1 else _radii_sqp(D_s, lam_s, p, tol)
        if not force_iterative:
            _remember(key, entry)
    radii, _, lower = entry
    t = np.empty(len(rows))
    t[rows] = radii
    y = _hub_from_radii(x, t)  # value <= sum lam t^p: the entry's gap bounds this one's
    val = fpq_objective(x, y, p, math.inf, lam)
    return FpqSolution(val, y, max(val - lower, 0.0), "linf-radii", lower)


# ---------------------------------------------------------------------------
# Public entry points

_MEMO_CAP = 4096  # canonical solutions kept; the memo is emptied when full
_MEMO = {}


def _remember(key, entry):
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = entry


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
    if q == 1:  # p > 1
        y, val, lb = _frank_wolfe(x, w, lam, p, tol)
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
    ``tolerance`` is value - lower_bound.  Pairwise Frank-Wolfe (q = 1) stops
    once it is at most ``tol`` or after 1000 oracle calls; at q = inf the
    radii problem is solved by one LP (p = 1) or by at most 50 SQP steps
    (p > 1), and ``lower_bound`` is the Lagrange dual at a point z >= 0.
    With ``certify`` a gap left above ``tol`` raises SolverError carrying
    (lower, upper).  The smooth paths report ``tol`` as an estimate with no
    lower bound.  A memoized solution of the same canonical problem (at
    q = inf: the same weights and pairwise distances) is reused when its
    gap is at most ``tol``.  ``force_iterative`` skips the p=q=2 closed form
    and the memo (used by agreement tests).
    """
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    if prob.q == math.inf:
        sol = _solve_qinf(prob.points, prob.weights, prob.p, tol, force_iterative)
    else:
        x, w, lam, col_of, var, key = _canonical(prob.points, prob.weights, prob.p, prob.q)
        sol = None if force_iterative else _MEMO.get(key)
        if sol is None or sol.tolerance > tol:
            sol = _solve_canonical(x, w, lam, prob.p, prob.q, tol, force_iterative, seed)
            if not force_iterative:
                _remember(key, sol)
        y = prob.points[0].copy()
        y[var] = sol.minimizer[col_of]
        sol = replace(sol, minimizer=y)
    if certify and sol.tolerance > tol:
        raise SolverError(
            f"{sol.method} gap {sol.tolerance:.3e} above tol {tol:.3e}",
            lower=sol.lower_bound, upper=sol.value,
        )
    return sol


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
