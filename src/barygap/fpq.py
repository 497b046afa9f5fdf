"""Evaluator for the inner hub objective min_y sum_i w_i ||z_i - y||_q^p.

The objective is convex for every p >= 1, q in [1, inf].  There is no single
algorithm that is simultaneously exact, certified and fast across the whole
(p, q) square, so the solver dispatches, and every path returns a lower
bound with its value:

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
                          any feasible radii coordinate by coordinate.  One
                          loop of NNLS least-distance steps serves every p:
                          sequential quadratic programming at p > 1, proximal
                          point steps on the k-variable LP at p = 1.  The
                          lower bound is the Lagrange dual at a point z >= 0.
* q in (1, inf)        -- damped Newton from the weighted mean, stopped by a
                          Fenchel dual bound: the terms' gradients, split so
                          they sum to zero, bound the optimum from below.  At
                          p = 1 the data points are tested for optimality
                          first.

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
hit rebuilds the hub from the caller's own points, and the value reported
is the entry's sum lam t^p, so it depends on the key alone, whatever the
order of the points.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InputError

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
    lam = np.ones(x.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    v = x - np.asarray(y, dtype=float)
    return -_term_gradients(v, np.ones(x.shape[1]), lam, p, q).sum(axis=0)


def _term_gradients(v, w, lam, p, q):
    """Rows d/dv_i of lam_i ||v_i||^p in the w-weighted q-norm (0 where v_i = 0)."""
    a = np.abs(v)
    n = ((a**q) * w).sum(axis=-1, keepdims=True) ** (1.0 / q)
    scale = lam[:, None] * p * np.where(n > 0, n, 1.0) ** (p - q)
    return scale * w * a ** (q - 1.0) * np.sign(v)


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


def _dual_norms(u, w, q):
    """Row norms dual to the w-weighted q-norm, (sum_c w_c^(1-r) |u_c|^r)^(1/r), r = q*."""
    r = q / (q - 1.0)
    return ((np.abs(u) ** r) * w ** (1.0 - r)).sum(axis=1) ** (1.0 / r)


def _fenchel_bound(v, u, w, lam, p, q):
    """Fenchel dual value sum_i <u_i, v_i> - lam_i (p-1) (||u_i||_* / (lam_i p))^(p/(p-1))
    for rows u_i summing to 0, v_i = x_i - y (Rockafellar, Convex Analysis, sec. 31).

    Every such u bounds the optimum from below.  At p = 1 the conjugate is the
    indicator of ||u_i||_* <= lam_i, so u is scaled down until it holds.
    """
    dn = _dual_norms(u, w, q)
    if p == 1:
        return min(1.0, float(np.min(lam / np.maximum(dn, 1e-300)))) * float((u * v).sum())
    return float((u * v).sum()) - _conjugate_power_sum(dn, p, lam)


def _newton(x, w, lam, p, q, tol, max_steps=100):
    """Damped Newton for 1 < q < inf, stopped once the Fenchel gap is <= tol.

    From the weighted mean of the distinct rows, at unit scale.  The Hessian
    takes |v_c| and ||v_i|| at >= 1e-12, Levenberg-Marquardt damping follows
    the ratio of actual to predicted decrease, and a step that crosses a kink
    competes with the reweighted-least-squares (majorizing) step.  At p = 1
    the data points are tested first, and an iterate near a non-optimal one
    leaves it along its steepest descent direction (Vardi & Zhang, PNAS
    2000).  The bound splits the gradient sum over the terms by their
    Hessians along the Newton step.  Returns (y, value, best bound).
    """
    keep = lam > 0
    if not keep.any():
        return x[0].copy(), 0.0, 0.0
    rows, _, inv, _ = unique_columns(x[keep].T)  # equal points merge into one
    pts, mass = rows.T, np.bincount(inv, lam[keep])
    y0 = mass @ pts / mass.sum()
    top = float(np.abs(pts - y0).max())
    if top == 0:
        return y0, 0.0, 0.0
    unit = top**p * float(mass.max())
    z, mass, tol = (pts - y0) / top, mass / mass.max(), tol / unit
    k, c = z.shape

    def parts(y):
        v = z - y
        a = np.abs(v)
        n = ((a**q) * w).sum(axis=1) ** (1.0 / q)
        return v, a, n, float(mass @ n**p)

    if p == 1:
        V = z[None, :, :] - z[:, None, :]  # V[j, i] = x_i - x_j
        A = np.abs(V)
        N = ((A**q) * w).sum(axis=2) ** (1.0 / q)
        U = _term_gradients(V, w, mass, 1.0, q)  # U[j, i]: term i's gradient at x_j
        R = U.sum(axis=1)
        dn = _dual_norms(R, w, q)
        j = int(np.argmin(np.where(dn <= mass, N @ mass, np.inf)))
        if dn[j] <= mass[j]:  # x_j is optimal, and U[j] with -R[j] certifies it
            U[j, j] = -R[j]
            y, lower = pts[j].copy(), _fenchel_bound(V[j], U[j], w, mass, p, q)
            return y, _wobj(x, w, y, p, q, lam), lower * unit
        r = q / (q - 1.0)  # unit steepest descent directions out of each x_j
        out = w ** (1.0 - r) * np.abs(R / dn[:, None]) ** (r - 1.0) * np.sign(R)
        reach = np.where(np.eye(k, dtype=bool), np.inf, N).min(axis=1) * (dn - mass) / dn

    y = np.zeros(c)
    v, a, n, f = parts(y)
    lower, mu = -math.inf, 0.0
    for steps in range(max_steps + 1):
        j = int(np.argmin(n))
        if p == 1 and n[j] < 1e-3:
            t = reach[j]
            for _ in range(60):
                trial = parts(z[j] + t * out[j])
                if trial[3] <= f - 0.5 * t * (dn[j] - mass[j]):
                    y, (v, a, n, f) = z[j] + t * out[j], trial
                    break
                t *= 0.5
        b = w * a ** (q - 1.0) * np.sign(v)
        n1 = np.where(n > 0, n, 1.0)
        u = (mass * p * n1 ** (p - q))[:, None] * b  # d/dv of term i
        coef = mass * p * np.maximum(n, 1e-12) ** (p - q)
        rank = (p - q) / n1**q
        diag = (q - 1.0) * w * np.maximum(a, 1e-12) ** (q - 2.0)
        H = (b.T * (coef * rank)) @ b + np.diag(coef @ diag)
        g = u.sum(axis=0)  # minus the gradient in y
        damp = np.maximum(np.diag(H), 1e-12 * max(float(np.diag(H).max()), 1.0))
        s = np.linalg.solve(H + np.diag((mu + 1e-12) * damp), g)
        split = u - coef[:, None] * (rank[:, None] * (b @ s)[:, None] * b + diag * s)
        split -= mass[:, None] / mass.sum() * split.sum(axis=0)
        lower = max(lower, _fenchel_bound(v, split, w, mass, p, q))
        if f - lower <= tol or steps == max_steps:
            break
        trial = parts(y + s)
        pred = float(g @ s) - 0.5 * float(s @ H @ s)
        rho = (f - trial[3]) / pred if pred > 0 else -1.0
        if rho < 0.25:
            mu = max(4 * mu, 1e-3)
        elif rho > 0.75:
            mu = mu / 4 if mu > 1e-6 else 0.0
        vs = v * (v - s)
        if (q < 2 and (vs < 0).any()) or (p < 2 and (vs.sum(axis=1) < 0).any()):
            mm = (b.T * (coef * np.maximum(rank, 0.0))) @ b
            mm += np.diag(coef @ diag * max(1.0, 1.0 / (q - 1.0)) + 1e-12 * damp)
            ym = y + np.linalg.solve(mm, g)
            cand = parts(ym)
            if cand[3] < min(trial[3], f):
                y, (v, a, n, f) = ym, cand
                continue
        if rho > 1e-4:
            y, (v, a, n, f) = y + s, trial
        elif mu > 1e12:
            break
    y = y0 + top * y
    val = _wobj(x, w, y, p, q, lam)
    if val - lower * unit > tol * unit:
        logger.debug(
            "newton stopped after %d steps with gap %.3e above tol %.3e",
            steps, val - lower * unit, tol * unit,
        )
    return y, val, lower * unit


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


def _tighten(t, D):
    """Sweeps t_a <- max(0, max_l D_al - t_l), never raising a radius, until
    none moves.

    Each step keeps feasible radii feasible (up to rounding), and at the end
    every positive t_a meets some t_a + t_l = D_al, so the hub read off the
    radii lies at distance t_a from x_a.  Plain floats: k is small.
    """
    t, rows = t.tolist(), D.tolist()
    moved = True
    while moved:
        moved = False
        for a, row in enumerate(rows):
            need = max(0.0, max([d - s for d, s in zip(row, t)]))
            if need < t[a]:
                t[a], moved = need, True
    return np.array(t)


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


def _nnls(A, b):
    """argmin ||A u - b|| over u >= 0 by Lawson & Hanson's active-set method
    (Solving Least Squares Problems, ch. 23), at most 3n outer steps.

    Not scipy.optimize.nnls: on some degenerate radii steps it
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


def _radii(D, lam, p, tol, max_steps=50):
    """min sum lam_i t_i^p over the radii polyhedron {t >= 0, t_i + t_l >= D_il}.

    Each step minimizes a separable quadratic model of the objective at t
    exactly over the polyhedron, as a least-distance problem solved by NNLS
    (Lawson & Hanson, ch. 23), then backtracks along the segment to the
    model's minimizer, which stays feasible.  At p > 1 the model is the
    second-order one, with its curvature taken at t >= floor (which changes
    the bound by at most about 1e-12 max(D)^p max(lam)); at p = 2 it is the
    objective and one step is exact.  At p = 1 it is the proximal model
    sum_i lam_i (s_i + (s_i - t_i)^2 / (2 rho)), with rho doubling each
    step (proximal point method, Rockafellar, SIAM J. Control Optim. 1976),
    which ends finitely on an LP (Ferris, Math. Programming 1991): from an
    optimal t the step stays put and its multipliers are LP dual optimal.
    The model's pair multipliers z >= 0, scaled down at p = 1 until
    s <= lam, give the dual bound h(z).  The loop stops once the gap is at
    most tol or a few ulps of the value, when a step neither lowers the
    value nor raises the bound, or when rounding has eaten the
    least-distance solution.  The radii are then tightened once
    (``_tighten``, a function of the radii and D alone, so an entry's value
    still depends only on its memo key), and their sum lam t^p is rounded
    up by (k + 1) ulps so that it bounds the exact sum.  Returns (radii,
    that sum, the best bound capped at it).
    """
    top = float(D.max())
    if top == 0:
        return np.zeros(len(lam)), 0.0, 0.0
    # solve at unit scale: radii in units of top, values in units of top^p lam.max()
    unit_value = top**p * float(lam.max())
    D0, lam0 = D, lam
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
    steps, rho, ulps = 0, 1.0, 8 * np.finfo(float).eps
    while steps < max_steps and upper - lower > max(tol, ulps * upper):
        steps += 1
        if p == 1:
            g, a = lam, lam / rho
            rho *= 2.0
        else:
            ts = np.maximum(t, floor)
            g = p * lam * ts ** (p - 1.0)
            a = (p - 1.0) * g / ts
        c = t - g / a  # unconstrained minimizer of the model
        sa = 1.0 / np.sqrt(a)
        h = lo - G @ c
        E = np.vstack([(G * sa).T, h])
        u = _nnls(E, e_last)
        den = 1.0 - float(h @ u)
        if not den > 0:
            break  # the least-distance problem is lost in rounding
        z = u[:m] / den
        s = B.T @ z
        if p == 1:
            z *= min(1.0, float(np.min(lam / np.maximum(s, 1e-300))))
        bound = float(De @ z) - _conjugate_power_sum(s, p, lam)
        d = np.maximum(c + sa * (E[:k] @ u) / den, 0.0) - t
        slope = float((p * lam * t ** (p - 1.0)) @ d)
        alpha = 1.0
        while phi(t + alpha * d) > upper + 1e-4 * alpha * slope and alpha > 1e-10:
            alpha *= 0.5
        t_new = _make_feasible(t + alpha * d, D)
        f_new = phi(t_new)
        if not (f_new < upper or bound > lower):
            break  # no progress left at this precision
        lower = max(lower, bound)
        if f_new < upper:
            t, upper = t_new, f_new
    t = _tighten(t * top, D0)
    value = float((lam0 * t**p).sum()) * (1.0 + (k + 1) * np.finfo(float).eps)
    lower = min(lower * unit_value, value)
    if value - lower > tol * unit_value:
        logger.debug(
            "radii stopped after %d steps with gap %.3e above tol %.3e",
            steps, value - lower, tol * unit_value,
        )
    return t, value, lower


def _solve_qinf(points, lam, p, tol):
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
    entry = _MEMO.get(key)
    if entry is None or entry[1] - entry[2] > tol:
        entry = _radii(D_s, lam_s, p, tol)
        _remember(key, entry)
    radii, upper, lower = entry
    t = np.empty(len(rows))
    t[rows] = radii
    y = _hub_from_radii(x, t)  # its objective is at most upper, up to rounding
    return FpqSolution(upper, y, max(upper - lower, 0.0), "linf-radii", lower)


# ---------------------------------------------------------------------------
# Public entry points

_MEMO_CAP = 4096  # canonical solutions kept; the memo is emptied when full
_MEMO = {}


def _remember(key, entry):
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = entry


def _solve_canonical(x, w, lam, p, q, tol):
    """Dispatch on (p, q) over a canonical problem; minimizer in its columns."""
    if x.shape[1] == 0:
        return FpqSolution(0.0, np.zeros(0), 0.0, "constant", 0.0)
    if p == 2 and q == 2:
        y, val = _solve_mean_22(x, w, lam)
        return FpqSolution(val, y, 0.0, "closed-form-22", val)
    if q == 1 and p == 1:
        y, val = _solve_median_q1p1(x, w, lam)
        return FpqSolution(val, y, 0.0, "coordinate-q1", val)
    if q == 1:  # p > 1
        y, val, lb = _frank_wolfe(x, w, lam, p, tol)
        return FpqSolution(val, y, max(val - lb, 0.0), "pairwise-frank-wolfe", lb)
    y, val, lb = _newton(x, w, lam, p, q, tol)  # q in (1, inf)
    return FpqSolution(val, y, max(val - lb, 0.0), "newton", lb)


def solve_fpq(prob: FpqProblem, tol: float = 1e-8) -> FpqSolution:
    """Minimize sum_i w_i ||z_i - y||_q^p over y.

    ``tol`` is the accuracy target, and every path but the closed forms
    reports ``tolerance`` = value - lower_bound, a certified gap.  Pairwise
    Frank-Wolfe (q = 1) stops once it is at most ``tol`` or after 1000
    oracle calls; at q = inf the radii problem takes at most 50 NNLS steps
    (proximal point steps at p = 1, SQP steps at p > 1), stopped once the
    gap is at most ``tol`` or a few ulps of the value, and ``lower_bound``
    is the Lagrange dual at a point z >= 0; at q in (1, inf) damped Newton
    stops once its Fenchel dual bound is within ``tol`` or after 100 steps.
    A memoized solution of the same canonical problem (at q = inf: the same
    weights and pairwise distances) is reused when its gap is at most
    ``tol``.
    """
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    if prob.q == math.inf:
        return _solve_qinf(prob.points, prob.weights, prob.p, tol)
    x, w, lam, col_of, var, key = _canonical(prob.points, prob.weights, prob.p, prob.q)
    sol = _MEMO.get(key)
    if sol is None or sol.tolerance > tol:
        sol = _solve_canonical(x, w, lam, prob.p, prob.q, tol)
        _remember(key, sol)
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
