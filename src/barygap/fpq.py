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

The three iterative engines (radii, Frank-Wolfe, Newton) each run on a stack
of problems of one shape, in lockstep, and a problem leaves the stack when it
stops; every sum and solve works within one problem's rows, so a problem's
result does not depend, in any bit, on the stack.  Each rounds its reported
bound down by a few ulps of the value, so the interval is never empty.

There are two entry points.  ``solve_fpq_values`` is the one batch: it
returns the values and lower bounds of many problems and keeps no
minimizer.  ``solve_fpq`` solves one problem and places its minimizer.
Both go through one canonical hub problem (``_canonical_problem``).  At
q < inf, coordinates with identical values across all k points are fixed
at that shared value, duplicate coordinate columns are merged into one
weighted column, and the rows are sorted with their weights by a signature
that ignores column order: all three are exact for every norm, and they
are what makes brute-force enumeration over embedded instances cheap.  At
q = inf the canonical problem is the weights and the pairwise distances
alone, rows sorted, and its solution is radii: a problem rebuilds its hub
from its own points, and the value reported is the entry's sum lam t^p, so
it depends on the key alone, whatever the order of the points.  Solutions
are memoized on the canonical form plus (p, q), so a problem met again in
another tuple class, instance or certificate sweep, or under a point or
coordinate permutation, is looked up rather than solved again.  In one
batch the misses of every q wait together, each distinct canonical problem
is solved once, and the misses waiting are solved in rounds of bounded
size.  ``_solve_canonical`` is the one place that picks an engine and
forms stacks.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .errors import InputError, check_tol

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
        if not 1 <= self.p < math.inf:
            raise InputError(f"p must be a finite number >= 1, got {self.p}")
        if not (self.q >= 1):
            raise InputError(f"q must be in [1, inf], got {self.q}")
        object.__setattr__(self, "points", pts)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (pts.shape[0],) or not (np.isfinite(w) & (w >= 0)).all():
                raise InputError("weights must be finite and nonnegative, one per point")
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
    """d/dv_i of lam_i ||v_i||^p in the w-weighted q-norm, one row i per
    entry of ``lam`` (0 where v_i = 0); leading axes are batch axes."""
    a = np.abs(v)
    n = ((a**q) * w).sum(axis=-1, keepdims=True) ** (1.0 / q)
    scale = lam[..., None] * p * np.where(n > 0, n, 1.0) ** (p - q)
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


def _sorted_columns(x):
    """Each column's order along the point axis (-2) and its sorted values."""
    order = np.argsort(x, axis=-2, kind="stable")
    return order, np.take_along_axis(x, order, axis=-2)


def _weighted_median_columns(order, xs, g):
    """argmin_y sum_i g_i |x_ic - y_c| per column, all columns at once, for a
    stack of T problems: ``order, xs = _sorted_columns(x)`` of x (T, k, c)
    and g (T, k)."""
    T, _, c = order.shape
    rows = np.arange(T)[:, None]
    csum = np.cumsum(g[rows[:, :, None], order], axis=1)
    # first index where cumulative weight reaches half the total
    idx = (csum < 0.5 * csum[:, -1:] - 1e-15).sum(axis=1)
    return xs[rows, idx, np.arange(c)]


def _ordered_sum(a, axis):
    """Sum over ``axis`` one term after another, so that trailing terms that
    are exact zeros, such as padding, change no bit of the result."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis)


def _conjugate_power_sum(g, p, lam):
    """Fenchel conjugate of t -> sum_i lam_i t_i^p on t >= 0, at g >= 0 and
    lam > 0, summed over the last axis; leading axes are batch axes."""
    if p == 1:
        # conjugate is 0 where g <= lam, +inf otherwise; callers keep g <= lam
        return 0.0
    r = p / (p - 1.0)
    return ((p - 1.0) * lam * (g / (p * lam)) ** r).sum(axis=-1)


# ---------------------------------------------------------------------------
# Engines


def _solve_mean_22(x, w, lam):
    if lam.sum() <= 0:
        return np.zeros(x.shape[1]), 0.0
    y = (lam[:, None] * x).sum(axis=0) / lam.sum()
    return y, _wobj(x, w, y, 2.0, 2.0, lam)


def _solve_median_q1p1(x, w, lam):
    y = _weighted_median_columns(*_sorted_columns(x[None]), lam[None])[0]
    return y, _wobj(x, w, y, 1.0, 1.0, lam)


def _dual_norms(u, w, q):
    """Row norms dual to the w-weighted q-norm, (sum_c w_c^(1-r) |u_c|^r)^(1/r), r = q*."""
    r = q / (q - 1.0)
    return ((np.abs(u) ** r) * w ** (1.0 - r)).sum(axis=-1) ** (1.0 / r)


def _fenchel_bound(v, u, w, lam, p, q):
    """Fenchel dual value sum_i <u_i, v_i> - lam_i (p-1) (||u_i||_* / (lam_i p))^(p/(p-1))
    for rows u_i summing to 0, v_i = x_i - y, lam > 0 (Rockafellar, Convex
    Analysis, sec. 31); one value per (k, c) problem in the last two axes.

    Every such u bounds the optimum from below.  At p = 1 the conjugate is the
    indicator of ||u_i||_* <= lam_i, so u is scaled down until it holds.
    """
    dn = _dual_norms(u, w, q)
    dot = (u * v).sum(axis=(-2, -1))
    if p == 1:
        return np.minimum(1.0, (lam / np.maximum(dn, 1e-300)).min(axis=-1)) * dot
    return dot - _conjugate_power_sum(dn, p, lam)


def _levenberg_marquardt(f, f_trial, pred, mu):
    """Gain ratio rho (actual over predicted decrease) of one problem's step
    and its next damping mu, in Python floats."""
    rho = (f - f_trial) / pred if pred > 0 else -1.0
    if rho < 0.25:
        return rho, max(4 * mu, 1e-3)
    if rho > 0.75:
        return rho, mu / 4 if mu > 1e-6 else 0.0
    return rho, mu


def _newton(pts, mass, w, p, q, tol, max_steps=100):
    """Damped Newton for 1 < q < inf on a stack of T problems of one shape.

    ``pts`` (T, k, c) holds each problem's k >= 2 distinct points, ``mass``
    (T, k) their positive weights and ``w`` (T, c) the column
    multiplicities.  Each problem starts from its weighted mean, at unit
    scale, and stops once its Fenchel gap is <= tol.  The Hessian takes
    |v_c| and ||v_i|| at >= 1e-12, Levenberg-Marquardt damping follows the
    ratio of actual to predicted decrease, and a step that crosses a kink
    competes with the reweighted-least-squares (majorizing) step.  At p = 1
    the data points are tested first, their pulls' dual norm against their
    weight with a few ulps of slack, and an iterate near a non-optimal one
    leaves it along its steepest descent direction (Vardi & Zhang, PNAS
    2000).  The bound splits the gradient sum over the terms by their
    Hessians along the Newton step.  Each step solves the Newton systems of
    the problems still running in one batched call, and a problem leaves
    the stack once it stops.  Every sum, stacked product and solve works
    within one problem's rows, the damping update is per problem
    (``_levenberg_marquardt``), and the stop test and the step choice are
    elementwise masks, so a problem's result does not depend on the rest of
    the stack.  Returns (y, best bound, steps taken), one row per problem.
    """
    T, k, c = pts.shape
    y0 = (mass[:, None, :] @ pts)[:, 0] / mass.sum(axis=1)[:, None]
    z = pts - y0[:, None, :]
    top, heavy = np.abs(z).max(axis=(1, 2)), mass.max(axis=1)
    unit = top**p * heavy
    z, mass, tol, wk = z / top[:, None, None], mass / heavy[:, None], tol / unit, w[:, None, :]
    y_out, lower_out, steps_out = np.zeros((T, c)), np.zeros(T), np.zeros(T, dtype=int)
    live = np.arange(T)

    def parts(y):  # of the problems still running
        v = z - y[:, None, :]
        a = np.abs(v)
        n = ((a**q) * wk).sum(axis=2) ** (1.0 / q)
        return v, a, n, (mass * n**p).sum(axis=1)

    def outer_sum(b, scale):  # sum_i scale_i b_i b_i^T for each problem
        return (b.transpose(0, 2, 1) * scale[:, None, :]) @ b

    def diagonal(m):  # writable view of each matrix's diagonal
        return m.reshape(len(m), c * c)[:, :: c + 1]

    def result():  # at the caller's scale, optimal data points exactly
        y = y0 + top[:, None] * y_out
        if p == 1 and at.any():
            y[at] = pts[at, best[at]]
        return y, lower_out * unit, steps_out

    if p == 1:
        V = z[:, None, :, :] - z[:, :, None, :]  # V[t, j, i] = x_i - x_j
        N = ((np.abs(V) ** q) * wk[:, None]).sum(axis=3) ** (1.0 / q)
        U = _term_gradients(V, wk[:, None], mass[:, None, :], 1.0, q)  # term i's gradient at x_j
        R = U.sum(axis=2)
        dn = _dual_norms(R, wk, q)
        # a few ulps of slack: the bound scales the pulls down to the weights
        fits = dn <= mass * (1.0 + 4 * np.finfo(float).eps)
        best = np.argmin(np.where(fits, (N * mass[:, None, :]).sum(axis=2), np.inf), axis=1)
        at = fits[live, best]
        if at.any():  # x_j is optimal, and U[j] with -R[j] certifies it
            j = best[at]
            cert = U[at, j]
            cert[np.arange(len(j)), j] = -R[at, j]
            lower_out[at] = _fenchel_bound(V[at, j], cert, wk[at], mass[at], p, q)
            if at.all():
                return result()
            go = ~at
            live, z, wk, mass, tol = live[go], z[go], wk[go], mass[go], tol[go]
            R, dn, N = R[go], dn[go], N[go]
        r = q / (q - 1.0)  # unit steepest descent directions out of each x_j
        out = wk ** (1.0 - r) * np.abs(R / dn[:, :, None]) ** (r - 1.0) * np.sign(R)
        reach = np.where(np.eye(k, dtype=bool), np.inf, N).min(axis=2) * (dn - mass) / dn

    share = (mass / mass.sum(axis=1)[:, None])[:, :, None]
    mp, wq = mass * p, (q - 1.0) * wk
    y = np.zeros((len(live), c))
    v, a, n, f = parts(y)
    lower, mu = np.full(len(live), -math.inf), np.zeros(len(live))

    def accept(rows, y_new, new):  # move the rows of a mask to y_new, with parts new
        nonlocal y, v, a, n, f
        if rows.all():
            y, (v, a, n, f) = y_new, new
        elif rows.any():
            y[rows] = y_new[rows]
            for cur, arr in zip((v, a, n, f), new):
                cur[rows] = arr[rows]

    def finish(rows, steps):  # record the results of the rows of a mask
        ids = live[rows]
        y_out[ids], lower_out[ids], steps_out[ids] = y[rows], lower[rows], steps

    for steps in range(max_steps + 1 if len(live) else 0):
        if p == 1:  # Armijo backtracking from the nearest data point
            near = n.min(axis=1) < 1e-3
            if near.any():
                nearest = np.arange(len(live)), n.argmin(axis=1)
                t, slack = reach[nearest], dn[nearest] - mass[nearest]
                start, way = z[nearest], out[nearest]
                for _ in range(60):
                    cand = start + t[:, None] * way
                    trial = parts(cand)
                    ok = near & (trial[3] <= f - 0.5 * t * slack)
                    accept(ok, cand, trial)
                    near &= ~ok
                    if not near.any():
                        break
                    t = 0.5 * t
        b = wk * a ** (q - 1.0) * np.sign(v)
        n1 = np.where(n > 0, n, 1.0)
        u = (mp * n1 ** (p - q))[:, :, None] * b  # d/dv of term i
        coef = mp * np.maximum(n, 1e-12) ** (p - q)
        rank = (p - q) / n1**q
        diag = wq * np.maximum(a, 1e-12) ** (q - 2.0)
        curv = (coef[:, None, :] @ diag)[:, 0]
        H = outer_sum(b, coef * rank)
        hd = diagonal(H)
        hd += curv
        damp = np.maximum(hd, 1e-12 * np.maximum(hd.max(axis=1), 1.0)[:, None])
        reg = (mu[:, None] + 1e-12) * damp
        hd += reg  # H is now the damped Newton matrix
        g = u.sum(axis=1)  # minus the gradient in y
        s = np.linalg.solve(H, g[:, :, None])[:, :, 0]
        bs = (b @ s[:, :, None])[:, :, 0]
        split = u - coef[:, :, None] * (rank[:, :, None] * bs[:, :, None] * b + diag * s[:, None])
        split -= share * split.sum(axis=1)[:, None, :]
        lower = np.maximum(lower, _fenchel_bound(v, split, wk, mass, p, q))
        done = f - lower <= tol
        if steps == max_steps:
            done[:] = True
        stop = done.any()
        if stop:  # recorded before any move; finished rows ride along
            finish(done, steps)
            if done.all():
                break
        trial = parts(y + s)
        pred = 0.5 * ((g + reg * s) * s).sum(axis=1)  # g.s - s.Hs/2 of the undamped H
        lm = map(_levenberg_marquardt, f.tolist(), trial[3].tolist(), pred.tolist(), mu.tolist())
        rho, mu = (np.array(col) for col in zip(*lm))
        move = rho > 1e-4
        still = ~move  # the rows that take no step
        if q < 2 or p < 2:  # a step across a kink of |v_c| (q < 2) or ||v_i|| (p < 2)
            vs = v * (v - s[:, None, :])
            kink = (vs < 0).any(axis=(1, 2)) if q < 2 else (vs.sum(axis=2) < 0).any(axis=1)
            if kink.any():  # competes with the majorizing step, taken where it beats both
                mm = outer_sum(b, coef * np.maximum(rank, 0.0))
                diagonal(mm)[...] += curv * max(1.0, 1.0 / (q - 1.0)) + 1e-12 * damp
                ym = y + np.linalg.solve(mm, g[:, :, None])[:, :, 0]
                cand = parts(ym)
                took = kink & (cand[3] < np.minimum(trial[3], f))
                accept(took, ym, cand)
                move &= ~took
                still &= ~took
        accept(move, y + s, trial)
        stuck = mu > 1e12
        if stuck.any():
            stuck &= still & ~done
            stop |= stuck.any()
            finish(stuck, steps)
        if stop:
            keep = ~(done | stuck)
            live, z, wk, mass, share, mp, wq, tol = (
                arr[keep] for arr in (live, z, wk, mass, share, mp, wq, tol)
            )
            y, v, a, n, f, lower, mu = (arr[keep] for arr in (y, v, a, n, f, lower, mu))
            if p == 1:
                out, reach, dn = out[keep], reach[keep], dn[keep]
            if not len(live):
                break
    return result()


def _frank_wolfe(pts, mass, w, p, q, tol, max_iters=1000):
    """Pairwise Frank-Wolfe for q = 1, p > 1 on a stack of T problems of one shape.

    ``pts`` (T, k, c), ``mass`` (T, k) and ``w`` (T, c) are as for
    ``_newton``; ``q`` is 1.  Each problem minimizes phi(t) = sum_i
    mass_i t_i^p over convex combinations of oracle vertices t_v =
    dists(y_v), the w-weighted l1 distances, starting from the clipped
    weighted mean.  Each step moves weight from the away atom (largest
    g . t_v) to the oracle vertex, which converges linearly on polytopes
    (Lacoste-Julien & Jaggi, NeurIPS 2015); the step is the drop step, the
    exact line search at p = 2 or a 50-step bisection.  Every oracle call,
    a per-column weighted median, also gives the Fenchel lower bound
    g . t_s - phi*(g); a problem stops once phi(t) is within tol of its best
    one.  The problems run in lockstep, a problem leaves the stack when it
    stops, and the atoms sit in padded (T, A, .) arrays, each problem's in
    the order it found them, summed term by term so that the padding
    changes no bit.  Returns (y = sum_v alpha_v y_v, best bound, oracle
    calls), one row per problem; by convexity dists(y) <= t.
    """
    T, k, c = pts.shape
    order, xs = _sorted_columns(pts)
    wk = w[:, None, :]
    y0 = (mass[:, :, None] * pts).sum(axis=1) / mass.sum(axis=1)[:, None]
    y0 = np.clip(y0, xs[:, 0], xs[:, -1])
    y_out, lower_out, calls_out = np.zeros((T, c)), np.zeros(T), np.zeros(T, dtype=int)
    live = np.arange(T)

    def dists(y):  # of the problems still running
        return (np.abs(pts - y[:, None, :]) * wk).sum(axis=2)

    ys, ts, alpha = y0[:, None, :], dists(y0)[:, None, :], np.ones((T, 1))
    lower = np.full(T, -math.inf)

    def leave(rows, calls):  # record the rows of a mask and drop them from the stack
        nonlocal live, pts, order, xs, wk, mass, ys, ts, alpha, lower
        ids = live[rows]
        y_out[ids] = _ordered_sum(alpha[rows, :, None] * ys[rows], 1)
        lower_out[ids], calls_out[ids] = lower[rows], calls
        keep = ~rows
        live, pts, order, xs, wk, mass, ys, ts, alpha, lower = (
            arr[keep] for arr in (live, pts, order, xs, wk, mass, ys, ts, alpha, lower)
        )

    for calls in range(1, max_iters + 1):
        t = _ordered_sum(alpha[:, :, None] * ts, 1)
        g = mass * p * t ** (p - 1.0)
        y_s = _weighted_median_columns(order, xs, g)
        t_s = dists(y_s)
        lower = np.maximum(lower, (g * t_s).sum(axis=1) - _conjugate_power_sum(g, p, mass))
        done = (mass * t**p).sum(axis=1) - lower <= tol
        if done.any():
            leave(done, calls)
            if not len(live):
                break
            t, g, y_s, t_s = t[~done], g[~done], y_s[~done], t_s[~done]
        rows = np.arange(len(live))
        a = np.where(alpha > 0, (ts * g[:, None, :]).sum(axis=2), -np.inf).argmax(axis=1)
        dt, amax = t_s - ts[rows, a], alpha[rows, a]

        def slope(gamma):
            return (mass * np.maximum(t + gamma[:, None] * dt, 0.0) ** (p - 1.0) * dt).sum(axis=1)

        line = slope(amax) > 0  # elsewhere the drop step: the away atom leaves
        if p == 2:
            md = mass * dt
            exact = -(md * t).sum(axis=1) / np.where(line, (md * dt).sum(axis=1), 1.0)
            gamma = np.where(line, np.minimum(amax, np.maximum(0.0, exact)), amax)
        else:
            lo, hi = np.zeros(len(live)), amax
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                down = slope(mid) < 0
                lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
            gamma = np.where(line, lo, amax)
        same = (ys == y_s[:, None, :]).all(axis=2) & (alpha > 0)
        known, s = same.any(axis=1), same.argmax(axis=1)
        # no descent along the pairwise direction, or the oracle vertex is the away atom
        stuck = (gamma <= 0) | (known & (s == a))
        if stuck.any():
            leave(stuck, calls)
            if not len(live):
                break
            keep = ~stuck
            rows, t_s, y_s, a, amax, gamma, known, s = (
                np.arange(len(live)), t_s[keep], y_s[keep], a[keep], amax[keep], gamma[keep],
                known[keep], s[keep],
            )
        fresh = ~known
        if fresh.any():  # the oracle vertex joins after each problem's atoms
            s[fresh] = (alpha[fresh] > 0).sum(axis=1)
            if s.max() == alpha.shape[1]:
                ys = np.concatenate([ys, np.full((len(live), 1, c), -0.0)], axis=1)
                ts = np.concatenate([ts, np.zeros((len(live), 1, k))], axis=1)
                alpha = np.concatenate([alpha, np.zeros((len(live), 1))], axis=1)
            ys[fresh, s[fresh]], ts[fresh, s[fresh]] = y_s[fresh], t_s[fresh]
        alpha[rows, s] += gamma
        left = np.where(gamma == amax, 0.0, amax - gamma)
        alpha[rows, a] = left
        if (left == 0).any():  # the atoms that keep weight move up, in order
            move = np.argsort(alpha == 0, axis=1, kind="stable")[:, : (alpha > 0).sum(axis=1).max()]
            alpha, ys, ts = alpha[rows[:, None], move], ys[rows[:, None], move], ts[rows[:, None], move]
            ys[alpha == 0] = -0.0  # padding: adds -0.0, which changes no bit
    if len(live):
        leave(np.ones(len(live), dtype=bool), max_iters)
    return y_out, lower_out, calls_out


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
    """One sequential sweep t_a <- max(t_a, max_l D_al - t_l); feasible after
    it.  Leading axes are batch axes."""
    t = t.copy()
    for a in range(t.shape[-1]):
        t[..., a] = np.maximum(t[..., a], (D[..., a, :] - t).max(axis=-1))
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
    """argmin ||A u - b|| over u >= 0 for each matrix of a stack A (T, M, n),
    by Lawson & Hanson's active-set method (Solving Least Squares Problems,
    ch. 23), at most 3n outer steps each.

    The problems run in lockstep, each through its own sequence of outer
    and inner steps; the free sets are per-problem masks, and each round
    solves the least-squares problems of the running ones by one stacked
    SVD, the columns outside each free set zeroed and singular values below
    max(M, n) eps of the largest cut, as ``np.linalg.lstsq`` cuts them.
    Not scipy.optimize.nnls: on some degenerate radii steps it returns a
    point that fails the optimality conditions, and the dual bound read
    from it is worthless.
    """
    T, M, n = A.shape
    tiny = 10 * np.finfo(float).eps * max(M, n) * np.abs(A).sum(axis=1).max(axis=1)
    free, u = np.zeros((T, n), dtype=bool), np.zeros((T, n))
    grad = (A.transpose(0, 2, 1) @ b[:, None])[:, :, 0]
    outer, inner, live = np.zeros(T, dtype=int), np.zeros(T, dtype=bool), np.ones(T, dtype=bool)
    while True:
        head = live & ~inner  # at the top of an outer step
        if head.any():
            cand = np.where(free, -np.inf, grad)
            live &= ~(head & ((outer == 3 * n) | (cand.max(axis=1) <= tiny)))
            add = np.flatnonzero(head & live)
            free[add, cand[add].argmax(axis=1)] = True
            outer[add] += 1
            inner[add] = True
        run = np.flatnonzero(live)
        if not len(run):
            return u
        on = free[run]
        U, s, Vt = np.linalg.svd(A[run] * on[:, None, :], full_matrices=False)
        big = s > max(M, n) * np.finfo(float).eps * s[:, :1]
        coef = np.where(big, (U * b[:, None]).sum(axis=1) / np.where(big, s, 1.0), 0.0)
        v = np.where(on, (Vt * coef[:, :, None]).sum(axis=1), 0.0)
        ok = np.where(on, v, np.inf).min(axis=1) > 0
        done = run[ok]
        if len(done):  # the inner loop ends: u = v, and the gradient at it
            u[done] = v[ok]
            r = b - (A[done] @ u[done][:, :, None])[:, :, 0]
            grad[done] = (A[done].transpose(0, 2, 1) @ r[:, :, None])[:, :, 0]
            inner[done] = False
        back = run[~ok]
        if len(back):  # step back to the first column that leaves
            ub, vb, fb = u[back], v[~ok], on[~ok]
            out = fb & (vb <= 0)
            step = np.where(out, ub / np.where(out, ub - vb, 1.0), np.inf).min(axis=1)
            ub = ub + step[:, None] * (vb - ub)
            fb &= ub > tiny[back, None]
            u[back], free[back] = np.where(fb, ub, 0.0), fb


def _radii(D, lam, p, tol, max_steps=50):
    """min sum lam_i t_i^p over the radii polyhedron {t >= 0, t_i + t_l >= D_il},
    for a stack of T problems with k points each: D (T, k, k), lam (T, k) > 0.

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
    s <= lam, give the dual bound h(z).  A problem stops once its gap is at
    most tol or a few ulps of its value, when a step neither lowers the
    value nor raises the bound, or when rounding has eaten the
    least-distance solution.  The problems run in lockstep, one stacked
    NNLS a step, and a problem leaves the stack when it stops; every sum
    works within one problem's row.  Its radii are then tightened
    (``_tighten``, a function of the radii and D alone, so an entry's value
    still depends only on its memo key), and their sum lam t^p is rounded
    up by (k + 1) ulps so that it bounds the exact sum.  Returns (radii,
    that sum, the best bound capped at it, steps), one row per problem.
    """
    T, k = lam.shape
    top = D.max(axis=(1, 2))
    radii, values, bounds, steps_out = np.zeros((T, k)), np.zeros(T), np.zeros(T), np.zeros(T, dtype=int)
    live = np.flatnonzero(top > 0)  # the others are solved by t = 0
    if not len(live):
        return radii, values, bounds, steps_out
    # solve at unit scale: radii in units of top, values in units of top^p lam.max()
    unit = top[live] ** p * lam[live].max(axis=1)
    Dn, lamn = D[live] / top[live, None, None], lam[live] / lam[live].max(axis=1)[:, None]
    tol = tol / unit
    B, i, l = _pair_rows(k)
    m = len(i)
    lo = np.concatenate([Dn[:, i, l], np.zeros((len(live), k))], axis=1)  # G t >= lo, G = [B; I]
    GT = np.hstack([B.T, np.eye(k)])
    e_last = np.zeros(k + 1)
    e_last[k] = 1.0
    floor, ulps = 1e-12 ** (1.0 / p), 8 * np.finfo(float).eps
    t_out, lower_out = np.zeros((len(live), k)), np.zeros(len(live))
    at = np.arange(len(live))  # each running problem's row in t_out

    def phi(t):
        return (lamn * t**p).sum(axis=1)

    t = _make_feasible(0.5 * Dn.max(axis=2), Dn)
    upper, lower = phi(t), np.zeros(len(live))  # h(0) = 0

    def leave(rows, steps):  # record the rows of a mask and drop them from the stack
        nonlocal at, Dn, lamn, tol, lo, t, upper, lower
        t_out[at[rows]], lower_out[at[rows]], steps_out[live[at[rows]]] = t[rows], lower[rows], steps
        keep = ~rows
        at, Dn, lamn, tol, lo, t, upper, lower = (
            arr[keep] for arr in (at, Dn, lamn, tol, lo, t, upper, lower)
        )

    for steps in range(max_steps + 1):
        done = upper - lower <= np.maximum(tol, ulps * upper)
        if steps == max_steps:
            done[:] = True
        if done.any():
            leave(done, steps)
            if not len(at):
                break
        if p == 1:
            g, a = lamn, lamn / 2.0**steps
        else:
            ts = np.maximum(t, floor)
            g = p * lamn * ts ** (p - 1.0)
            a = (p - 1.0) * g / ts
        c = t - g / a  # unconstrained minimizer of the model
        sa = 1.0 / np.sqrt(a)
        h = lo - np.concatenate([c[:, i] + c[:, l], c], axis=1)
        E = np.concatenate([GT * sa[:, :, None], h[:, None, :]], axis=1)
        u = _nnls(E, e_last)
        den = 1.0 - (h * u).sum(axis=1)
        lost = ~(den > 0)  # the least-distance problem is lost in rounding
        if lost.any():
            leave(lost, steps + 1)
            if not len(at):
                break
            keep = ~lost
            c, sa, E, u, den = c[keep], sa[keep], E[keep], u[keep], den[keep]
        z = u[:, :m] / den[:, None]
        s = (B.T * z[:, None, :]).sum(axis=2)
        if p == 1:
            z *= np.minimum(1.0, (lamn / np.maximum(s, 1e-300)).min(axis=1))[:, None]
        bound = (lo[:, :m] * z).sum(axis=1) - _conjugate_power_sum(s, p, lamn)
        d = np.maximum(c + sa * (E[:, :k] * u[:, None, :]).sum(axis=2) / den[:, None], 0.0) - t
        slope = (p * lamn * t ** (p - 1.0) * d).sum(axis=1)
        alpha = np.ones(len(at))
        while True:
            back = (phi(t + alpha[:, None] * d) > upper + 1e-4 * alpha * slope) & (alpha > 1e-10)
            if not back.any():
                break
            alpha[back] *= 0.5
        t_new = _make_feasible(t + alpha[:, None] * d, Dn)
        f_new = phi(t_new)
        better = f_new < upper
        stalled = ~(better | (bound > lower))  # no progress left at this precision
        lower = np.maximum(lower, bound)
        t[better], upper[better] = t_new[better], f_new[better]
        if stalled.any():
            leave(stalled, steps + 1)
            if not len(at):
                break
    for row, j in enumerate(live):
        t = _tighten(t_out[row] * top[j], D[j])
        radii[j] = t
        values[j] = float((lam[j] * t**p).sum()) * (1.0 + (k + 1) * np.finfo(float).eps)
        bounds[j] = min(lower_out[row] * unit[row], values[j])
    return radii, values, bounds, steps_out


def _canonical_qinf(points, lam, p):
    """Canonical form of a q = inf hub problem: (D, lam, x, rows, key).

    Weightless points constrain nothing and are dropped (one is kept when
    all are).  ``D`` holds the pairwise l_inf distances of the points ``x``
    left, rows sorted with ``lam`` by (weight, sorted distances); the radii
    of ``x`` are the canonical ones put back in place by ``rows``.
    """
    lam = np.ones(points.shape[0]) if lam is None else lam
    keep = lam > 0
    if not keep.any():
        keep = np.arange(len(lam)) == 0
    x, lam = points[keep], lam[keep]
    D = _pairwise_linf(x)
    rows = np.lexsort(np.hstack([lam[:, None], np.sort(D, axis=1)]).T[::-1])
    lam, D = lam[rows], D[np.ix_(rows, rows)]
    return D, lam, x, rows, (p, math.inf, lam.tobytes(), D.tobytes())


# ---------------------------------------------------------------------------
# Public entry points

_MEMO_CAP = 4096  # canonical solutions kept; the memo is emptied when full
_MEMO = {}
_BATCH_WORK = 1 << 20  # floats of engine work arrays the misses of one batch may need


def _remember(key, entry):
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = entry


def _work(x, q):
    """Floats of engine work arrays one canonical problem adds to its stack:
    at q = inf (x is the (k, k) distance matrix) the least-distance matrix
    and its SVD, at q = 1 the sorted columns and 16 atoms, else the Newton
    Hessian and pair terms."""
    k, c = x.shape
    if q == math.inf:
        return 3 * (k + 1) * (k * (k + 1) // 2)
    if q == 1:
        return 4 * k * c + 16 * (c + k)
    return c * (c + k**2)


def _certified(method, value, y, lower, steps, tol):
    """An iterative engine's solution.  Its bound is rounded down by 4 ulps
    of the value, so that the rounding of either never puts the bound above
    the value, and kept >= 0, which bounds every objective; an open gap is
    logged."""
    lower = max(0.0, min(float(lower), value) - 4 * math.ulp(value))
    if value - lower > tol:
        logger.debug(
            "%s stopped after %d steps with gap %.3e above tol %.3e",
            method, steps, value - lower, tol,
        )
    return FpqSolution(value, y, value - lower, method, lower)


def _solve_canonical(problems, tol):
    """Solutions of canonical problems (x, w, lam, p, q), in order.

    The one place that picks an engine and forms stacks.  At q = inf, x is
    the (k, k) distance matrix of ``_canonical_qinf`` (w is None) and the
    minimizer is the radii; otherwise it is in the canonical columns.  The
    closed forms are solved here one by one.  For Newton (1 < q < inf but
    p = q = 2) and Frank-Wolfe (q = 1, p > 1) weightless rows are dropped
    and equal rows merged, their weights added, and a problem left with one
    point is solved there.  Every other problem goes to its iterative
    engine in one stack per (engine, p, q, shape): radii per k, the others
    per merged (k, c).
    """
    out, stacks = [None] * len(problems), {}
    for i, (x, w, lam, p, q) in enumerate(problems):
        if q == math.inf:
            stacks.setdefault(("linf-radii", p, q, x.shape), []).append((i, x, lam, w))
            continue
        if x.shape[1] == 0:
            out[i] = FpqSolution(0.0, np.zeros(0), 0.0, "constant", 0.0)
        elif p == 2 and q == 2:
            y, val = _solve_mean_22(x, w, lam)
            out[i] = FpqSolution(val, y, 0.0, "closed-form-22", val)
        elif q == 1 and p == 1:
            y, val = _solve_median_q1p1(x, w, lam)
            out[i] = FpqSolution(val, y, 0.0, "coordinate-q1", val)
        else:
            method = "pairwise-frank-wolfe" if q == 1 else "newton"
            keep = lam > 0
            rows, _, inv, _ = unique_columns(x[keep].T)  # equal points merge into one
            pts, mass = rows.T, np.bincount(inv, lam[keep])
            if len(pts) < 2:
                y = (pts if len(pts) else x)[0].copy()
                out[i] = _certified(method, _wobj(x, w, y, p, q, lam), y, 0.0, 0, tol)
            else:
                stacks.setdefault((method, p, q, pts.shape), []).append((i, pts, mass, w))
    for (method, p, q, _), stack in stacks.items():
        rows, a, mass, w = zip(*stack)
        if method == "linf-radii":
            y, values, lower, steps = _radii(np.array(a), np.array(mass), p, tol)
        else:
            engine = _newton if method == "newton" else _frank_wolfe
            y, lower, steps = engine(np.array(a), np.array(mass), np.array(w), p, q, tol)
        for at, i in enumerate(rows):
            x, w, lam = problems[i][:3]
            value = float(values[at]) if method == "linf-radii" else _wobj(x, w, y[at], p, q, lam)
            out[i] = _certified(method, value, y[at], lower[at], steps[at], tol)
    return out


def _canonical_problem(prob):
    """A problem's canonical problem (x, w, lam, p, q), its memo key, and the
    function that places a solution of it in the problem's coordinates."""
    p, q = prob.p, prob.q
    if q == math.inf:
        D, lam, x, rows, key = _canonical_qinf(prob.points, prob.weights, p)

        def place(sol):  # the hub of the problem's own points, read off the radii
            t = np.empty(len(rows))
            t[rows] = sol.minimizer
            return replace(sol, minimizer=_hub_from_radii(x, t))

        return (D, None, lam, p, q), key, place
    x, w, lam, col_of, var, key = _canonical(prob.points, prob.weights, p, q)

    def place(sol):  # constant columns keep the problem's values
        y = prob.points[0].copy()
        y[var] = sol.minimizer[col_of]
        return replace(sol, minimizer=y)

    return (x, w, lam, p, q), key, place


def solve_fpq_values(probs, tol: float = 1e-8):
    """The values and lower bounds of ``solve_fpq`` over an iterable of
    problems, in order, as two float arrays.

    Each problem is canonicalized as it comes and looked up in the memo.  A
    miss waits with the misses before it; each distinct canonical problem
    among them is solved once, by ``_solve_canonical``, when the input
    ends, when the misses waiting number ``_MEMO_CAP`` or when their engine
    work arrays (``_work``) would pass ``_BATCH_WORK`` floats.  A problem's
    result does not depend, in any bit, on the other problems in the batch.
    No minimizer is placed and a problem keeps nothing of its own once
    canonicalized, so memory grows with the number of problems, not with
    their dimension.  A problem's tolerance is its value minus its bound.
    """
    check_tol(tol)
    values, lower, misses, work = [], [], {}, 0

    def solve_misses():
        sols = _solve_canonical([canon for canon, _ in misses.values()], tol)
        for (key, (_, users)), sol in zip(misses.items(), sols):
            _remember(key, sol)
            for i in users:
                values[i], lower[i] = sol.value, sol.lower_bound
        misses.clear()

    for i, prob in enumerate(probs):
        canon, key, _ = _canonical_problem(prob)
        sol = _MEMO.get(key)
        hit = sol is not None and sol.tolerance <= tol
        values.append(sol.value if hit else None)
        lower.append(sol.lower_bound if hit else None)
        if hit:
            continue
        if key not in misses:
            misses[key] = canon, []
            work += _work(canon[0], prob.q)
        misses[key][1].append(i)
        if len(misses) == _MEMO_CAP or work > _BATCH_WORK:
            solve_misses()
            work = 0
    solve_misses()
    return np.array(values, dtype=float), np.array(lower, dtype=float)


def solve_fpq(prob: FpqProblem, tol: float = 1e-8) -> FpqSolution:
    """Minimize sum_i w_i ||z_i - y||_q^p over y.

    ``tol`` is the accuracy target, and every path but the closed forms
    reports ``tolerance`` = value - lower_bound, a certified gap, with the
    bound rounded down by a few ulps of the value.  Pairwise Frank-Wolfe
    (q = 1) stops once it is at most ``tol`` or after 1000 oracle calls; at
    q = inf the radii problem takes at most 50 NNLS steps (proximal point
    steps at p = 1, SQP steps at p > 1), stopped once the gap is at most
    ``tol`` or a few ulps of the value, and ``lower_bound`` is the Lagrange
    dual at a point z >= 0; at q in (1, inf) damped Newton stops once its
    Fenchel dual bound is within ``tol`` or after 100 steps.  A memoized
    solution of the same canonical problem (at q = inf: the same weights
    and pairwise distances) is reused when its gap is at most ``tol``;
    otherwise the canonical problem is solved alone and remembered.
    """
    check_tol(tol)
    canon, key, place = _canonical_problem(prob)
    sol = _MEMO.get(key)
    if sol is None or sol.tolerance > tol:
        (sol,) = _solve_canonical([canon], tol)
        _remember(key, sol)
    return place(sol)


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
