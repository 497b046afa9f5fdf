"""Independent reference computations for the benchmark's checks.

Nothing here imports barygap: every expected answer is computed from the
raw inputs (edge lists, atom arrays, masses) with plain Python, numpy and
scipy, so a fault in the library cannot hide in its own check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import linprog, minimize


# ---------------------------------------------------------------------------
# Graphs


def has_clique(n, edges, k):
    """Brute force over k-subsets of {0..n-1}."""
    adj = {frozenset(e) for e in edges}
    return any(
        all(frozenset((a, b)) in adj for a, b in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(n), k)
    )


def max_tuple_edges(n, edges, k):
    """M: the largest number of adjacent index pairs over all n^k vertex tuples."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        adj[u, v] = adj[v, u] = 1
    idx = np.indices((n,) * k).reshape(k, -1)
    count = np.zeros(idx.shape[1], dtype=np.int64)
    for i, j in itertools.combinations(range(k), 2):
        count += adj[idx[i], idx[j]]
    return int(count.max())


def q22_gadget_value(n, edges, k):
    """Exact p=q=2 gadget value D(k-1)^2 - 2M/k of a D-regular graph."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return Fraction(deg[0] * (k - 1) ** 2) - Fraction(2 * max_tuple_edges(n, edges, k), k)


# ---------------------------------------------------------------------------
# Transport linear programs, assembled here and solved by HiGHS


def tuple_index(shape):
    """All tuples of range(s_0) x ... x range(s_{k-1}) in lexicographic order, (k, N)."""
    return np.indices(shape).reshape(len(shape), -1)


def marginal_matrix(shape):
    """Sparse 0/1 matrix mapping a flat k-way plan to its stacked marginals."""
    idx = tuple_index(shape)
    total = idx.shape[1]
    offsets = np.concatenate([[0], np.cumsum(shape)[:-1]])
    rows = np.concatenate([offsets[i] + idx[i] for i in range(len(shape))])
    cols = np.tile(np.arange(total), len(shape))
    return sparse.csr_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(int(sum(shape)), total)
    )


def highs_min(cost, a_eq, b_eq):
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def mot_value(costs, masses):
    """Multimarginal LP value over a flat lexicographic cost vector."""
    shape = tuple(len(m) for m in masses)
    return highs_min(np.asarray(costs, dtype=float), marginal_matrix(shape), np.concatenate(masses))


def q22_tuple_costs(atoms, weights):
    """sum_i w_i ||x_i||^2 - ||sum_i w_i x_i||^2 over all tuples (weights sum to 1)."""
    shape = tuple(a.shape[0] for a in atoms)
    idx = tuple_index(shape)
    acc = np.zeros((idx.shape[1], atoms[0].shape[1]))
    cost = np.zeros(idx.shape[1])
    for i, a in enumerate(atoms):
        x = a[idx[i]]
        cost += weights[i] * (x * x).sum(axis=1)
        acc += weights[i] * x
    return cost - (acc * acc).sum(axis=1)


def q22_tuple_costs_exact(atoms):
    """Exact Fractions of the uniform-weight p=q=2 tuple cost, integer atoms."""
    k = len(atoms)
    ints = [[tuple(int(round(v)) for v in row) for row in a] for a in atoms]
    out = []
    for t in itertools.product(*(range(len(a)) for a in ints)):
        xs = [ints[i][t[i]] for i in range(k)]
        sq = sum(sum(v * v for v in x) for x in xs)
        tot = [sum(col) for col in zip(*xs)]
        out.append(Fraction(sq, k) - Fraction(sum(v * v for v in tot), k * k))
    return out


def pair_costs(a, b, p, q):
    diff = np.abs(a[:, None, :] - b[None, :, :])
    dist = diff.max(axis=2) if q == math.inf else (diff**q).sum(axis=2) ** (1.0 / q)
    return dist**p


def ot_value(a, ma, b, mb, p, q):
    return mot_value(pair_costs(a, b, p, q).ravel(), [ma, mb])


def union_support_value(atoms, masses, weights, p, q):
    """Barycenter restricted to the union of the input supports, as one LP."""
    union = np.unique(np.vstack(atoms), axis=0)
    s = union.shape[0]
    blocks_cost, eq_rows = [], []
    nplan = sum(a.shape[0] * s for a in atoms)
    col = 0
    b = []
    link = []
    for i, a in enumerate(atoms):
        n = a.shape[0]
        blocks_cost.append(weights[i] * pair_costs(a, union, p, q).ravel())
        # row sums of plan i equal mu_i
        for j in range(n):
            eq_rows.append({col + j * s + l: 1.0 for l in range(s)})
            b.append(masses[i][j])
        link.append((col, n))
        col += n * s
    # column sums of every plan equal the shared weights w (last s variables)
    for c0, n in link:
        for l in range(s):
            row = {c0 + j * s + l: 1.0 for j in range(n)}
            row[nplan + l] = -1.0
            eq_rows.append(row)
            b.append(0.0)
    r, c, v = [], [], []
    for i, row in enumerate(eq_rows):
        for j, val in row.items():
            r.append(i)
            c.append(j)
            v.append(val)
    a_eq = sparse.csr_matrix((v, (r, c)), shape=(len(eq_rows), nplan + s))
    cost = np.concatenate(blocks_cost + [np.zeros(s)])
    return highs_min(cost, a_eq, np.array(b))


# ---------------------------------------------------------------------------
# Hub costs min_y sum_i w_i ||x_i - y||_q^p in epigraph form


def _hub_value(x, w, y, p, q):
    diff = np.abs(x - y)
    dist = diff.max(axis=1) if q == math.inf else (diff**q).sum(axis=1) ** (1.0 / q)
    return float((w * dist**p).sum())


def _polyhedral_constraints(x, q):
    """Rows G z >= h over z = [y (d), t (k), s (k*d if q=1)] with t_i >= ||x_i - y||_q."""
    k, d = x.shape
    extra = k * d if q == 1 else 0
    n = d + k + extra
    rows, rhs = [], []
    for i in range(k):
        for c in range(d):
            slot = d + k + i * d + c if q == 1 else d + i
            for sign in (1.0, -1.0):
                r = np.zeros(n)
                r[slot] = 1.0
                r[c] = sign
                rows.append(r)
                rhs.append(sign * x[i, c])
        if q == 1:
            r = np.zeros(n)
            r[d + i] = 1.0
            r[d + k + i * d : d + k + (i + 1) * d] = -1.0
            rows.append(r)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs), n


def _euclidean_median(x, w):
    """min_y sum_i w_i ||x_i - y||_2 through the smoothed objective
    sum_i w_i sqrt(||x_i - y||^2 + eps^2), eps driven down to 1e-10 (each
    smoothed value overestimates the true one by at most eps)."""
    best_y = min(x, key=lambda y: _hub_value(x, w, y, 1, 2.0))
    y = x.mean(axis=0)
    for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        def f(y, eps=eps):
            r = np.sqrt(((x - y) ** 2).sum(axis=1) + eps * eps)
            return float((w * r).sum()), (w[:, None] * (y - x) / r[:, None]).sum(axis=0)

        y = minimize(f, y, jac=True, method="BFGS", options={"gtol": 1e-13, "maxiter": 500}).x
    return min(_hub_value(x, w, y, 1, 2.0), _hub_value(x, w, best_y, 1, 2.0))


def hub_cost(x, w, p, q):
    """Independent minimum of sum_i w_i ||x_i - y||_q^p.

    p = 1 with q in {1, inf} is one LP (HiGHS), and (p, q) = (1, 2) is the
    smoothed Euclidean median.  Otherwise the epigraph form
    min sum_i w_i t_i^p, t_i >= ||x_i - y||_q is solved by SLSQP from the
    mean and from the coordinate median; the better hub is evaluated
    exactly.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    k, d = x.shape
    if p == 1 and q == 2:
        return _euclidean_median(x, w)
    if q in (1, math.inf):
        g, h, n = _polyhedral_constraints(x, q)
        if p == 1:
            cost = np.zeros(n)
            cost[d : d + k] = w
            res = linprog(cost, A_ub=-g, b_ub=-h, bounds=[(None, None)] * d + [(0, None)] * (n - d),
                          method="highs")
            if res.status != 0:
                raise RuntimeError(f"reference hub LP failed: {res.message}")
            return _hub_value(x, w, res.x[:d], p, q)
        cons = [{"type": "ineq", "fun": lambda z: g @ z - h, "jac": lambda z: g}]
    else:
        n = d + k

        def cfun(z):
            y, t = z[:d], z[d:]
            return t**q - (np.abs(x - y) ** q).sum(axis=1)

        def cjac(z):
            y, t = z[:d], z[d:]
            jac = np.zeros((k, n))
            diff = y - x
            jac[:, :d] = -q * np.abs(diff) ** (q - 1) * np.sign(diff)
            jac[np.arange(k), d + np.arange(k)] = q * np.maximum(t, 0.0) ** (q - 1)
            return jac

        cons = [{"type": "ineq", "fun": cfun, "jac": cjac}]

    def obj(z):
        return float((w * np.maximum(z[d : d + k], 0.0) ** p).sum())

    def grad(z):
        out = np.zeros(n)
        out[d : d + k] = w * p * np.maximum(z[d : d + k], 0.0) ** (p - 1)
        return out

    best = math.inf
    for y0 in (x.mean(axis=0), np.median(x, axis=0)):
        diff = np.abs(x - y0)
        z0 = np.zeros(n)
        z0[:d] = y0
        z0[d : d + k] = (diff.max(axis=1) if q == math.inf else (diff**q).sum(axis=1) ** (1 / q)) + 1e-3
        if q == 1:
            z0[d + k :] = diff.ravel() + 1e-3 / d
        res = minimize(obj, z0, jac=grad, constraints=cons, method="SLSQP",
                       bounds=[(None, None)] * d + [(0, None)] * (n - d),
                       options={"ftol": 1e-15, "maxiter": 2000})
        best = min(best, _hub_value(x, w, res.x[:d], p, q))
    return best
