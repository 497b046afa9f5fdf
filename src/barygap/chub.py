"""Brute-force hub-selection solver: minimize F_{p,q} over all n^k tuples.

Enumeration is exhaustive, in the package's one tuple order (numpy C order,
``graph._iter_tuple_chunks``).  ``tuple_costs`` is the one place that turns
support tuples into hub values, for this sweep and for the multimarginal
LP's cost tensor (``bary.bary_value_mot``).  At p=q=2 one Gram kernel,
``_gram_costs``, gives every tuple's value at once, exactly in integers for
the gadget and in Python ints for exact transport.  Elsewhere every tuple
is one ``fpq.solve_fpq`` call, whose memo is keyed on the canonical hub
problem, so two tuples whose selected point matrices agree up to a point or
coordinate permutation are usually solved once.  For embedded configs the
tuples are first grouped by their induced edge pattern (plus the degree
profile for the q=inf embedding), computed vectorized for the whole tuple
space, and only one representative per class is solved.  Every tuple is
still assigned its value; caching never prunes.  With ``keep_per_tuple``
the result carries every tuple's value as a flat array in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embed import PointConfig
from .errors import InputError, ResourceCapError
from .fpq import FpqProblem, solve_fpq, unique_columns
from .graph import DEFAULT_ENUM_CAP, Graph, _iter_tuple_chunks

CHUNK = 65536  # tuples per vectorized block


@dataclass
class ChubResult:
    value: float
    argmin: tuple
    tolerance: float
    method: str
    value_exact: Fraction | None = None
    per_tuple: np.ndarray | None = None  # flat, C order over (n,) * k

    def to_json(self):
        out = {
            "value": self.value,
            "argmin": list(self.argmin),
            "tolerance": self.tolerance,
            "method": self.method,
        }
        if self.value_exact is not None:
            out["value_exact"] = [self.value_exact.numerator, self.value_exact.denominator]
        return out


def _check_cap(n, k, cap):
    total = n**k
    if total > cap:
        raise ResourceCapError(
            f"enumerating {total} tuples exceeds cap {cap}", required=total, cap=cap
        )


def _pair_list(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def _source_graph(config: PointConfig):
    src = config.source or {}
    if "graph" in src and src.get("embedding") in ("phi", "psi", "xi"):
        return Graph.from_json(src["graph"]), src["embedding"]
    return None, None


def chub_closed_form_22(g: Graph, k, cap=DEFAULT_ENUM_CAP) -> Fraction:
    """Exact p=q=2 value D(k-1)^2 - (2/k) * max_multiset_edges(g, k)."""
    from .graph import max_multiset_edges

    if not g.is_regular():
        raise InputError("closed form requires a regular graph")
    d = g.regular_degree()
    m = d * (k - 1) ** 2
    best = max_multiset_edges(g, k, cap=cap)
    return Fraction(k * m - 2 * best, k)


def solve_chub(
    config: PointConfig,
    tol: float = 1e-6,
    cap: int = DEFAULT_ENUM_CAP,
    keep_per_tuple: bool = False,
) -> ChubResult:
    """Minimize F_{p,q} over all tuples of ``config``.

    The p=q=2 regime is exact: integer Gram arithmetic gives every tuple's
    value as a Fraction, and the result carries ``value_exact``.  Elsewhere
    inner solves run at tolerance tol/2, one per edge-pattern class (one per
    tuple when the config has no source graph); the reported ``tolerance``
    is the larger of ``tol`` and the largest tolerance an inner solve
    reports.  ``keep_per_tuple`` keeps every tuple's value (float64, or
    Fractions on the exact path).
    """
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    n, k = config.n, config.k
    shape = (n,) * k
    _check_cap(n, k, cap)

    if config.regime == "Q22":
        kf = _gram_costs(list(config.points.astype(np.int64)), [1] * k)
        arg = int(kf.argmin())
        exact = Fraction(int(kf[arg]), k)
        per = None
        if keep_per_tuple:
            per = np.array([Fraction(v, k) for v in kf.tolist()], dtype=object)
        return ChubResult(
            value=float(exact),
            argmin=_unravel(arg, shape),
            tolerance=0.0,
            method="closed-form-22-exact",
            value_exact=exact,
            per_tuple=per,
        )

    groups = list(config.points.astype(float))
    graph, emb = _source_graph(config)
    if graph is not None:
        _, reps, inverse, _ = unique_columns(_class_keys_embedded(config, graph, emb).T)
        values, worst = tuple_costs(groups, config.p, config.q, None, tol / 2, reps)
        values = values[inverse]
        method = f"class-cache[{len(reps)}]"
    else:
        values, worst = tuple_costs(groups, config.p, config.q, None, tol / 2)
        method = f"signature-cache[{len(np.unique(values))}]"

    vmin = float(values.min())
    arg = int(np.nonzero(values <= vmin + tol)[0][0])
    return ChubResult(
        value=vmin,
        argmin=_unravel(arg, shape),
        tolerance=max(tol, worst),
        method=method,
        per_tuple=values if keep_per_tuple else None,
    )


def tuple_costs(groups, p, q, weights, tol, reps=None):
    """Hub values of the tuples of ``groups`` and the worst inner tolerance.

    ``groups[i]`` holds the candidate points of position i, one per row.
    The values come in flat C order over every tuple, or in the order of
    the flat positions ``reps`` when given.  At p=q=2 the Gram kernel gives
    them all at once with tolerance 0; otherwise each tuple is one
    ``solve_fpq`` call at ``tol`` with per-point ``weights``.
    """
    shape = tuple(len(g) for g in groups)
    if p == 2 and q == 2:
        # the value is translation invariant; centering keeps the kernel's
        # cancellation at the scale of the points' spread, not their offset
        center = np.vstack(groups).mean(axis=0)
        a = np.ones(len(groups)) if weights is None else np.asarray(weights, dtype=float)
        values = _gram_costs([g - center for g in groups], a) / a.sum()
        return (values if reps is None else values[reps]), 0.0
    if reps is None:
        chunks = _iter_tuple_chunks(shape, CHUNK)
    else:
        chunks = [np.stack(np.unravel_index(reps, shape), axis=1)]
    values = []
    worst = 0.0
    for cols in chunks:
        for t in cols:
            pts = np.stack([g[j] for g, j in zip(groups, t)])
            sol = solve_fpq(FpqProblem(pts, p, q, weights), tol=tol)
            values.append(sol.value)
            worst = max(worst, sol.tolerance)
    return np.array(values), worst


def _gram_costs(groups, a):
    """A * sum_i a_i ||x_i||^2 - ||sum_i a_i x_i||^2, A = sum a, per tuple.

    That is A times the p=q=2 hub value of every flat C-order tuple of
    ``groups`` under weights ``a``, computed from the groups' Gram blocks in
    the arrays' own arithmetic: exact for int64 arrays with integer weights
    and for object arrays of Python ints.
    """
    k = len(groups)
    total_a = sum(a)
    norms = [a[i] * (total_a - a[i]) * (g * g).sum(axis=1) for i, g in enumerate(groups)]
    grams = {(i, j): 2 * a[i] * a[j] * (groups[i] @ groups[j].T) for i, j in _pair_list(k)}
    out = []
    for cols in _iter_tuple_chunks(tuple(len(g) for g in groups), CHUNK):
        part = sum(norms[i][cols[:, i]] for i in range(k))
        for (i, j), gram in grams.items():
            part = part - gram[cols[:, i], cols[:, j]]
        out.append(part)
    return np.concatenate(out)


def _unravel(flat, shape):
    return tuple(int(v) for v in np.unravel_index(flat, shape))


def _class_keys_embedded(config, graph, emb):
    """Per-tuple class keys, vectorized: edge-pattern bits (+ degrees for xi)."""
    n, k = config.n, config.k
    pairs = _pair_list(k)
    if len(pairs) > 62:
        raise ResourceCapError(f"k={k} has too many pairs for pattern keys")
    adj = graph.adjacency_matrix()
    deg = np.asarray(graph.degrees, dtype=np.int64)
    need_deg = emb == "xi" and not graph.is_regular()
    width = 1 + (k if need_deg else 0)
    keys = np.empty((n**k, width), dtype=np.int64)
    start = 0
    for cols in _iter_tuple_chunks((n,) * k, CHUNK):
        bits = np.zeros(cols.shape[0], dtype=np.int64)
        for idx, (i, j) in enumerate(pairs):
            bits |= adj[cols[:, i], cols[:, j]].astype(np.int64) << idx
        keys[start : start + cols.shape[0], 0] = bits
        if need_deg:
            keys[start : start + cols.shape[0], 1:] = deg[cols]
        start += cols.shape[0]
    return keys
