"""Brute-force hub-selection solver: minimize F_{p,q} over all n^k tuples.

Enumeration is exhaustive, in the package's one tuple order (numpy C order,
``graph._iter_tuple_chunks``).  Every inner solve goes through
``fpq.solve_fpq``, whose memo is keyed on the canonical hub problem, so two
tuples whose selected point matrices agree up to a point or coordinate
permutation are usually solved once.  For embedded configs the tuples are
first grouped by their induced edge pattern (plus the degree profile for
the q=inf embedding), computed vectorized for the whole tuple space, and
only one representative per class is handed to ``solve_fpq``.  Every tuple
is still enumerated and assigned its value; caching never prunes.  With
``keep_per_tuple`` the result carries every tuple's value as a flat array
in that order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embed import PointConfig
from .errors import InputError, ResourceCapError
from .fpq import FpqProblem, solve_fpq, unique_columns
from .graph import DEFAULT_ENUM_CAP, Graph, _iter_tuple_chunks


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
    exact: bool | None = None,
    keep_per_tuple: bool = False,
    force_per_tuple_solve: bool = False,
    chunk: int = 65536,
) -> ChubResult:
    """Minimize F_{p,q} over all tuples of ``config``.

    Inner solves run at tolerance tol/2; the reported ``tolerance`` is the
    larger of ``tol`` and the largest tolerance an inner solve reports.
    ``exact`` (default: automatic for the p=q=2 regime) switches to integer
    closed-form arithmetic; the result then carries an exact Fraction value.
    ``keep_per_tuple`` keeps every tuple's value (float64, or Fractions on
    the exact path).  ``force_per_tuple_solve`` skips the edge-pattern
    classes and hands every tuple to ``solve_fpq`` (test hook); the method
    is then ``signature-cache[N]`` with N distinct tuple values.
    """
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    n, k = config.n, config.k
    shape = (n,) * k
    _check_cap(n, k, cap)
    if exact is None:
        exact = config.regime == "Q22"

    if exact:
        if config.regime != "Q22":
            raise InputError("exact mode is defined for the p=q=2 regime")
        return _solve_chub_exact_22(config, chunk, keep_per_tuple)

    graph, emb = (None, None) if force_per_tuple_solve else _source_graph(config)
    if graph is not None:
        keys = _class_keys_embedded(config, graph, emb, chunk)
        _, reps, inverse, _ = unique_columns(keys.T)
    else:
        reps = inverse = np.arange(n**k)
    values = np.empty(len(reps))
    worst = 0.0
    for cls, flat in enumerate(reps):
        pts = config.dense_tuple(np.unravel_index(flat, shape)).astype(float)
        sol = solve_fpq(FpqProblem(pts, config.p, config.q), tol=tol / 2)
        values[cls] = sol.value
        worst = max(worst, sol.tolerance)
    values = values[inverse]
    if graph is not None:
        method = f"class-cache[{len(reps)}]"
    else:
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


def _unravel(flat, shape):
    return tuple(int(v) for v in np.unravel_index(flat, shape))


def _class_keys_embedded(config, graph, emb, chunk):
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
    for cols in _iter_tuple_chunks((n,) * k, chunk):
        bits = np.zeros(cols.shape[0], dtype=np.int64)
        for idx, (i, j) in enumerate(pairs):
            bits |= adj[cols[:, i], cols[:, j]].astype(np.int64) << idx
        keys[start : start + cols.shape[0], 0] = bits
        if need_deg:
            keys[start : start + cols.shape[0], 1:] = deg[cols]
        start += cols.shape[0]
    return keys


def _solve_chub_exact_22(config, chunk, keep_per_tuple):
    """Vectorized integer closed form: k*F(tuple) = k*S - ||sum x||^2."""
    n, k = config.n, config.k
    # Gram tensors over all (group, vertex) points
    pts = np.stack(
        [config.dense_point(i, j).astype(np.int64) for i in range(k) for j in range(n)]
    )
    gram = pts @ pts.T  # (k*n, k*n)
    norms = np.diag(gram).reshape(k, n)
    kf = np.zeros(n**k, dtype=np.int64)
    start = 0
    for cols in _iter_tuple_chunks((n,) * k, chunk):
        part = kf[start : start + cols.shape[0]]  # a view: updates fill kf
        for i in range(k):
            part += (k - 1) * norms[i, cols[:, i]]
        for i, j in _pair_list(k):
            part -= 2 * gram[i * n + cols[:, i], j * n + cols[:, j]]
        start += cols.shape[0]
    arg = int(kf.argmin())
    exact = Fraction(int(kf[arg]), k)
    per = None
    if keep_per_tuple:
        per = np.array([Fraction(v, k) for v in kf.tolist()], dtype=object)
    return ChubResult(
        value=float(exact),
        argmin=_unravel(arg, (n,) * k),
        tolerance=0.0,
        method="closed-form-22-exact",
        value_exact=exact,
        per_tuple=per,
    )
