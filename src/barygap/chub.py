"""Brute-force hub-selection solver: minimize F_{p,q} over all n^k tuples.

Enumeration is exhaustive, in the package's one tuple order: numpy C order,
so the tuple at flat position f is ``np.unravel_index(f, shape)``.  Tuple
quantities that are sums of per-position and per-pair terms come from one
broadcast kernel, ``_grid_blocks``: it adds unary tables u_i[t_i] and pair
tables T_ij[t_i, t_j], each reshaped onto its axes, over blocks of
``CHUNK`` flat positions.  It gives the p=q=2 Gram values, the class keys
below and ``graph.max_multiset_edges``.

``tuple_costs`` is the one place that turns support tuples into hub
values, for this sweep and for the multimarginal LP's cost tensor
(``bary.bary_value_mot``).  At p=q=2 the Gram kernel gives every tuple's
value, exactly in integers for the gadget and in Python ints for exact
transport.  Elsewhere every tuple is one ``fpq.solve_fpq`` call, whose memo
is keyed on the canonical hub problem.  For embedded configs the tuples are
grouped by their induced edge pattern (plus the degree profile for the
q=inf embedding of an irregular graph), each class represented by its first
flat position.  That grouping trusts the config's source metadata: tuples
with one key are taken to have one value.  Without a source graph every
tuple is its own class.

Classes are then merged into orbits under the position permutations that
are proven symmetries of the config (Bödi, Herr and Joswig, *Algorithms for
highly symmetric linear and integer programs*, Math. Prog. 2013): permuting
the k point groups by sigma must give the same (k*n, d) matrix up to a
signed column permutation, checked exactly on the points
(``_is_symmetry``), never read from the source.  Then a tuple and its
positions permuted by sigma are one hub problem up to an isometry of the
norm, so they have one value.  Only (0 1), the k-cycle and the reversal are
tested, and only when they move some class; a class's image under one is
the class of its representative with the positions permuted.  One class
per orbit, the least, is solved, and every class takes its orbit's value.
Every tuple still has its class's value; caching never prunes.  Without
``keep_per_tuple`` the sweep keeps only the classes, so its memory grows
with classes, not with tuples; with it the result carries every tuple's
value as a flat array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embed import PointConfig
from .errors import InputError, ResourceCapError, check_cap
from .fpq import FpqProblem, solve_fpq, unique_columns
from .graph import DEFAULT_ENUM_CAP, Graph, max_multiset_edges

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


def _pair_list(k):
    return [(i, j) for i in range(k) for j in range(i + 1, k)]


def _source_graph(config: PointConfig):
    src = config.source or {}
    if "graph" in src and src.get("embedding") in ("phi", "psi", "xi"):
        return Graph.from_json(src["graph"]), src["embedding"]
    return None, None


def chub_closed_form_22(g: Graph, k) -> Fraction:
    """Exact p=q=2 value D(k-1)^2 - (2/k) * max_multiset_edges(g, k)."""
    if not g.is_regular():
        raise InputError("closed form requires a regular graph")
    d = g.regular_degree()
    m = d * (k - 1) ** 2
    best = max_multiset_edges(g, k)
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
    inner solves run at tolerance tol/2, one per orbit of edge-pattern
    classes under the position permutations proven on the points (one per
    tuple when the config has no source graph); every class takes its
    orbit's value, so the values, and the tensor of ``keep_per_tuple``, are
    exactly symmetric under those permutations.  The method stays
    ``class-cache[N]`` with N the number of classes.  The reported
    ``tolerance`` is the larger of ``tol`` and the largest tolerance an
    inner solve reports.  The value is the least class value, and the argmin
    is the first tuple whose value is within ``tol`` of it.  ``keep_per_tuple``
    keeps every tuple's value (float64, or Fractions on the exact path);
    without it a config with a source graph builds no array over all tuples.
    """
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    n, k = config.n, config.k
    shape = (n,) * k
    check_cap(f"enumerating {n**k} tuples", n**k, cap)

    if config.regime == "Q22":
        best, arg, parts = None, 0, []
        tables = _gram_tables(list(config.points.astype(np.int64)), [1] * k)
        for start, kf in _grid_blocks(shape, *tables):
            i = int(kf.argmin())
            if best is None or kf[i] < best:
                best, arg = int(kf[i]), start + i
            if keep_per_tuple:
                parts.append(kf)
        exact = Fraction(best, k)
        per = None
        if keep_per_tuple:
            per = np.array([Fraction(v, k) for v in np.concatenate(parts).tolist()], dtype=object)
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
        reps, ids = _classes(_class_keys(config, graph, emb), keep_per_tuple)
        roots = _class_orbits(config, graph, emb, reps)
        solved = np.flatnonzero(roots == np.arange(len(reps)))
        values, worst = tuple_costs(groups, config.p, config.q, None, tol / 2, reps[solved])
        values = values[np.searchsorted(solved, roots)]
        method = f"class-cache[{len(reps)}]"
    else:
        reps = np.arange(n**k)
        ids = reps if keep_per_tuple else None
        values, worst = tuple_costs(groups, config.p, config.q, None, tol / 2, reps)
        method = f"per-tuple[{n**k}]"
    per = values[ids] if keep_per_tuple else None

    vmin = float(values.min())
    arg = int(reps[values <= vmin + tol].min())
    return ChubResult(
        value=vmin,
        argmin=_unravel(arg, shape),
        tolerance=max(tol, worst),
        method=method,
        per_tuple=per,
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
        reps = np.arange(math.prod(shape))
    values = []
    worst = 0.0
    for t in zip(*np.unravel_index(reps, shape)):
        pts = np.stack([g[j] for g, j in zip(groups, t)])
        sol = solve_fpq(FpqProblem(pts, p, q, weights), tol=tol)
        values.append(sol.value)
        worst = max(worst, sol.tolerance)
    return np.array(values), worst


def _grid_blocks(shape, unary, pairs):
    """Yield (start, sums) for blocks of ``CHUNK`` flat C-order positions of ``shape``.

    ``sums[f - start]`` is 0 + sum_i unary[i][t_i] + sum_ij pairs[i, j][t_i, t_j]
    for the tuple t at flat position f.  ``unary`` maps an axis to a table
    over it, ``pairs`` an axis pair i < j to a table over both; the terms
    are added in that order, in the tables' own arithmetic, so float, int64
    and object tables give what a loop over the tuples gives, bit for bit.
    The trailing axes whose grid fits in one block are broadcast; the
    leading ones are indexed, one row per prefix the block touches.
    """
    k = len(shape)
    s = k
    while s > 0 and math.prod(shape[s - 1:]) <= CHUNK:
        s -= 1
    lead, tail = shape[:s], shape[s:]
    size = math.prod(tail)
    terms = [((i,), u) for i, u in unary.items()] + list(pairs.items())
    total = math.prod(shape)
    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        p0, p1 = start // size, (stop - 1) // size + 1
        idx = np.unravel_index(np.arange(p0, p1), lead) if s else ()
        acc = 0
        for axes, table in terms:
            view = [p1 - p0 if axes[0] < s else 1] + [1] * len(tail)
            for a in axes:
                if a >= s:
                    view[1 + a - s] = shape[a]
            acc = acc + table[tuple(idx[a] if a < s else slice(None) for a in axes)].reshape(view)
        sums = np.broadcast_to(acc, (p1 - p0,) + tail).reshape(-1)
        yield start, sums[start - p0 * size : stop - p0 * size]


def _gram_tables(groups, a):
    """Unary and pair tables of ``_gram_costs`` for ``_grid_blocks``."""
    total_a = sum(a)
    norms = {i: a[i] * (total_a - a[i]) * (g * g).sum(axis=1) for i, g in enumerate(groups)}
    grams = {
        (i, j): -(2 * a[i] * a[j] * (groups[i] @ groups[j].T)) for i, j in _pair_list(len(groups))
    }
    return norms, grams


def _gram_costs(groups, a):
    """A * sum_i a_i ||x_i||^2 - ||sum_i a_i x_i||^2, A = sum a, per tuple.

    That is A times the p=q=2 hub value of every flat C-order tuple of
    ``groups`` under weights ``a``, computed from the groups' Gram blocks in
    the arrays' own arithmetic: exact for int64 arrays with integer weights
    and for object arrays of Python ints.
    """
    shape = tuple(len(g) for g in groups)
    return np.concatenate([sums for _, sums in _grid_blocks(shape, *_gram_tables(groups, a))])


def _unravel(flat, shape):
    return tuple(int(v) for v in np.unravel_index(flat, shape))


def _key_tables(config, graph, emb):
    """``_grid_blocks`` tables of the class keys: one (unary, pairs) per key column.

    Column 0 is the edge pattern: bit idx is set when the tuple's idx-th
    position pair is an edge.  For xi on an irregular graph, column 1 codes
    the degree profile, ordered as the degrees are: digit i is the rank of
    position i's degree among the graph's distinct degrees.
    """
    k = config.k
    pairs = _pair_list(k)
    if len(pairs) > 62:
        raise ResourceCapError(f"k={k} has too many pairs for pattern keys")
    adj = graph.adjacency_matrix().astype(np.int64)
    tables = [({}, {pair: adj << idx for idx, pair in enumerate(pairs)})]
    if emb == "xi" and not graph.is_regular():
        levels, _, rank, _ = unique_columns(np.array([graph.degrees]))
        base = levels.shape[1]
        tables.append(({i: rank * base ** (k - 1 - i) for i in range(k)}, {}))
    return tables


def _class_keys(config, graph, emb):
    """Class-key columns of every tuple, block by block: yields (start, columns)."""
    shape = (config.n,) * config.k
    columns = [_grid_blocks(shape, *t) for t in _key_tables(config, graph, emb)]
    return ((blocks[0][0], [sums for _, sums in blocks]) for blocks in zip(*columns))


def _tuple_keys(tuples, tables):
    """Class keys, as tuples of ints, of the rows of the (R, k) index array ``tuples``."""
    cols = []
    for unary, pairs in tables:
        acc = np.zeros(len(tuples), dtype=np.int64)
        for i, u in unary.items():
            acc += u[tuples[:, i]]
        for (i, j), table in pairs.items():
            acc += table[tuples[:, i], tuples[:, j]]
        cols.append(acc)
    return list(zip(*(c.tolist() for c in cols)))


def _position_generators(k):
    """(0 1), the k-cycle and the reversal, without repeats or the identity.

    The first two generate every permutation of the k positions.
    """
    ident = list(range(k))
    out = []
    for perm in ([1, 0] + ident[2:], ident[1:] + [0], ident[::-1]) if k >= 2 else ():
        if perm != ident and perm not in out:
            out.append(perm)
    return out


def _column_multiset(m):
    """Distinct columns of ``m`` up to sign, with their counts.

    Each column is negated when its first nonzero entry is negative, so two
    matrices get equal outputs exactly when one is a signed column
    permutation of the other.
    """
    m = m.astype(np.int16)
    lead = m[np.argmax(m != 0, axis=0), np.arange(m.shape[1])]
    uniq, _, _, counts = unique_columns(np.where(lead < 0, -m, m))
    return uniq, counts


def _is_symmetry(points, perm, base=None):
    """True when moving point group perm[i] to position i gives the same
    (k*n, d) matrix up to a signed column permutation.

    Then a tuple and its positions permuted are one hub problem up to an
    isometry of the norm and an order of the points, so they have one value.
    ``base`` is ``_column_multiset`` of the unpermuted matrix, when known.
    """
    k, n, d = points.shape
    uniq, counts = base if base is not None else _column_multiset(points.reshape(k * n, d))
    other, other_counts = _column_multiset(points[list(perm)].reshape(k * n, d))
    return np.array_equal(uniq, other) and np.array_equal(counts, other_counts)


def _orbit_roots(size, maps):
    """Least member of each item's orbit under the index maps ``maps``, by union-find."""
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for image in maps:
        for a, b in enumerate(image):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return np.array([find(a) for a in range(size)])


def _class_orbits(config, graph, emb, reps):
    """Orbit root (least class index) of each class under the proven symmetries.

    A generator from ``_position_generators`` maps a class to the class of
    its representative with the positions permuted, keyed by the same
    tables as ``_class_keys``.  It is used only when it moves some class and
    ``_is_symmetry`` proves it on the config's points.
    """
    k = config.k
    tables = _key_tables(config, graph, emb)
    tuples = np.stack(np.unravel_index(reps, (config.n,) * k), axis=1)
    index = {key: c for c, key in enumerate(_tuple_keys(tuples, tables))}
    identity = list(range(len(reps)))
    maps, base = [], None
    for perm in _position_generators(k):
        # the image puts index t_i at position perm[i]; when the check
        # passes, group perm[i] is group i up to a signed column permutation
        image = [index[key] for key in _tuple_keys(tuples[:, np.argsort(perm)], tables)]
        if image == identity:
            continue
        if base is None:
            base = _column_multiset(config.points.reshape(k * config.n, config.d))
        if _is_symmetry(config.points, perm, base):
            maps.append(image)
    return _orbit_roots(len(reps), maps)


def _classes(blocks, keep):
    """First flat position of each distinct key, keys in lexicographic order.

    ``blocks`` yields (start, columns) as ``_class_keys`` does; each block's
    distinct keys come from ``unique_columns`` and are merged in a dict of
    first flat positions.  Returns the representatives and, with ``keep``,
    every tuple's class index (else None).
    """
    first, codes = {}, []
    for start, cols in blocks:
        x = np.stack(cols)
        # nonnegative codes; the narrowest dtype keeps their order and sorts fastest
        uniq, at, inverse, _ = unique_columns(x.astype(np.min_scalar_type(int(x.max()))))
        uniq = [tuple(key) for key in uniq.T.tolist()]
        for key, f in zip(uniq, at.tolist()):
            first.setdefault(key, start + f)
        if keep:
            codes.append((uniq, inverse))
    order = sorted(first)
    reps = np.array([first[key] for key in order])
    if not keep:
        return reps, None
    index = {key: c for c, key in enumerate(order)}
    ids = [np.array([index[key] for key in uniq])[inverse] for uniq, inverse in codes]
    return reps, np.concatenate(ids)
