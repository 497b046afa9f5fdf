"""Brute-force hub-selection solver: minimize F_{p,q} over all n^k tuples.

Enumeration is exhaustive, in the package's one tuple order: numpy C order,
so the tuple at flat position f is ``np.unravel_index(f, shape)``.  Tuple
quantities that are sums of per-position and per-pair terms come from one
broadcast kernel, ``_grid_blocks``: it adds unary tables u_i[t_i] and pair
tables T_ij[t_i, t_j], each reshaped onto its axes, over blocks of
``CHUNK`` flat positions.  It gives the p=q=2 Gram values, the class codes
below and ``graph.max_multiset_edges``.

``tuple_costs`` is the one place that turns support tuples into hub
values, for this sweep and for the multimarginal LP's cost tensor
(``bary.bary_value_mot``).  At p=q=2 the Gram kernel gives every tuple's
value, exactly in integers for the gadget and in Python ints for exact
transport.  Elsewhere the tuples of one call are one ``fpq.solve_fpq_values``
batch, whose memo is keyed on the canonical hub problem.  For embedded
configs the tuples are grouped by one integer code: the induced edge
pattern times b^k plus the positions' degree-rank digits, b the number of
distinct degrees (so on a regular graph the code is the pattern).  Each
class is represented by its first flat position.  That grouping trusts the
config's source metadata: tuples with one code are taken to have one
value.  Without a source graph every tuple is its own class.

Classes are then merged into orbits under the position permutations that
are proven symmetries of the config (Bödi, Herr and Joswig, *Algorithms for
highly symmetric linear and integer programs*, Math. Prog. 2013): permuting
the k point groups by sigma must give the same (k*n, d) matrix up to a
signed column permutation, checked exactly on the points
(``_is_symmetry``, once per point array and permutation: ``_proven``
keeps the verdicts), never read from the source.  Then a tuple and its
positions permuted by sigma are one hub problem up to an isometry of the
norm, so they have one value.  Only
(0 1), the k-cycle and the reversal are tested, and only when they move
some class; a class's image under one is the class of its code permuted by
``_permute_codes``, the helper the QIN pattern sweep
(``reduction._qin_pattern_sweep``) uses too.  One class
per orbit, the least, is solved, and every class takes its orbit's value.
Every tuple still has its class's value; caching never prunes.  Without
``keep_per_tuple`` the sweep keeps only the classes, so its memory grows
with classes, not with tuples; with it the result carries every tuple's
value as a flat array.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .embed import PointConfig
from .errors import InputError, check_cap, check_tol
from .fpq import FpqProblem, solve_fpq_values, unique_columns
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
        return Graph.from_json(src["graph"])
    return None


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
    inner solves run at tolerance tol/2, one per orbit of class codes
    (edge pattern and degree digits) under the position permutations proven
    on the points (one per tuple when the config has no source graph); every
    class takes its orbit's value, so the values, and the tensor of
    ``keep_per_tuple``, are exactly symmetric under those permutations.  The
    method stays ``class-cache[N]`` with N the number of classes.  The
    reported ``tolerance`` is the larger of ``tol`` and the largest tolerance
    an inner solve reports.  The value is the least class value, and the
    argmin is the first tuple whose value is within ``tol`` of it.  ``keep_per_tuple``
    keeps every tuple's value (float64, or Fractions on the exact path);
    without it a config with a source graph builds no array over all tuples.
    """
    check_tol(tol)
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
    graph = _source_graph(config)
    if graph is not None:
        unary, pairs, base = _key_tables(config, graph)
        codes, reps, ids = _classes(_grid_blocks(shape, unary, pairs), keep_per_tuple)
        roots = _class_orbits(config, codes, base)
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
    them all at once with tolerance 0; when the groups are one array and
    the weights are equal, each tuple takes the value of its sorted tuple,
    so that the values are exactly symmetric.  Otherwise the tuples are
    one ``solve_fpq_values`` batch at ``tol`` with per-point ``weights``,
    which keeps no minimizer, so memory grows with the tuples, not with d;
    the worst tolerance is the largest value minus lower bound, the same
    float subtraction each solve's tolerance is.
    """
    shape = tuple(len(g) for g in groups)
    flat = np.arange(math.prod(shape)) if reps is None else np.asarray(reps)
    if p == 2 and q == 2:
        # the value is translation invariant; centering keeps the kernel's
        # cancellation at the scale of the points' spread, not their offset
        center = np.vstack(groups).mean(axis=0)
        a = np.ones(len(groups)) if weights is None else np.asarray(weights, dtype=float)
        values = _gram_costs([g - center for g in groups], a) / a.sum()
        if all(np.array_equal(g, groups[0]) for g in groups) and (a == a[0]).all():
            # permuted tuples are one problem; rounding must not tell them apart
            flat = np.ravel_multi_index(np.sort(np.unravel_index(flat, shape), axis=0), shape)
        return values[flat], 0.0
    # the problems are built as the batch reads them, one tuple's points at a time
    tuples = zip(*np.unravel_index(flat, shape))
    probs = (FpqProblem(np.stack([g[j] for g, j in zip(groups, t)]), p, q, weights) for t in tuples)
    values, lower = solve_fpq_values(probs, tol=tol)
    return values, float((values - lower).max(initial=0.0))


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


def _key_tables(config, graph):
    """``_grid_blocks`` tables of the class codes, and the degree base b.

    A tuple's code is its edge pattern times b^k plus its degree digits:
    bit idx of the pattern is set when the tuple's idx-th position pair is
    an edge, and digit i (weight b^(k-1-i)) is the rank of position i's
    degree among the graph's b distinct degrees.  On a regular graph b = 1
    and the code is the pattern.  The tables are int64 when every code fits
    and Python ints otherwise.
    """
    k = config.k
    pairs = _pair_list(k)
    levels = sorted(set(graph.degrees))
    base = len(levels)
    dtype = np.int64 if 2 ** len(pairs) * base**k <= 2**63 else object
    adj = graph.adjacency_matrix().astype(dtype)
    rank = np.searchsorted(levels, graph.degrees).astype(dtype)
    # on a regular graph every digit is 0, so no degree table is added
    unary = {i: rank * base ** (k - 1 - i) for i in range(k)} if base > 1 else {}
    return unary, {pair: (adj << idx) * base**k for idx, pair in enumerate(pairs)}, base


def _permute_codes(codes, perm, base=1):
    """Codes of the tuples of ``codes`` (1-D) with position i moved to perm[i].

    A ``_key_tables`` code over b = ``base`` degrees is the pattern times
    b^k plus k degree digits.  The bit of pair (i, j) moves to that of
    (perm[i], perm[j]), digit i (weight b^(k-1-i)) to digit perm[i]; the
    moves are integer arithmetic, in the codes' own dtype.
    """
    k = len(perm)
    pairs = _pair_list(k)
    dest = [pairs.index(tuple(sorted((perm[i], perm[j])))) for i, j in pairs]
    bits = (codes // base**k)[:, None] >> np.arange(len(pairs)) & 1
    out = (bits << dest).sum(axis=1) * base**k
    if base > 1:
        ranks = (codes % base**k)[:, None] // base ** np.arange(k - 1, -1, -1) % base
        out = out + (ranks * base ** (k - 1 - np.array(perm))).sum(axis=1)
    return out


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


_PROOFS_CAP = 1024  # verdicts kept; emptied when full
_PROOFS = {}  # (point array digest, dtype, shape, perm) -> ``_is_symmetry`` verdict


def _proven(points, perms):
    """``_is_symmetry`` of each of ``perms`` on ``points``, kept per point
    array and permutation.

    A point array is known by the BLAKE2b digest of its bytes (with its
    dtype and shape), so a verdict costs one digest once proven, and the
    cache holds no copy of the points.  The unpermuted column multiset is
    computed at most once a call.
    """
    tag = hashlib.blake2b(np.ascontiguousarray(points)).digest(), points.dtype.str, points.shape
    keys = [(*tag, tuple(perm)) for perm in perms]
    missing = [key for key in keys if key not in _PROOFS]
    if missing:
        k, n, d = points.shape
        base = _column_multiset(points.reshape(k * n, d))
        if len(_PROOFS) + len(missing) > _PROOFS_CAP:
            _PROOFS.clear()
        for key in missing:
            _PROOFS[key] = _is_symmetry(points, key[-1], base)
    return [_PROOFS[key] for key in keys]


def _orbit_roots(size, maps):
    """Least member of each item's orbit under the permutations ``maps``.

    Each pass lowers every item's root to that of its images, then to its
    root's root; it stops when no root moves, and then the roots are
    constant on every cycle of every map, so on every orbit.
    """
    roots = np.arange(size)
    while True:
        new = roots
        for image in maps:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, roots):
            return roots
        roots = new


def _class_orbits(config, codes, base):
    """Orbit root (least class index) of each class under the proven symmetries.

    ``codes`` are the sorted class codes over ``base`` degrees.  A generator
    from ``_position_generators`` maps a class to the class of its code
    permuted by ``_permute_codes``.  It is used only when it moves some
    class and ``_is_symmetry`` proves it on the config's points.
    """
    moved = []
    for perm in _position_generators(config.k):
        # the image puts index t_i at position perm[i]; when the check
        # passes, group perm[i] is group i up to a signed column permutation
        image = np.searchsorted(codes, _permute_codes(codes, perm, base))
        if not np.array_equal(image, np.arange(len(codes))):
            moved.append((perm, image))
    proofs = _proven(config.points, [perm for perm, _ in moved]) if moved else []
    maps = [image for (_, image), ok in zip(moved, proofs) if ok]
    return _orbit_roots(len(codes), maps)


def _classes(blocks, keep):
    """Distinct codes in increasing order and the first flat position of each.

    ``blocks`` yields (start, codes) as ``_grid_blocks`` does; the distinct
    codes of each block, then those of all blocks, come from
    ``unique_columns``.  Returns the codes, the representatives and, with
    ``keep``, every tuple's class index (else None).
    """
    seen, firsts, kept = [], [], []
    for start, codes in blocks:
        # nonnegative codes; the narrowest dtype keeps their order and sorts fastest
        narrow = codes.astype(np.min_scalar_type(int(codes.max())))
        uniq, at, _, _ = unique_columns(narrow[None])
        seen.append(uniq[0].astype(codes.dtype))
        firsts.append(start + at)
        if keep:
            kept.append(codes)
    uniq, at, _, _ = unique_columns(np.concatenate(seen)[None])
    ids = np.searchsorted(uniq[0], np.concatenate(kept)) if keep else None
    return uniq[0], np.concatenate(firsts)[at], ids
