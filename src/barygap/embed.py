"""Graph-to-point embeddings and binary overlap collections.

Three embeddings map the k groups x n vertices of a graph to points in
{-1,0,1}^d, one per cost regime:

* ``embed_phi``  -- shared-edge indicator embedding, used for q in (1, inf)
  (including the p=q=2 closed-form regime).
* ``embed_psi``  -- signed two-channel embedding with alternating filler
  values, used for q = 1 (requires even k).
* ``embed_xi``   -- asymmetric signed embedding, used for q = inf.

Each returns a ``PointConfig``: the (k, n, d) int8 array it built, with p, q
and its source graph.  All three share one layout, the (k, n, C(k,2), n, n,
c) array of point group i, vertex v, group pair (l, l') with l < l' in
lexicographic order, u, u' (0-indexed vertices) and channel, reshaped to
(k, n, d); c = 1, except for psi's sign channel s in {+1, -1} with +1 first.
On pair block (l, l') point (l, v) writes the row u = v and point (l', v)
the column u' = v; psi also fills the block of every other group.
Serialized configs, each point as its (coordinate, value) pairs, are
therefore bit-reproducible.

The module also holds what reads a config or the psi layout: the clique
witnesses and the q=1 value bound, and the overlap collections that the
embedded tuples are equivalent to.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import InputError
from .graph import Graph


def regime_for(p, q) -> str:
    if not 1 <= p < math.inf:
        raise InputError(f"p must be a finite number >= 1, got {p}")
    if q == 1:
        return "Q1"
    if q == math.inf:
        return "QINF"
    if p == 2 and q == 2:
        return "Q22"
    if 1 < q < math.inf:
        return "QIN"
    raise InputError(f"q must lie in [1, inf], got {q}")


def pair_index(k, l, lp) -> int:
    """Rank of the pair (l, lp), l < lp, in lexicographic order over [k]."""
    if not 0 <= l < lp < k:
        raise InputError(f"need 0 <= l < lp < k, got ({l}, {lp}), k={k}")
    # pairs (0,1),(0,2),...,(0,k-1),(1,2),...
    return l * k - l * (l + 1) // 2 + (lp - l - 1)


def psi_dimension(n, k):
    return 2 * math.comb(k, 2) * n * n


def phi_coord(n, k, l, u, lp, up):
    return pair_index(k, l, lp) * n * n + u * n + up


def tau(l, lp, i) -> int:
    """Alternating filler value (-1)^(#{1..i} outside {l, lp}), 1-indexed args."""
    if not (1 <= l < lp) or i in (l, lp):
        raise InputError(f"tau needs 1 <= l < lp and i not in {{l, lp}}, got {(l, lp, i)}")
    m = i - (1 if l <= i else 0) - (1 if lp <= i else 0)
    return -1 if m % 2 else 1


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector while a config's pair lists (about
    a million small lists of ints, with no cycles) are built; otherwise its
    repeated full collections take most of the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@dataclass
class PointConfig:
    """k groups of n points in {-1,0,1}^d.

    ``points`` is the (k, n, d) int8 array of the embedding: ``points[i, j]``
    is the j-th point of group i.  Any array of such values is stored as
    int8; other values are refused.  The regime follows from (p, q).
    """

    points: np.ndarray
    p: float
    q: float
    source: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points)
        if pts.ndim != 3 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InputError(f"points must be a (k, n, d) array, k, n >= 1, got {pts.shape}")
        # the range check comes first, so the int8 cast cannot wrap
        if pts.size and not -1 <= pts.min() <= pts.max() <= 1:
            raise InputError("point values must lie in {-1, 0, 1}")
        self.points = pts.astype(np.int8, copy=False)
        if self.points is not pts and not np.array_equal(self.points, pts):
            raise InputError("point values must lie in {-1, 0, 1}")
        regime_for(self.p, self.q)

    @property
    def k(self):
        return self.points.shape[0]

    @property
    def n(self):
        return self.points.shape[1]

    @property
    def d(self):
        return self.points.shape[2]

    @property
    def regime(self):
        return regime_for(self.p, self.q)

    def dense_tuple(self, vertex_tuple):
        """Stack of the k points selected by a vertex tuple, shape (k, d)."""
        if len(vertex_tuple) != self.k:
            raise InputError(f"tuple length {len(vertex_tuple)} != k={self.k}")
        return self.points[np.arange(self.k), list(vertex_tuple)]

    def to_json(self):
        """Each point as its (coordinate, value) pairs, coordinates increasing."""
        flat = self.points.reshape(-1, self.d)
        rows, coords = np.nonzero(flat)
        ends = np.cumsum(np.bincount(rows, minlength=len(flat))).tolist()
        with _gc_paused():
            pairs = np.stack([coords, flat[rows, coords]], axis=1).tolist()
            points = [pairs[a:b] for a, b in zip([0] + ends[:-1], ends)]
        return {
            "p": self.p,
            "q": "inf" if self.q == math.inf else self.q,
            "k": self.k,
            "n": self.n,
            "d": self.d,
            "regime": self.regime,
            "points": points,
            "source": self.source,
        }

    @staticmethod
    def from_json(obj):
        try:
            p = float(obj["p"])
            q = math.inf if obj["q"] == "inf" else float(obj["q"])
            if obj["regime"] != regime_for(p, q):
                raise InputError(f"regime {obj['regime']!r} inconsistent with (p, q) = ({p}, {q})")
            k, n, d = int(obj["k"]), int(obj["n"]), int(obj["d"])
            flat = obj["points"]
            if len(flat) != k * n:
                raise InputError(f"expected {k * n} points, got {len(flat)}")
            rows = np.repeat(np.arange(k * n), [len(pairs) for pairs in flat])
            coords = [c for pairs in flat for c, _ in pairs]
            vals = [v for pairs in flat for _, v in pairs]
            # numpy reads a JSON true as 1, in an integer list too
            if bool in {*map(type, coords), *map(type, vals)}:
                raise InputError("point coordinates and values must be numbers, not booleans")
            coords, vals = np.array(coords), np.array(vals)
            # checked before indexing, so no value lands elsewhere
            if coords.size and not (
                coords.dtype.kind == "i" and 0 <= coords.min() and coords.max() < d
            ):
                raise InputError(f"point coordinates must be integers in [0, {d})")
            points = np.zeros((k * n, d), dtype=vals.dtype)
            points[rows, coords.astype(np.int64)] = vals
            return PointConfig(points.reshape(k, n, d), p, q, obj.get("source", {}))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed point config JSON: {exc}") from exc

    def save(self, path):
        text = json.dumps(self.to_json(), sort_keys=True)  # one pass of the C encoder
        with open(path, "w") as fh:
            fh.write(text + "\n")

    @staticmethod
    def load(path):
        with open(path) as fh, _gc_paused():
            obj = json.load(fh)
        return PointConfig.from_json(obj)


def _graph_source(g: Graph, name, k):
    payload = json.dumps(g.to_json(), sort_keys=True).encode()
    return {
        "embedding": name,
        "graph": g.to_json(),
        "graph_sha256": hashlib.sha256(payload).hexdigest(),
        "k": k,
    }


def _pair_blocks(k, n, left, right, filler=None):
    """The module's layout, filled pair block by pair block, as (k, n, d).

    On block e = (l, l') point (l, v) carries ``left[v]`` on its row u = v
    and point (l', v) carries ``right[v]`` on its column u' = v; ``left``
    and ``right`` broadcast to (n, n, c).  ``filler(l, l', i)``, when given,
    fills the block of every other group i.
    """
    c = np.broadcast_shapes(np.shape(left), np.shape(right))[-1]
    out = np.zeros((k, n, math.comb(k, 2), n, n, c), dtype=np.int8)
    v = np.arange(n)
    for e, (l, lp) in enumerate(combinations(range(k), 2)):
        out[l, v, e, v] = left
        out[lp, v, e, :, v] = right
        if filler is not None:
            for i in set(range(k)) - {l, lp}:
                out[i, :, e] = filler(l, lp, i)
    return out.reshape(k, n, math.comb(k, 2) * n * n * c)


def embed_phi(g: Graph, k, p=2.0, q=2.0) -> PointConfig:
    """Shared-edge embedding: point (i, v) indicates edges of v on the pair
    blocks containing group i.

    For a D-regular graph: cross-group inner products equal the edge
    indicator and every point has squared norm D(k-1).
    """
    if not g.is_regular():
        raise InputError("embed_phi requires a regular graph")
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if q == 1 or q == math.inf:
        raise InputError("phi serves q in (1, inf); use psi for q=1, xi for q=inf")
    # both orientations of an edge occupy (u, u') and (u', u)
    adj = g.adjacency_matrix()[:, :, None]
    return PointConfig(_pair_blocks(k, g.n, adj, adj), p, q, _graph_source(g, "phi", k))


def embed_psi(g: Graph, k, p=1.0) -> PointConfig:
    """Signed two-channel embedding for the q=1 regime (k must be even):
    (l, u) has s on channel s, (l', u') has s on edges and -s otherwise,
    and every other group i fills the block with tau(l, l', i)."""
    if k % 2 != 0 or k < 2:
        raise InputError(f"embed_psi requires even k >= 2, got {k}")
    if not g.is_regular():
        raise InputError("embed_psi requires a regular graph")
    s = np.array([1, -1])
    signs = np.where(g.adjacency_matrix().T, 1, -1)[:, :, None] * s
    dense = _pair_blocks(k, g.n, s, signs, lambda l, lp, i: tau(l + 1, lp + 1, i + 1))
    return PointConfig(dense, p, 1.0, _graph_source(g, "psi", k))


def embed_xi(g: Graph, k, p=1.0) -> PointConfig:
    """Asymmetric signed embedding for the q=inf regime (needs n >= 3):
    (l, u) has the sign of the edge (u, u'), (l', u') is always 1."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if g.n < 3:
        raise InputError(f"embed_xi requires n >= 3, got n={g.n}")
    signs = np.where(g.adjacency_matrix(), 1, -1)[:, :, None]
    return PointConfig(_pair_blocks(k, g.n, signs, 1), p, math.inf, _graph_source(g, "xi", k))


def embed_auto(g: Graph, k, p, q) -> PointConfig:
    """Pick the embedding the regime calls for."""
    if q == 1:
        return embed_psi(g, k, p=p)
    if q == math.inf:
        return embed_xi(g, k, p=p)
    return embed_phi(g, k, p=p, q=q)


# ---------------------------------------------------------------------------
# Clique witnesses and the q=1 value bound


def q1_value_formula(n, k, t, p):
    """Clique-regime value bound for the q=1 embedding:
    k^(1-p) * (n k (k-1)(n k - 2n + 2) - 4t)^p.

    Exact (Fraction) when p is a positive integer.  The bound does not
    depend on the degree D.
    """
    regime_for(p, 1)  # p must be a finite number >= 1
    if k < 2 or k % 2 != 0:
        raise InputError(f"formula requires even k >= 2, got {k}")
    if t < 0:
        raise InputError(f"t must be nonnegative, got {t}")
    base = n * k * (k - 1) * (n * k - 2 * n + 2) - 4 * t
    if base < 0:
        raise InputError(f"negative base {base}: t too large for (n, k) = ({n}, {k})")
    if float(p) == int(p):
        ip = int(p)
        return Fraction(base**ip, k ** (ip - 1))
    return float(k) ** (1.0 - p) * float(base) ** p


def q1_clique_witness(config, vertex_tuple) -> np.ndarray:
    """Optimal hub for a clique tuple under the q=1 embedding.

    Sets y = s on every doubly-selected edge coordinate (both group slots
    matching the tuple and the underlying pair adjacent), zero elsewhere.
    """
    if config.regime != "Q1":
        raise InputError("q1_clique_witness expects a psi-embedded config")
    g = config.source.get("graph")
    if g is None:
        raise InputError("config lacks source graph metadata")
    graph = Graph.from_json(g)
    vt = tuple(vertex_tuple)
    y = np.zeros((math.comb(config.k, 2), config.n, config.n, 2), dtype=np.int64)
    for e, (l, lp) in enumerate(combinations(range(config.k), 2)):
        if graph.has_edge(vt[l], vt[lp]):
            y[e, vt[l], vt[lp]] = (1, -1)
    return y.reshape(-1)


def qinf_clique_witness(config, vertex_tuple) -> np.ndarray:
    """Half-integer hub for a clique tuple under the q=inf embedding:
    -1/2 where some selected point is -1, +1/2 elsewhere."""
    if config.regime != "QINF":
        raise InputError("qinf_clique_witness expects a xi-embedded config")
    pts = config.dense_tuple(vertex_tuple)
    return np.where((pts == -1).any(axis=0), -0.5, 0.5)


# ---------------------------------------------------------------------------
# Binary overlap collections


@dataclass
class Collection:
    """k binary vectors with equal support size s and t overlapping pairs."""

    vectors: np.ndarray  # (k, d) of {0, 1}
    s: int
    t: int


def verify_collection(vectors):
    """Check the four structural conditions of an overlap collection.

    Returns a dict with ``ok``, the certified common support size ``s`` and
    overlap count ``t``, and a list of human-readable violations.  Entries
    must be 0/1.
    """
    x = np.asarray(vectors)
    if x.ndim != 2:
        raise InputError(f"expected a (k, d) array, got shape {x.shape}")
    if not np.isin(x, (0, 1)).all():
        raise InputError("collection vectors must have 0/1 entries")
    x = x.astype(np.int64)
    k, d = x.shape
    violations = []
    supports = x.sum(axis=1)
    s = int(supports[0]) if k else 0
    if not (supports == s).all():
        violations.append(f"support sizes differ: {supports.tolist()}")
    gram = x @ x.T
    t = 0
    for i in range(k):
        for j in range(i + 1, k):
            ip = int(gram[i, j])
            if ip == 1:
                t += 1
            elif ip != 0:
                violations.append(f"pair ({i},{j}) shares {ip} coordinates")
    col_load = x.sum(axis=0)
    bad = np.nonzero(col_load > 2)[0]
    if bad.size:
        violations.append(
            f"{bad.size} coordinate(s) used by more than two vectors, first at {int(bad[0])}"
        )
    return {"ok": not violations, "s": s, "t": t, "violations": violations}


def canonical_clique_collection(k, D) -> Collection:
    """The reference collection every clique embedding is equivalent to.

    The first C(k,2) coordinates are shared pairwise (one per pair); each
    vector is then padded with (D-1)(k-1) private ones.
    """
    return collection_from_pattern(k, D, combinations(range(k), 2))


def collection_from_pattern(k, D, pattern_edges) -> Collection:
    """A (k, D(k-1), t)-collection whose overlap graph is ``pattern_edges``.

    ``pattern_edges`` is an iterable of pairs (i, j), i < j < k.  Used to
    sweep every possible overlap structure at a given (k, D).
    """
    if k < 2 or D < 1:
        raise InputError(f"need k >= 2 and D >= 1, got k={k}, D={D}")
    edges = sorted({(min(i, j), max(i, j)) for i, j in pattern_edges})
    for i, j in edges:
        if not 0 <= i < j < k:
            raise InputError(f"bad pattern edge ({i}, {j})")
    s = D * (k - 1)
    return Collection(vectors=_overlap_vectors(k, s, edges), s=s, t=len(edges))


def _overlap_vectors(k, s, edges):
    """k 0/1 vectors of support s: the e-th pair of ``edges``, in the order
    given, shares coordinate e, and each vector fills up with private ones."""
    deg = [0] * k
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
    if s < max(deg, default=0):
        raise InputError(f"s={s} below max pattern degree")
    d = len(edges) + sum(s - deg[i] for i in range(k))
    x = np.zeros((k, d), dtype=np.int64)
    for e, (i, j) in enumerate(edges):
        x[i, e] = 1
        x[j, e] = 1
    off = len(edges)
    for i in range(k):
        x[i, off : off + s - deg[i]] = 1
        off += s - deg[i]
    return x


def add_edge_move(c: Collection) -> Collection:
    """Relocate one private nonzero so a disjoint pair becomes overlapping.

    Needs t < C(k,2) and s >= k-1; the result is a collection with the same
    s and t+1.
    """
    x = np.asarray(c.vectors)
    chk = verify_collection(x)
    if not chk["ok"]:
        raise InputError(f"input is not a valid collection: {chk['violations']}")
    k, d = x.shape
    pairs = math.comb(k, 2)
    if chk["t"] >= pairs:
        raise InputError(f"t = {chk['t']} already at C(k,2) = {pairs}")
    if chk["s"] < k - 1:
        raise InputError(f"need s >= k-1, got s={chk['s']}, k={k}")
    gram = x @ x.T
    target = None
    for i in range(k):
        for j in range(i + 1, k):
            if gram[i, j] == 0:
                target = (i, j)
                break
        if target is not None:
            break
    col_load = x.sum(axis=0)
    i, j = target
    private_i = np.nonzero((x[i] == 1) & (col_load == 1))[0]
    private_j = np.nonzero((x[j] == 1) & (col_load == 1))[0]
    if not (private_i.size and private_j.size):
        # cannot happen when s >= k-1: a vector shares at most k-2
        # coordinates with the others once one pair is disjoint
        raise InputError("no private coordinate available for the move")
    out = x.copy()
    out[i, private_i[0]] = 0
    out[i, private_j[0]] = 1
    return Collection(vectors=out, s=chk["s"], t=chk["t"] + 1)
