"""Simple undirected graphs: model, generators, clique oracles, preprocessing.

Vertices are the integers 0..n-1.  Graphs are immutable after construction;
every operation here is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceCapError, check_cap

#: Default ceiling on the number of tuples a brute-force enumeration may visit.
DEFAULT_ENUM_CAP = 10**7
#: Configuration-model attempts before random_regular_graph gives up.
REGULAR_TRIES = 10000


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertex set {0, ..., n-1}."""

    n: int
    edges: frozenset[tuple[int, int]]
    degrees: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"vertex count must be nonnegative, got {self.n}")
        deg = [0] * self.n
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise InputError(f"bad edge {e}: need 0 <= u < v < n={self.n}")
            deg[u] += 1
            deg[v] += 1
        object.__setattr__(self, "degrees", tuple(deg))

    @staticmethod
    def from_edges(n, edges):
        """Build a graph, normalizing each edge to (min, max) and rejecting loops."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            norm.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(norm))

    def has_edge(self, u, v):
        if u == v:
            return False
        return (min(u, v), max(u, v)) in self.edges

    def adjacency_matrix(self):
        """Dense boolean adjacency matrix (symmetric, zero diagonal)."""
        a = np.zeros((self.n, self.n), dtype=bool)
        for u, v in self.edges:
            a[u, v] = True
            a[v, u] = True
        return a

    def is_regular(self):
        return len(set(self.degrees)) <= 1

    def regular_degree(self):
        """Common degree D of a regular graph."""
        if not self.is_regular():
            raise InputError("graph is not regular")
        return self.degrees[0] if self.n else 0

    def edge_list(self):
        return sorted(self.edges)

    def to_json(self):
        return {"n": self.n, "edges": [list(e) for e in self.edge_list()]}

    @staticmethod
    def from_json(obj):
        try:
            return Graph.from_edges(int(obj["n"]), [tuple(e) for e in obj["edges"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed graph JSON: {exc}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path):
        with open(path) as fh:
            return Graph.from_json(json.load(fh))


def _check_tuple(g: Graph, t) -> tuple[int, ...]:
    t = tuple(int(v) for v in t)
    for v in t:
        if not 0 <= v < g.n:
            raise InputError(f"vertex {v} out of range [0, {g.n})")
    return t


def induced_edge_count(g: Graph, t) -> int:
    """Number of edges among the (not necessarily distinct) vertices of ``t``.

    Counts with multiplicity: each index pair i < i' contributes 1 when the
    corresponding vertices are adjacent.  Repeated vertices contribute 0 for
    their own pair since the graph has no self-loops.
    """
    t = _check_tuple(g, t)
    k = len(t)
    return sum(
        1 for i in range(k) for j in range(i + 1, k) if g.has_edge(t[i], t[j])
    )


def max_multiset_edges(g: Graph, k) -> int:
    """Exact max of induced_edge_count over all n^k vertex tuples (brute force)."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if g.n == 0:
        raise InputError("graph has no vertices")
    total = g.n**k
    check_cap(f"enumerating {total} tuples", total, DEFAULT_ENUM_CAP)
    from .chub import _grid_blocks  # here, since chub imports this module

    adj = g.adjacency_matrix().astype(np.int64)
    pairs = {(i, j): adj for i in range(k) for j in range(i + 1, k)}
    return max(int(counts.max()) for _, counts in _grid_blocks((g.n,) * k, {}, pairs))


def has_k_clique(g: Graph, k) -> bool:
    """Ground-truth clique oracle: brute force over k-subsets."""
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > g.n:
        return False
    total = math.comb(g.n, k)
    check_cap(f"enumerating {total} subsets", total, DEFAULT_ENUM_CAP)
    target = k * (k - 1) // 2
    for sub in itertools.combinations(range(g.n), k):
        if induced_edge_count(g, sub) == target:
            return True
    return False


def even_k_doubling(g: Graph, k) -> tuple[Graph, int]:
    """Two copies of ``g`` joined completely across copies; clique size doubles.

    ``g`` must be regular; the result is (D + n)-regular on 2n vertices and
    contains a 2k-clique iff ``g`` contains a k-clique.
    """
    if not g.is_regular():
        raise InputError("even_k_doubling requires a regular graph")
    n = g.n
    edges = []
    for u, v in g.edges:
        edges.append((u, v))
        edges.append((u + n, v + n))
    for u in range(n):
        for v in range(n):
            edges.append((u, v + n))
    return Graph.from_edges(2 * n, edges), 2 * k


# ---------------------------------------------------------------------------
# Generators


def complete_graph(n):
    return Graph.from_edges(n, itertools.combinations(range(n), 2))


def cycle_graph(n):
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def circulant_graph(n, offsets):
    """Vertices 0..n-1 with i adjacent to i +/- s (mod n) for each offset s."""
    edges = set()
    for i in range(n):
        for s in offsets:
            s = s % n
            if s == 0:
                raise InputError("circulant offset 0 would be a self-loop")
            j = (i + s) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, edges)


def petersen_graph():
    """The Petersen graph: outer 5-cycle, inner 5-star, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def random_regular_graph(n, degree, seed=0):
    """Random D-regular simple graph via configuration-model retries.

    Deterministic for a fixed seed.  Raises InputError when (n, degree) is
    infeasible and ResourceCapError if no simple matching is found in
    ``REGULAR_TRIES`` attempts.
    """
    if degree < 0 or degree >= n:
        raise InputError(f"degree must satisfy 0 <= D < n, got D={degree}, n={n}")
    if (n * degree) % 2 != 0:
        raise InputError(f"n*D must be even, got n={n}, D={degree}")
    if degree == 0:
        return Graph.from_edges(n, [])
    if degree > (n - 1) / 2:
        # dense regimes pair badly in the configuration model; draw the
        # complement instead (complement of a simple regular graph is regular)
        comp = random_regular_graph(n, n - 1 - degree, seed=seed)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in comp.edges
        ]
        return Graph.from_edges(n, edges)
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(degree)]
    for _ in range(REGULAR_TRIES):
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for a, b in zip(stubs[0::2], stubs[1::2]):
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if ok:
            return Graph.from_edges(n, edges)
    raise ResourceCapError(
        f"no simple {degree}-regular graph found on {n} vertices "
        f"after {REGULAR_TRIES} configuration-model tries"
    )
