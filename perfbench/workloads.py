"""The benchmark's three workloads: fixed operation lists, run and checked.

Each workload gives
  ``ops(seed)``        the operation list of one pass (plain data, no barygap objects),
  ``warm(lib)``        one warm-up on inputs disjoint from every measured input,
  ``run(lib, spec)``   one operation through barygap's public API,
  ``reference(spec)``  an answer computed apart from barygap (see reference.py),
  ``judge(spec, result, ref)`` -> ("ok" | "failed" | "wrong", detail).

"failed" is an operation whose decision contradicts the independent answer
(counted against ``attempted``); "wrong" is any other check that does not
hold, and makes the whole run incorrect.

The seed never changes how hard an input is.  Every input is a fixed base
input under a seeded symmetry that leaves its answer and its work
unchanged: vertex relabelings for graphs; atom, measure and coordinate
permutations, coordinate reflections and translations for measures.
Independent random draws moved the Frank-Wolfe bill of ``bary-generic`` by
+-20% between seeds, more than any bound worth having.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import reference as ref

SWEEP_PQS = [(2, 2), (1, 2), (2, 1.5), (1, 1), (2, 1), (1, math.inf), (2, math.inf)]
INF = math.inf


def _complete(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _cycle(n):
    return [tuple(sorted((i, (i + 1) % n))) for i in range(n)]


def _petersen():
    return (
        [tuple(sorted((i, (i + 1) % 5))) for i in range(5)]
        + [tuple(sorted((5 + i, 5 + (i + 2) % 5))) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
    )


# The criterion-2 acceptance corpus, written out here so that edits to the
# test suite cannot change the workload.  The R* graphs are the library's
# random_regular_graph(n, D, seed) draws, as edge lists.
CORPUS = {
    "K4": (4, _complete(4)),
    "K5": (5, _complete(5)),
    "C4": (4, _cycle(4)),
    "C5": (5, _cycle(5)),
    "C6": (6, _cycle(6)),
    "Petersen": (10, _petersen()),
    "R6-3s0": (6, [(0, 1), (0, 3), (0, 5), (1, 2), (1, 4), (2, 3), (2, 5), (3, 4), (4, 5)]),
    "R6-4s1": (6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 4), (2, 5),
                   (3, 4), (3, 5), (4, 5)]),
    "R7-4s0": (7, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 3), (1, 5), (1, 6), (2, 3), (2, 4),
                   (2, 5), (2, 6), (3, 4), (4, 6), (5, 6)]),
    "R8-5s4": (8, [(0, 1), (0, 2), (0, 3), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5),
                   (2, 4), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (4, 5), (4, 7), (5, 6),
                   (5, 7), (6, 7)]),
    "R7-2s0": (7, [(0, 2), (0, 6), (1, 2), (1, 4), (3, 5), (3, 6), (4, 5)]),
}
# 3-regular, 8 vertices, exactly one triangle: the bary-mot route answers
# "no" here although the triangle is a 3-clique
UNIQUE_TRIANGLE = (8, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 6), (3, 7),
                       (4, 6), (4, 7), (5, 6), (5, 7)])
# k = 4 runs on these graphs only; the rest of the k = 4 sweep would not fit a run
K4_GRAPHS = ("K4", "C4", "C5", "R6-3s0")
# q = 1 with odd k doubles the graph (k = 6, 8^6 tuples for C4); only these
# (graph, p) doubled instances are kept.  C4's p = 2 one runs ~19 s as one
# operation and would double the length of a pass (README).
DOUBLED = (("C4", 1),)


# ---------------------------------------------------------------------------
# decide-sweep


@dataclass(frozen=True)
class DecideOp:
    name: str
    n: int
    edges: tuple
    k: int
    p: float
    q: float


def _rng(seed, *salt):
    """Generator for one input stream of ``seed``; any integer seed is accepted."""
    return np.random.default_rng([seed % 2**32, *salt])


def _relabel(n, edges, rng):
    perm = rng.permutation(n)
    return tuple(sorted(tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in edges))


class DecideSweep:
    name = "decide-sweep"

    def ops(self, seed):
        rng = _rng(seed, 1)
        out = []
        for name, (n, edges) in CORPUS.items():
            relabeled = _relabel(n, edges, rng)
            for k in (2, 3, 4):
                if k == 4 and name not in K4_GRAPHS:
                    continue
                for p, q in SWEEP_PQS:
                    if q == 1 and k % 2 and (name, p) not in DOUBLED:
                        continue
                    out.append(DecideOp(name, n, relabeled, k, p, q))
        n, edges = UNIQUE_TRIANGLE
        out += [DecideOp("unique-triangle", n, tuple(edges), 3, p, q)
                for p, q in SWEEP_PQS if q != 1]
        return out

    def warm(self, lib):
        for p, q in ((2, 2), (2, 1), (1, INF), (2, INF)):
            self.run(lib, DecideOp("K3", 3, tuple(_complete(3)), 2, p, q))

    def run(self, lib, op):
        """One criterion-2 step: gadget, sweep, both decision routes, oracle."""
        inst = lib.build_instance(lib.Graph.from_edges(op.n, op.edges), op.k, op.p, op.q)
        tuples = inst.graph.n**inst.k
        tol = inst.certificate.delta / 20
        mot_ok = tuples <= 10**5
        sweep = lib.solve_chub(inst.points, tol=tol, cap=2 * 10**6, keep_per_tuple=mot_ok)
        chub = lib.decide_clique(inst, "chub-bruteforce", tol=tol, reuse=sweep)
        mot = lib.decide_clique(inst, "bary-mot", tol=tol, reuse=sweep) if mot_ok else None
        return {
            "chub": chub["hasClique"],
            "mot": None if mot is None else mot["hasClique"],
            "oracle": lib.oracle_decision(inst),
            "exact": sweep.value_exact,
        }

    def reference(self, op):
        out = {"truth": ref.has_clique(op.n, op.edges, op.k)}
        if (op.p, op.q) == (2, 2):
            out["value"] = ref.q22_gadget_value(op.n, op.edges, op.k)
        return out

    def judge(self, op, res, want):
        if bool(res["oracle"]) != want["truth"]:
            return "wrong", f"oracle says {res['oracle']}"
        if "value" in want and res["exact"] != want["value"]:
            return "wrong", f"exact value {res['exact']} != {want['value']}"
        for route in ("chub", "mot"):
            answer = res[route]
            if isinstance(answer, bool) and answer != want["truth"]:
                return "failed", f"{route} answers {answer}"
        return "ok", ""


# ---------------------------------------------------------------------------
# measures: fixed base draws under seeded symmetries


def _base_measures(rng, sizes, d, uniform=True, integer=False):
    atoms, masses = [], []
    for m in sizes:
        if integer:
            pts = set()
            while len(pts) < m:
                pts.add(tuple(int(v) for v in rng.integers(-3, 4, size=d)))
            a = np.array(sorted(pts), dtype=float)
        else:
            a = rng.random((m, d))
        atoms.append(a)
        if uniform:
            masses.append([Fraction(1, m)] * m)
        elif integer:
            # dyadic masses are exact in binary floating point
            cuts = np.sort(rng.choice(np.arange(1, 16), size=m - 1, replace=False))
            parts = np.diff(np.concatenate([[0], cuts, [16]]))
            masses.append([Fraction(int(c), 16) for c in parts])
        else:
            masses.append(list(rng.dirichlet(np.ones(m))))
    return atoms, masses


def _symmetry(atoms, masses, rng, integer=False):
    """Same measures up to atom, measure and coordinate order, reflections and a shift."""
    d = atoms[0].shape[1]
    cols = rng.permutation(d)
    signs = rng.choice([-1.0, 1.0], size=d)
    shift = rng.integers(-3, 4, size=d).astype(float) if integer else rng.uniform(-1, 1, size=d)
    out_a, out_m = [], []
    for i in rng.permutation(len(atoms)):
        perm = rng.permutation(atoms[i].shape[0])
        out_a.append(atoms[i][perm][:, cols] * signs + shift)
        out_m.append([masses[i][j] for j in perm])
    return out_a, out_m


def _float_masses(masses):
    return [np.array([float(v) for v in m]) for m in masses]


def _measures(lib, atoms, masses):
    return [lib.DiscreteMeasure(a, np.array([float(v) for v in m])) for a, m in zip(atoms, masses)]


def _close(value, want, rel=1e-7):
    return abs(value - want) <= rel * abs(want) + 1e-12


def _exact_plan_ok(entries, masses, costs, shape, value):
    """Marginals equal the masses exactly and the plan's cost equals ``value``."""
    k = len(shape)
    sums = [[Fraction(0)] * s for s in shape]
    total = Fraction(0)
    strides = [int(np.prod(shape[i + 1 :])) for i in range(k)]
    for t, mass in entries.items():
        if not isinstance(mass, Fraction):
            return f"plan entry {mass!r} is not a Fraction"
        for i in range(k):
            sums[i][t[i]] += mass
        total += mass * costs[sum(int(t[i]) * strides[i] for i in range(k))]
    for i in range(k):
        if sums[i] != list(masses[i]):
            return f"marginal {i} is {sums[i]}, not {list(masses[i])}"
    if total != value:
        return f"plan cost {total} != value_exact {value}"
    return ""


@dataclass(frozen=True)
class LpOp:
    kind: str            # "mot" | "mot-exact" | "ot" | "ot-exact" | "borgwardt"
    atoms: tuple
    masses: tuple
    p: float = 2.0
    q: float = 2.0


class MotLp:
    name = "mot-lp"

    # (kind, sizes, d, uniform, integer, p, q); float MOT tops out near 1.6e4 variables
    BASE = [
        ("mot", (10, 10, 10), 2, True, False, 2, 2),
        ("mot", (10, 10, 10), 2, False, False, 2, 2),
        ("mot", (15, 15, 15), 2, True, False, 2, 2),
        ("mot", (15, 15, 15), 2, False, False, 2, 2),
        ("mot", (8, 8, 8, 8), 2, True, False, 2, 2),
        ("mot", (8, 8, 8, 8), 2, False, False, 2, 2),
        ("mot", (20, 20, 20), 2, False, False, 2, 2),
        ("mot", (11, 11, 11, 11), 2, True, False, 2, 2),
        ("mot", (25, 25, 25), 2, False, False, 2, 2),
        ("mot-exact", (4, 4, 4), 2, True, True, 2, 2),
        ("mot-exact", (5, 5, 5), 2, False, True, 2, 2),
        ("mot-exact", (8, 8), 2, True, True, 2, 2),
        ("ot", (20, 20), 3, False, False, 2, 2),
        ("ot", (30, 30), 3, False, False, 1, 1),
        ("ot", (40, 40), 3, False, False, 2, INF),
        ("ot-exact", (6, 6), 3, False, True, 2, 2),
        ("borgwardt", (5, 5, 5), 2, False, False, 2, 2),
        ("borgwardt", (6, 6, 6), 2, False, False, 1, 2),
        ("borgwardt", (6, 6, 6, 6), 2, False, False, 2, 1),
    ]
    BASE_SEED = 20210611

    def _build(self, base, base_seed, seed):
        brng = np.random.default_rng(base_seed)
        out = []
        for index, (kind, sizes, d, uniform, integer, p, q) in enumerate(base):
            atoms, masses = _base_measures(brng, sizes, d, uniform, integer)
            if seed is not None:
                atoms, masses = _symmetry(atoms, masses, _rng(seed, 2, index), integer)
            out.append(LpOp(kind, tuple(atoms), tuple(tuple(m) for m in masses), p, q))
        return out

    def ops(self, seed):
        return self._build(self.BASE, self.BASE_SEED, seed)

    def warm(self, lib):
        small = [("mot", (3, 3, 3), 2, False, False, 2, 2), ("mot-exact", (2, 3), 2, True, True, 2, 2),
                 ("ot", (5, 5), 2, False, False, 2, 2), ("ot-exact", (3, 3), 2, True, True, 2, 2),
                 ("borgwardt", (3, 3), 2, False, False, 2, 2)]
        for op in self._build(small, 1, None):
            self.run(lib, op)

    def run(self, lib, op):
        ms = _measures(lib, op.atoms, op.masses)
        if op.kind == "mot":
            return lib.bary_value_mot(lib.BaryInstance(ms, op.p, op.q)).value
        if op.kind == "mot-exact":
            r = lib.bary_value_mot(lib.BaryInstance(ms, op.p, op.q), exact=True)
            return r.value_exact, dict(r.plan.entries)
        if op.kind == "ot":
            return lib.ot_cost(ms[0], ms[1], op.p, op.q)[0]
        if op.kind == "ot-exact":
            value, plan = lib.ot_cost(ms[0], ms[1], op.p, op.q, exact=True)
            return value, dict(plan.entries)
        return lib.borgwardt_2approx(lib.BaryInstance(ms, op.p, op.q))["value"]

    def reference(self, op):
        atoms, masses = list(op.atoms), _float_masses(op.masses)
        k = len(atoms)
        if op.kind == "mot":
            return ref.mot_value(ref.q22_tuple_costs(atoms, [1.0 / k] * k), masses)
        if op.kind == "mot-exact":
            costs = ref.q22_tuple_costs_exact(atoms)
            return ref.mot_value([float(c) for c in costs], masses), costs
        if op.kind == "ot":
            return ref.ot_value(atoms[0], masses[0], atoms[1], masses[1], op.p, op.q)
        if op.kind == "ot-exact":
            diff = atoms[0][:, None, :] - atoms[1][None, :, :]
            costs = [Fraction(int(round(v))) for v in (diff * diff).sum(axis=2).ravel()]
            return ref.ot_value(atoms[0], masses[0], atoms[1], masses[1], 2, 2), costs
        return ref.union_support_value(atoms, masses, [1.0 / k] * k, op.p, op.q)

    def judge(self, op, res, want):
        if op.kind.endswith("-exact"):
            (value, entries), (want_value, costs) = res, want
            if not isinstance(value, Fraction):
                return "wrong", f"exact value {value!r} is not a Fraction"
            shape = tuple(len(m) for m in op.masses)
            bad = _exact_plan_ok(entries, op.masses, costs, shape, value)
            if bad:
                return "wrong", bad
            res, want = float(value), want_value
        if not _close(res, want):
            return "wrong", f"{op.kind} value {res!r} vs HiGHS {want!r}"
        return "ok", ""


# ---------------------------------------------------------------------------
# bary-generic


class BaryGeneric:
    name = "bary-generic"

    TOL = 1e-6
    PER_REGIME = 2
    BASE_SEED = 20210612

    def ops(self, seed):
        brng = np.random.default_rng(self.BASE_SEED)
        out = []
        for p, q in SWEEP_PQS:
            if (p, q) == (2, 2):
                continue
            for rep in range(self.PER_REGIME):
                atoms, masses = _base_measures(brng, (3, 4, 4), 3, uniform=False)
                atoms, masses = _symmetry(atoms, masses, _rng(seed, 3, len(out)))
                out.append(LpOp("bary", tuple(atoms), tuple(tuple(m) for m in masses), p, q))
        return out

    def warm(self, lib):
        rng = np.random.default_rng(5)
        for p, q in ((2, 1), (2, INF)):
            atoms, masses = _base_measures(rng, (2, 2), 3, uniform=False)
            self.run(lib, LpOp("bary", tuple(atoms), tuple(tuple(m) for m in masses), p, q))

    def run(self, lib, op):
        r = lib.bary_value_mot(lib.BaryInstance(_measures(lib, op.atoms, op.masses), op.p, op.q), tol=self.TOL)
        return r.value, r.tolerance, dict(r.plan.entries)

    def reference(self, op):
        atoms, masses = list(op.atoms), _float_masses(op.masses)
        k = len(atoms)
        w = np.full(k, 1.0 / k)
        idx = ref.tuple_index(tuple(a.shape[0] for a in atoms))
        costs = [ref.hub_cost(np.stack([atoms[i][t[i]] for i in range(k)]), w, op.p, op.q)
                 for t in idx.T]
        return ref.mot_value(costs, masses)

    def judge(self, op, res, want):
        value, tolerance, entries = res
        for i, m in enumerate(_float_masses(op.masses)):
            marg = np.zeros(len(m))
            for t, mass in entries.items():
                marg[t[i]] += mass
            if np.abs(marg - m).max() > 1e-9:
                return "wrong", f"marginal {i} off by {np.abs(marg - m).max():.2e}"
        if abs(value - want) > tolerance + 1e-7:
            return "wrong", f"value {value!r} vs reference {want!r} beyond tolerance {tolerance:g} + 1e-7"
        return "ok", ""


WORKLOADS = {w.name: w for w in (DecideSweep(), MotLp(), BaryGeneric())}
