"""End-to-end clique-to-barycenter pipeline.

Builds gadget instances from graphs, computes per-regime gap certificates
(gamma, Delta), decides k-clique membership from computed values, and
exposes everything the verification harness and CLI need.

Certificate sources per regime:

* Q22  -- closed form: gamma = D(k-1)^2 - k + 1, Delta = 2/k (non-clique
  instances sit at or above gamma + 2/k; the sign follows the derivation,
  see the package docs).
* Q1   -- closed form from the q=1 value bound at t = C(k,2) and C(k,2)-1.
* QINF -- gamma = k/2^p.  The non-clique floor is 2 + (k-2)/2^p except at
  k = 3 where that bound is provably wrong (a hub placed at the middle
  point of a path tuple achieves exactly 2); the floor 2 is used there.
* QIN  -- solver-certified: over all 2^C(k,2) overlap patterns at (k, D),
  gamma is the clique pattern's value and Delta half its distance to the
  smallest certified lower bound of the others.  Artifact-level.
  ``collection_from_pattern`` is equivariant by construction (permuting the
  positions permutes the collection's rows and columns), so the sweep
  solves one pattern per orbit of patterns under permutations of the k
  positions, the least mask of each (11 of 64 at k=4); this is trusted, not
  checked on the points.  The sweep is a pure function of (k, D, p, q, tol)
  and runs once per key (an LRU cache); its solves also fill the ``fpq``
  memo, so the phi-embedded class problems of the same gadget, which are
  these pattern problems once their columns are merged, are memo hits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .bary import DEFAULT_LP_CAP, BaryInstance, DiscreteMeasure, _transport_lp
from .chub import _orbit_roots, _pair_list, _permute_codes, _position_generators, solve_chub
from .embed import (
    PointConfig,
    collection_from_pattern,
    embed_auto,
    q1_value_formula,
    regime_for,
)
from .errors import InputError, ResourceCapError, check_cap, check_tol
from .fpq import FpqProblem, solve_fpq_values
from .graph import Graph, even_k_doubling, has_k_clique


@dataclass
class GapCertificate:
    regime: str
    gamma: float
    delta: float
    provenance: str  # "closed-form" | "solver-certified"
    params: dict
    gamma_exact: Fraction | None = None
    delta_exact: Fraction | None = None
    tol: float = 0.0
    separation: float | None = None  # QIN: min non-clique lower bound - clique value

    def threshold(self):
        return self.gamma + self.delta / 2.0

    def to_json(self):
        out = {
            "regime": self.regime,
            "gamma": self.gamma,
            "delta": self.delta,
            "provenance": self.provenance,
            "params": self.params,
            "tol": self.tol,
        }
        if self.separation is not None:
            out["separation"] = self.separation
        return out


@lru_cache(maxsize=256)
def _qin_pattern_sweep(k, D, p, q, tol):
    """Solve F over every overlap pattern at (k, D): (complete value, min other lower).

    Permuting the k positions maps a pattern's collection to that of the
    permuted pattern (``collection_from_pattern`` is equivariant), so one
    solve serves each orbit of patterns, the one of its least mask.  A mask
    is a class code over one degree, so ``_permute_codes`` moves it.  The
    orbit representatives are one ``solve_fpq_values`` batch: the clique
    pattern's value and the least lower bound of the others are all the
    sweep reads.
    """
    pairs = _pair_list(k)
    npairs = len(pairs)
    if 2**npairs > 2**20:
        raise ResourceCapError(f"pattern sweep for k={k} has 2^{npairs} cases")
    masks = np.arange(2**npairs)
    maps = [_permute_codes(masks, perm) for perm in _position_generators(k)]
    roots = _orbit_roots(len(masks), maps)
    probs = []
    for mask in np.flatnonzero(roots == masks).tolist():
        coll = collection_from_pattern(k, D, [pairs[b] for b in range(npairs) if mask >> b & 1])
        probs.append(FpqProblem(coll.vectors.astype(float), p, q))
    values, lower = solve_fpq_values(probs, tol=tol)
    # the clique pattern, the largest mask and alone in its orbit, comes last
    return float(values[-1]), float(lower[:-1].min(initial=math.inf))


def gap_certificate(n, k, D, p, q, tol=1e-7) -> GapCertificate:
    """Value threshold gamma and separation Delta for the (n, k, D, p, q) gadget."""
    if k < 2:
        raise InputError(f"clique size must be >= 2, got {k}")
    if not (0 <= D < n):
        raise InputError(f"need 0 <= D < n, got D={D}, n={n}")
    regime = regime_for(p, q)
    params = {"n": n, "k": k, "D": D, "p": p, "q": "inf" if q == math.inf else q}

    if regime == "Q22":
        gamma = Fraction(D * (k - 1) ** 2 - k + 1)
        delta = Fraction(2, k)
        return GapCertificate(
            regime, float(gamma), float(delta), "closed-form", params,
            gamma_exact=gamma, delta_exact=delta,
        )
    if regime == "Q1":
        if k % 2 != 0:
            raise InputError(f"q=1 certificates need even k, got {k}")
        tmax = k * (k - 1) // 2
        gamma = q1_value_formula(n, k, tmax, p)
        delta = q1_value_formula(n, k, tmax - 1, p) - gamma
        ex = isinstance(gamma, Fraction)
        return GapCertificate(
            regime, float(gamma), float(delta), "closed-form", params,
            gamma_exact=gamma if ex else None, delta_exact=delta if ex else None,
        )
    if regime == "QINF":
        if n < 3:
            raise InputError(f"q=inf certificates need n >= 3, got n={n}")
        gamma = k / 2.0**p
        # 2 + (k-2)/2^p fails at k = 3 (a hub placed on the middle point of a
        # path tuple reaches exactly 2), so the tight floor 2 is used there
        floor = 2.0 if k == 3 else 2.0 + (k - 2) / 2.0**p
        return GapCertificate(regime, gamma, floor - gamma, "closed-form", params)

    # QIN: exhaustive pattern calibration
    f_clique, lower_other = _qin_pattern_sweep(k, D, p, q, tol)
    sep = lower_other - f_clique
    delta = 0.5 * sep
    if delta <= 10 * tol:
        raise InputError(f"certified gap {sep:.3e} too small against solver tol {tol:.1e}")
    return GapCertificate(
        "QIN", f_clique, delta, "solver-certified", params, tol=tol, separation=sep
    )


@dataclass
class ReductionInstance:
    graph: Graph           # graph the gadget was built from (post-doubling)
    k: int                 # clique size queried on that graph
    points: PointConfig
    certificate: GapCertificate
    transform: dict = field(default_factory=dict)  # doubling provenance

    @property
    def regime(self):
        return self.certificate.regime

    @property
    def bary(self):
        """The gadget as a BaryInstance (k uniform measures), built when read."""
        measures = [DiscreteMeasure.uniform(group.astype(float)) for group in self.points.points]
        return BaryInstance(measures=measures, p=self.points.p, q=self.points.q)


def build_instance(g: Graph, k, p, q) -> ReductionInstance:
    """Gadget instance whose hub/barycenter value separates clique from no-clique.

    For q=1 with odd k the graph is doubled (two copies plus a complete
    join) so the embedding's even-k requirement holds; the transformation
    is recorded and preserves the clique answer.
    """
    if not g.is_regular():
        raise InputError("gadget construction requires a regular graph")
    if k < 2:
        raise InputError(f"clique size must be >= 2, got {k}")
    transform = {}
    if q == 1 and k % 2 != 0:
        g2, k2 = even_k_doubling(g, k)
        transform = {"doubled": True, "original_n": g.n, "original_k": k}
        g, k = g2, k2
    cfg = embed_auto(g, k, p, q)
    cert = gap_certificate(g.n, k, g.regular_degree(), p, q)
    return ReductionInstance(graph=g, k=k, points=cfg, certificate=cert, transform=transform)


def decide_clique(
    inst: ReductionInstance,
    solver: str = "chub-bruteforce",
    tol: float = 1e-6,
    reuse=None,
) -> dict:
    """Compare the computed instance value against gamma + Delta/2.

    ``solver`` is "chub-bruteforce" (min over tuples, threshold on the hub
    scale) or "bary-mot" (``bary._transport_lp`` with uniform marginals over
    the sweep's tuple values divided by k; threshold divided by k).  A
    decision claims only what is proven: the sweep's minimum F* lies in
    [value - tolerance, value], and the LP value is at least F*/k.  So both
    routes answer False when the sweep's F* - tolerance lies above the
    threshold, True when their value is at most the threshold, and None
    otherwise.  The "no" is worked out once, from the sweep, before either
    route computes a value: no LP value can overturn it, so the bary-mot
    route then solves no LP (and runs no second sweep for per-tuple values)
    and reports ``value`` and ``margin`` as None, without
    ``mot_plan_support``.  ``reuse`` accepts a ChubResult for this
    instance's points (same tol or tighter) so sweeps can share the tuple
    enumeration between solvers.  The bary-mot route raises
    ResourceCapError, before any sweep, when n^k exceeds
    ``DEFAULT_LP_CAP``.  It reports max(tol, sweep tolerance)/k as its
    tolerance and, when it solves the LP, the plan's support size as
    ``mot_plan_support``; on a symmetric gadget the plan is symmetrized
    over axis permutations, so that size counts every permutation of each
    multiset the orbit LP uses.
    """
    check_tol(tol)
    cert = inst.certificate
    if tol > cert.delta / 10.0:
        raise InputError(
            f"tol={tol} too coarse for certificate delta={cert.delta} (need <= delta/10)"
        )
    if solver not in ("chub-bruteforce", "bary-mot"):
        raise InputError(f"unknown solver {solver!r}")
    mot = solver == "bary-mot"
    k, n = inst.k, inst.points.n
    if mot:
        check_cap(f"MOT LP with {n**k} variables", n**k, DEFAULT_LP_CAP)
    sweep = reuse if reuse is not None else solve_chub(inst.points, tol=tol, keep_per_tuple=mot)
    proven_no = sweep.value - sweep.tolerance > cert.threshold()
    if not mot:
        value, tolerance = sweep.value, sweep.tolerance
        threshold = cert.threshold()
        detail = {"chub": sweep.to_json()}
    else:
        value, detail = None, {}
        if not proven_no:
            if sweep.per_tuple is None:
                sweep = solve_chub(inst.points, tol=tol, keep_per_tuple=True)
            value, plan = _transport_lp([np.full(n, 1 / n)] * k, sweep.per_tuple.astype(float) / k)
            detail = {"mot_plan_support": len(plan.entries)}
        tolerance = max(tol, sweep.tolerance) / k
        threshold = cert.threshold() / k
    if proven_no:
        has = False
    elif value <= threshold:
        has = True
    else:
        has = None
    return {
        "hasClique": has,
        "value": None if value is None else float(value),
        "margin": None if value is None else float(threshold - value),
        "tolerance": float(tolerance),
        "threshold": float(threshold),
        "solver": solver,
        "regime": inst.regime,
        "certificate": cert.to_json(),
        "transform": inst.transform,
        **detail,
    }


def oracle_decision(inst: ReductionInstance):
    """Ground truth from the brute-force clique oracle (post-doubling graph)."""
    return has_k_clique(inst.graph, inst.k)


def unique_triangle_graph() -> Graph:
    """3-regular graph on 8 vertices with exactly one triangle.

    Characterizes the limit of the bary-mot decision route: uniform
    marginals cannot be coupled through the lone clique alone, so the MOT
    value strictly exceeds F*/k and the route answers None, not False.
    """
    edges = [
        (0, 1), (0, 2), (1, 2),
        (0, 3), (1, 4), (2, 5),
        (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7),
    ]
    return Graph.from_edges(8, edges)
