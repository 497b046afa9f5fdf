"""Discrete measures, W_{p,q} distances, exact barycenter values via the
multimarginal transport LP, the union-support 2-approximation, and the
quantize-and-split uniformization transform.

The k-marginal LP has one variable per support tuple, flat in the package's
one tuple order (numpy C order: ``np.unravel_index`` maps a flat position to
its tuple); its cost tensor comes from the code the hub sweep uses
(``chub.tuple_costs``: one Gram kernel at p=q=2, exact in integers in exact
mode; one inner hub solve per tuple elsewhere).  One helper,
``_transport_lp``, solves every transport LP, two-marginal and k-marginal,
from the marginals' mass vectors and a flat cost array; the bary-mot
clique decision (``reduction.decide_clique``) calls it on the hub sweep's
per-tuple values, with no measure built.  It takes an assignment when two
equal-size uniform marginals make the optimum a permutation (Birkhoff).
Otherwise HiGHS solves one LP whose columns are the axis-permutation
orbits, C(n+k-1, k) multisets instead of n^k tuples, when the marginals
are equal and the cost tensor is exactly symmetric (Bödi, Herr and
Joswig, *Algorithms for highly symmetric linear and integer programs*,
2013), and every tuple otherwise.  Exact mode proves HiGHS's vertex
optimal in rationals (``simplex.solve_lp``).  Desk-scale caps guard every
enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment

from .chub import _gram_costs, tuple_costs
from .errors import InputError, ResourceCapError, check_cap
from .fpq import FpqProblem, solve_fpq, unique_columns
from .simplex import solve_lp

DEFAULT_LP_CAP = 10**5
#: Largest per-measure atom count uniformize will build.
UNIFORM_ATOM_CAP = 10**6


def _norm_q(x, q):
    """l_q norm over the last axis."""
    x = np.abs(np.asarray(x, dtype=float))
    if q == math.inf:
        return x.max(axis=-1, initial=0.0)
    return (x**q).sum(axis=-1) ** (1.0 / q)


def _uniform(a):
    """True when every mass of ``a`` lies within 1e-12 of 1/len(a)."""
    return bool((np.abs(a - 1 / len(a)) <= 1e-12).all())


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on R^d."""

    atoms: np.ndarray   # (m, d)
    masses: np.ndarray  # (m,)

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        masses = np.asarray(self.masses, dtype=float)
        if atoms.shape[0] != masses.shape[0]:
            raise InputError(
                f"{atoms.shape[0]} atoms but {masses.shape[0]} masses"
            )
        if not np.isfinite(atoms).all():
            raise InputError("atoms must be finite")
        if (masses < -1e-15).any():
            raise InputError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > 1e-12:
            raise InputError(f"masses sum to {masses.sum()!r}, expected 1")
        if unique_columns(atoms.T)[0].shape[1] != atoms.shape[0]:
            raise InputError("atoms must be pairwise distinct")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "masses", np.maximum(masses, 0.0))

    @property
    def d(self):
        return self.atoms.shape[1]

    @property
    def size(self):
        return self.atoms.shape[0]

    def is_uniform(self):
        return _uniform(self.masses)

    @staticmethod
    def dirac(x):
        return DiscreteMeasure(np.atleast_2d(np.asarray(x, dtype=float)), np.array([1.0]))

    @staticmethod
    def uniform(atoms):
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        m = atoms.shape[0]
        return DiscreteMeasure(atoms, np.full(m, 1.0 / m))

    def to_json(self):
        return {
            "d": self.d,
            "atoms": [[float(v) for v in row] for row in self.atoms],
            "masses": [float(v) for v in self.masses],
        }

    @staticmethod
    def from_json(obj):
        try:
            return DiscreteMeasure(np.array(obj["atoms"], dtype=float),
                                   np.array(obj["masses"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed measure JSON: {exc}") from exc


@dataclass
class BaryInstance:
    measures: list
    p: float
    q: float
    weights: np.ndarray | None = None

    def __post_init__(self):
        if not self.measures:
            raise InputError("need at least one measure")
        d = self.measures[0].d
        for m in self.measures:
            if m.d != d:
                raise InputError("measures must share an ambient dimension")
        k = len(self.measures)
        if self.weights is None:
            w = np.full(k, 1.0 / k)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.shape != (k,) or (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
                raise InputError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        if not 1 <= self.p < math.inf or not self.q >= 1:
            raise InputError(f"need finite p >= 1 and q in [1, inf], got ({self.p}, {self.q})")

    @property
    def k(self):
        return len(self.measures)

    @property
    def d(self):
        return self.measures[0].d

    def to_json(self):
        return {
            "p": self.p,
            "q": "inf" if self.q == math.inf else self.q,
            "weights": [float(w) for w in self.weights],
            "measures": [m.to_json() for m in self.measures],
        }

    @staticmethod
    def from_json(obj):
        try:
            q = math.inf if obj["q"] == "inf" else float(obj["q"])
            return BaryInstance(
                measures=[DiscreteMeasure.from_json(m) for m in obj["measures"]],
                p=float(obj["p"]),
                q=q,
                weights=np.array(obj["weights"], dtype=float) if "weights" in obj else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"malformed instance JSON: {exc}") from exc

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path):
        with open(path) as fh:
            return BaryInstance.from_json(json.load(fh))


@dataclass
class TransportTensor:
    """Sparse nonnegative tensor with prescribed marginals."""

    shape: tuple
    entries: dict  # tuple -> mass

    def marginal(self, i):
        out = np.zeros(self.shape[i])
        for t, v in self.entries.items():
            out[t[i]] += v
        return out

    def max_marginal_violation(self, measures):
        worst = 0.0
        for i, mu in enumerate(measures):
            worst = max(worst, float(np.abs(self.marginal(i) - mu.masses).max()))
        return worst


# ---------------------------------------------------------------------------
# Optimal transport between two measures


def _pairwise_cost(a, b, p, q):
    return _norm_q(a[:, None, :] - b[None, :, :], q) ** p


def _marginal_matrix(shape):
    """Sparse (sum(shape), prod(shape)) matrix of the marginal constraints.

    Column f is the tensor entry at flat C-order position f; row
    ``sum(shape[:i]) + j`` sums the entries whose index on axis i is j.
    """
    total = int(np.prod(shape))
    idx = np.unravel_index(np.arange(total), shape)
    offsets = np.cumsum((0,) + tuple(shape[:-1]))
    rows = np.concatenate([off + ix for off, ix in zip(offsets, idx)])
    cols = np.tile(np.arange(total), len(shape))
    return sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(sum(shape), total))


def _rationals(values):
    """Fractions kept as they are; floats to denominators <= 10^12."""
    return [v if isinstance(v, Fraction) else Fraction(v).limit_denominator(10**12) for v in values]


def _integer_atoms(measures):
    """Each measure's atoms as an object array of Python ints; InputError unless integer."""
    for m in measures:
        if not (m.atoms == np.round(m.atoms)).all():
            raise InputError("exact mode needs integer-valued atoms")
    return [np.array([[int(v) for v in row] for row in m.atoms], dtype=object) for m in measures]


def _symmetric(masses, costs):
    """True when the marginals share size and masses and the cost tensor is
    unchanged, exactly, by every adjacent axis transposition."""
    a = masses[0]
    if not all(np.array_equal(m, a) for m in masses[1:]):
        return False
    tensor = np.asarray(costs).reshape((len(a),) * len(masses))
    return all(
        np.array_equal(tensor, np.swapaxes(tensor, i, i + 1)) for i in range(len(masses) - 1)
    )


def _transport_lp(masses, costs, exact=False):
    """Cheapest coupling of the marginals ``masses`` under flat C-order tuple ``costs``.

    ``masses[i]`` is the mass vector of marginal i; no atom is read.
    Returns (value, plan).  Two equal-size uniform marginals make the
    optimum a permutation (Birkhoff), found as an assignment.  Otherwise
    HiGHS solves one LP over the columns ``tuples``.  When the marginals
    share size and masses and the cost tensor is exactly symmetric under
    permuting its axes, a column is a multiset S of k indices (its sorted
    tuple), costing c_S, and each index v has one row, shared by all k axes:
    sum_S mult_S(v) z_S = k a_v.  Averaging an optimal plan over the k! axis
    permutations keeps it optimal, and z_S is the mass of S's orbit, so the
    values agree; the quotient duals u, used on every axis, are a feasible
    dual of the full LP with the same objective, so an exact certificate of
    this LP proves the full LP optimal.  Otherwise the columns are all
    tuples, under the sparse marginal matrix.  Each column's mass is spread
    evenly over the distinct permutations of its tuple that it stands for
    (on the full LP, the tuple alone), so on orbits the plan is a
    symmetrized optimum, not a vertex: its support can be up to k! times
    the orbit support.  ``exact`` certifies HiGHS's vertex in Fractions and
    returns a Fraction value and plan.
    """
    shape = tuple(len(a) for a in masses)
    if not exact and len(shape) == 2 and shape[0] == shape[1] and all(map(_uniform, masses)):
        cost = np.asarray(costs, dtype=float).reshape(shape)
        rows, cols = linear_sum_assignment(cost)
        n = shape[0]
        plan = TransportTensor(shape, {(int(r), int(c)): 1.0 / n for r, c in zip(rows, cols)})
        return float(cost[rows, cols].sum() / n), plan
    k = len(shape)
    if _symmetric(masses, costs):
        tuples = np.array(list(combinations_with_replacement(range(shape[0]), k)))
        A = np.zeros((shape[0], len(tuples)))  # dense: faster than sparse at these sizes
        np.add.at(A, (tuples, np.arange(len(tuples))[:, None]), 1.0)
        b, scale, perms = masses[0], k, list(permutations(range(k)))
    else:
        tuples = np.indices(shape).reshape(k, -1).T
        A = _marginal_matrix(shape)
        b, scale, perms = np.concatenate(masses), 1, [tuple(range(k))]
    c = np.asarray(costs, dtype=object if exact else float)[np.ravel_multi_index(tuples.T, shape)]
    if exact:
        # k times each rational mass, not the rational of k times the float
        b, c = [scale * v for v in _rationals(b)], _rationals(c)
    else:
        b = scale * b
    value, x = solve_lp(A, b, c, exact=exact)
    keep = np.nonzero(x > 0 if exact else x > 1e-12)[0]
    entries = {}
    for t, mass in zip(tuples[keep].tolist(), x[keep].tolist()):
        orbit = sorted({tuple(t[i] for i in g) for g in perms})
        entries.update((s, mass / len(orbit)) for s in orbit)
    return value, TransportTensor(shape, entries)


def ot_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, p, q, exact=False):
    """Optimal value and plan of the transportation LP with cost ||x-y||_q^p.

    ``exact`` (p=q=2, integer atoms) takes the squared distances from the
    Gram kernel in integers (the unit-weight p=q=2 value of a pair) and
    returns a certified Fraction value and plan.
    """
    if mu.d != nu.d:
        raise InputError(f"dimension mismatch: {mu.d} vs {nu.d}")
    total = mu.size * nu.size
    check_cap(f"OT LP with {total} variables", total, DEFAULT_LP_CAP)
    masses = [mu.masses, nu.masses]
    if not exact:
        return _transport_lp(masses, _pairwise_cost(mu.atoms, nu.atoms, p, q).ravel())
    if p != 2 or q != 2:
        raise InputError("exact OT mode is defined for p=q=2")
    return _transport_lp(masses, _gram_costs(_integer_atoms([mu, nu]), [1, 1]), exact=True)


def wasserstein_pq(mu: DiscreteMeasure, nu: DiscreteMeasure, p, q):
    """W_{p,q}(mu, nu): p-th root of the optimal transport cost."""
    value, _ = ot_cost(mu, nu, p, q)
    return max(value, 0.0) ** (1.0 / p)


def barycenter_objective(inst: BaryInstance, nu: DiscreteMeasure):
    """sum_i lambda_i W_{p,q}^p(mu_i, nu)."""
    total = 0.0
    for lam, mu in zip(inst.weights, inst.measures):
        value, _ = ot_cost(mu, nu, inst.p, inst.q)
        total += lam * value
    return total


# ---------------------------------------------------------------------------
# Multimarginal LP


@dataclass
class MotResult:
    value: float
    plan: TransportTensor
    tolerance: float
    value_exact: Fraction | None = None


def bary_value_mot(
    inst: BaryInstance,
    tol: float = 1e-6,
    cap: int = DEFAULT_LP_CAP,
    exact: bool = False,
) -> MotResult:
    """Exact barycenter value as the k-marginal transport LP.

    Cost entries are hub solves to tolerance tol/2 (``chub.tuple_costs``).
    The reported ``tolerance`` is the larger of ``tol`` and the largest
    tolerance a hub solve reports, which bounds the LP value's error.
    When the measures share their masses and the cost tensor is exactly
    symmetric, the plan is a symmetrized optimum rather than a vertex, with
    up to k! times the support of the orbit LP's vertex (``_transport_lp``).
    """
    total = math.prod(m.size for m in inst.measures)
    check_cap(f"MOT LP with {total} variables", total, cap)
    tolerance = tol
    if exact:
        if inst.p != 2 or inst.q != 2:
            raise InputError("exact MOT mode is defined for p=q=2")
        lam = [Fraction(w).limit_denominator(10**9) for w in inst.weights]
        scale = math.lcm(*(l.denominator for l in lam))
        a = [int(l * scale) for l in lam]
        num = _gram_costs(_integer_atoms(inst.measures), a)
        costs = [Fraction(v, scale * sum(a)) for v in num.tolist()]
    else:
        costs, worst = tuple_costs(
            [m.atoms for m in inst.measures], inst.p, inst.q, inst.weights, tol / 2
        )
        tolerance = max(tolerance, worst)

    value, plan = _transport_lp([m.masses for m in inst.measures], costs, exact)
    if exact:
        return MotResult(value=float(value), plan=plan, tolerance=0.0, value_exact=value)
    return MotResult(value=value, plan=plan, tolerance=tolerance)


def extract_barycenter(plan: TransportTensor, inst: BaryInstance):
    """Pushforward of the plan under the tuple -> optimal hub map."""
    buckets = {}
    for t, mass in plan.entries.items():
        if mass <= 0:
            continue
        pts = np.stack([inst.measures[i].atoms[t[i]] for i in range(inst.k)])
        sol = solve_fpq(FpqProblem(pts, inst.p, inst.q, weights=inst.weights), tol=1e-8)
        key = tuple(np.round(sol.minimizer, 9))
        if key in buckets:
            buckets[key][1] += mass
        else:
            buckets[key] = [sol.minimizer, mass]
    atoms = np.stack([v[0] for v in buckets.values()])
    masses = np.array([v[1] for v in buckets.values()])
    masses = masses / masses.sum()
    return DiscreteMeasure(atoms, masses)


# ---------------------------------------------------------------------------
# Union-support 2-approximation


def borgwardt_2approx(inst: BaryInstance, cap: int = DEFAULT_LP_CAP):
    """Optimize over barycenters supported on the union of input supports.

    One joint LP over the k transport plans and the nk support weights;
    the value is within a factor 2 of the optimum.
    """
    union = unique_columns(np.vstack([m.atoms for m in inst.measures]).T)[0].T
    s = union.shape[0]
    sizes = [m.size for m in inst.measures]
    n_plan = sum(ni * s for ni in sizes)
    check_cap(f"union-support LP with {n_plan + s} variables", n_plan + s, cap)
    # variables: the k plans (measure i -> union, C order), then the weights;
    # each plan's marginal rows, with -weights on its union-side rows
    plans = sparse.block_diag([_marginal_matrix((ni, s)) for ni in sizes])
    starts = np.cumsum([0] + [ni + s for ni in sizes])[:-1]
    w_rows = np.concatenate([r + ni + np.arange(s) for r, ni in zip(starts, sizes)])
    w_cols = np.tile(np.arange(s), inst.k)
    weights = sparse.csr_array(
        (-np.ones(w_rows.size), (w_rows, w_cols)), shape=(plans.shape[0], s)
    )
    A = sparse.hstack([plans, weights], format="csr")
    b = np.concatenate([np.concatenate([mu.masses, np.zeros(s)]) for mu in inst.measures])
    cost = np.concatenate(
        [
            lam * _pairwise_cost(mu.atoms, union, inst.p, inst.q).ravel()
            for lam, mu in zip(inst.weights, inst.measures)
        ]
        + [np.zeros(s)]
    )
    value, x = solve_lp(A, b, cost)
    w = np.maximum(x[n_plan:], 0.0)
    keep = w > 1e-12
    nu = DiscreteMeasure(union[keep], w[keep] / w[keep].sum())
    return {"value": float(value), "nu": nu}


# ---------------------------------------------------------------------------
# Uniformization (quantize + split)


def quantize_masses(masses, N):
    """Largest-remainder rounding of masses to multiples of 1/N (sums to N)."""
    masses = np.asarray(masses, dtype=float)
    scaled = masses * N
    base = np.floor(scaled).astype(int)
    short = N - base.sum()
    if short < 0 or short > len(masses):
        raise InputError(f"cannot apportion {N} units over {masses}")
    frac = scaled - base
    order = np.argsort(-frac, kind="stable")
    base[order[:short]] += 1
    return base


def rounding_coupling(mu: DiscreteMeasure, counts, N):
    """Explicit coupling between mu and its quantized version.

    Returns (entries, moved_mass): diagonal mass plus greedy moves of the
    excess, in deterministic atom order.
    """
    m_new = counts / N
    diag = np.minimum(mu.masses, m_new)
    surplus = mu.masses - diag
    deficit = m_new - diag
    entries = {(i, i): float(diag[i]) for i in range(mu.size) if diag[i] > 0}
    moved = 0.0
    j = 0
    for i in range(mu.size):
        s = surplus[i]
        while s > 1e-15:
            while j < mu.size and deficit[j] <= 1e-15:
                j += 1
            if j >= mu.size:
                break
            take = min(s, deficit[j])
            entries[(i, j)] = entries.get((i, j), 0.0) + float(take)
            deficit[j] -= take
            s -= take
            moved += float(take)
        surplus[i] = s
    return entries, moved


def uniformize(inst: BaryInstance, eps: float, c: float = 4.0):
    """Rewrite every measure as uniform over exactly N atoms in the unit ball.

    N = ceil(c * n * p * 2^p / eps) with n the largest input support size.
    Masses are quantized to multiples of 1/N by largest-remainder rounding,
    then each atom of mass m/N is split into m distinct atoms within l_q
    distance eps/(p 2^p) of the original (split offsets use half that radius
    so the radial projection back into the unit ball cannot overshoot).
    """
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    p, q = inst.p, inst.q
    for m in inst.measures:
        for a in m.atoms:
            if _norm_q(a, q) > 1.0 + 1e-12:
                raise InputError(
                    "uniformize expects atoms in the unit l_q ball; rescale first"
                )
    n_max = max(m.size for m in inst.measures)
    N = math.ceil(c * n_max * p * 2.0**p / eps)
    if N > UNIFORM_ATOM_CAP:
        raise ResourceCapError(
            f"eps={eps} needs N={N} atoms per measure (cap {UNIFORM_ATOM_CAP}); "
            f"the split radius would be {eps / (2 * p * 2.0**p):.3e}",
            required=N, cap=UNIFORM_ATOM_CAP,
        )
    r = eps / (2.0 * p * 2.0**p)
    if r <= 0 or not np.isfinite(r):
        raise InputError(f"split radius underflow for eps={eps}")
    d = inst.d
    out = []
    for mu in inst.measures:
        counts = quantize_masses(mu.masses, N)
        new_atoms = []
        for j in range(mu.size):
            m = int(counts[j])
            if m == 0:
                continue
            x = mu.atoms[j]
            for l in range(m):
                off = np.zeros(d)
                off[l % d] = r * (l + 1) / m * (1 if (l // d) % 2 == 0 else -1)
                y = x + off
                nq = _norm_q(y, q)
                if nq > 1.0:
                    y = y / nq
                new_atoms.append(y)
        atoms = np.array(new_atoms)
        if unique_columns(atoms.T)[0].shape[1] != atoms.shape[0]:
            raise InputError(
                f"split atoms collide at radius {r:.3e}; eps={eps} is too small "
                f"for this support (atoms within {2 * r:.3e} of each other)"
            )
        out.append(DiscreteMeasure(atoms, np.full(len(new_atoms), 1.0 / N)))
    return BaryInstance(measures=out, p=inst.p, q=inst.q, weights=inst.weights)
