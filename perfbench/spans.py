"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps public functions of the freshly imported barygap
modules.  Modules bind names at import (``from .fpq import solve_fpq``), so
every module attribute that is the original function object is replaced,
not just the defining one.  A span's self time is its duration minus the
time of the spans it caused; the tracer's own bookkeeping is credited to the
enclosing span as if it were a child, so it inflates no layer.
"""

from __future__ import annotations

import inspect
import math
import re
import sys
import time
from collections import defaultdict

import numpy as np

FPQ_PATHS = ("fw-q1", "fw-qinf", "lp-qinf", "lbfgs", "weiszfeld", "coordinate-q1", "closed-form-22")

# (module, function) -> span name; the names are the layer metrics' suffixes
SPANS = {
    ("fpq", "solve_fpq"): "fpq",
    ("chub", "solve_chub"): "chub",
    ("simplex", "solve_lp"): "simplex",
    ("bary", "bary_value_mot"): "bary.mot",
    ("bary", "ot_cost"): "bary.ot",
    ("bary", "borgwardt_2approx"): "bary.borgwardt",
    ("reduction", "build_instance"): "reduction.build",
    ("reduction", "gap_certificate"): "reduction.cert",
    ("reduction", "decide_clique"): "reduction.decide",
    ("embed", "embed_auto"): "embed",
    ("embed", "embed_phi"): "embed",
    ("embed", "embed_psi"): "embed",
    ("embed", "embed_xi"): "embed",
    ("embed", "collection_from_pattern"): "embed",
    ("embed", "canonical_clique_collection"): "embed",
    ("graph", "has_k_clique"): "graph.oracle",
}


def fpq_path(p, q):
    """The inner-solve path barygap takes for a (p, q) regime."""
    if q == 1:
        return "coordinate-q1" if p == 1 else "fw-q1"
    if q == math.inf:
        return "lp-qinf" if p == 1 else "fw-qinf"
    if p == 2 and q == 2:
        return "closed-form-22"
    return "weiszfeld" if (p, q) == (1, 2) else "lbfgs"


def canonical_problem(points, weights, p, q):
    """A key that is equal only for hub problems with equal values.

    Constant columns are dropped and duplicate columns merged into a
    multiset; rows are sorted together with their weights by a signature
    that ignores column order, then the columns are merged again.  Two
    problems with equal keys are the same problem up to point and
    coordinate permutations; some equal problems may get different keys.
    """
    x = np.asarray(points, dtype=float)
    k = x.shape[0]
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    x = x[:, ~(x == x[0]).all(axis=0)]
    if x.shape[1]:
        x, counts = np.unique(x, axis=1, return_counts=True)
    else:
        counts = np.zeros(0, dtype=np.int64)
    sig = [(w[i], sorted(zip(x[i].tolist(), counts.tolist()))) for i in range(k)]
    order = sorted(range(k), key=sig.__getitem__)
    x, w = x[order], w[order]
    cols = np.lexsort(x[::-1]) if x.shape[1] else np.zeros(0, dtype=np.int64)
    return (p, q, w.tobytes(), x.shape, x[:, cols].tobytes(), counts[cols].tobytes())


class Tracer:
    """Aggregates span self times and layer counters over the passes of a run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self.dense_mb_max = 0.0
        self._stack = []
        self._seen = set()
        self.passes = 0

    def start_pass(self):
        """Repeats count within one pass, as one sweep in a fresh process sees them."""
        self._seen = set()
        self.passes += 1

    def install(self, lib_modules):
        """Wrap the SPANS functions in every loaded barygap module."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in lib_modules}
        for (mod_name, fn_name), span in SPANS.items():
            orig = getattr(mods[mod_name], fn_name)
            wrapped = self._wrap(orig, span)
            for mod in lib_modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)

    def _wrap(self, fn, span):
        after = getattr(self, "_after_" + span.split(".")[0], None)
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
            t1 = time.perf_counter()
            name = span
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                name = after(span, bound.arguments, result)
            self.calls[name] += 1
            self.self_s[name] += dur - frame[0]
            if self._stack:
                self._stack[-1][0] += dur + (time.perf_counter() - t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer counters, computed from arguments and results ----------

    def _after_fpq(self, span, args, sol):
        prob, tol = args["prob"], args["tol"]
        key = canonical_problem(prob.points, prob.weights, prob.p, prob.q)
        if key in self._seen:
            self.count["fpq.repeats"] += 1
        self._seen.add(key)
        if sol.lower_bound is not None and sol.value - sol.lower_bound > tol:
            self.count["fpq.gap_over_tol"] += 1
        return f"{span}.{fpq_path(prob.p, prob.q)}"

    def _after_chub(self, span, args, res):
        config = args["config"]
        self.count["chub.tuples"] += config.n**config.k
        found = re.search(r"\[(\d+)\]", str(res.method))
        if found:
            self.count["chub.classes"] += int(found.group(1))
        return span

    def _after_simplex(self, span, args, res):
        m, n = np.shape(args["A"])
        self.dense_mb_max = max(self.dense_mb_max, m * (n + m + 1) * 8 / 1e6)
        return f"{span}.{'exact' if args['exact'] else 'float'}"

    # -- report -----------------------------------------------------------

    def metrics(self):
        """Per-pass figures: counts and self seconds averaged over the passes."""
        per = 1.0 / max(self.passes, 1)
        fpq_calls = sum(self.calls[f"fpq.{p}"] for p in FPQ_PATHS)
        fpq_self = sum(self.self_s[f"fpq.{p}"] for p in FPQ_PATHS)
        out = {
            "fpq.calls": (fpq_calls * per, "count"),
            "fpq.self_s": (fpq_self * per, "s"),
        }
        for path in FPQ_PATHS:
            out[f"fpq.calls.{path}"] = (self.calls[f"fpq.{path}"] * per, "count")
            out[f"fpq.self_s.{path}"] = (self.self_s[f"fpq.{path}"] * per, "s")
        out["fpq.repeat_share"] = (self.count["fpq.repeats"] / fpq_calls if fpq_calls else 0.0, "ratio")
        out["fpq.gap_over_tol"] = (self.count["fpq.gap_over_tol"] * per, "count")
        out["chub.calls"] = (self.calls["chub"] * per, "count")
        out["chub.self_s"] = (self.self_s["chub"] * per, "s")
        out["chub.tuples"] = (self.count["chub.tuples"] * per, "count")
        out["chub.classes"] = (self.count["chub.classes"] * per, "count")
        for kind in ("float", "exact"):
            out[f"simplex.calls.{kind}"] = (self.calls[f"simplex.{kind}"] * per, "count")
        for kind in ("float", "exact"):
            out[f"simplex.self_s.{kind}"] = (self.self_s[f"simplex.{kind}"] * per, "s")
        out["simplex.dense_mb_max"] = (self.dense_mb_max, "MB")
        out["bary.calls.mot"] = (self.calls["bary.mot"] * per, "count")
        for part in ("mot", "ot", "borgwardt"):
            out[f"bary.self_s.{part}"] = (self.self_s[f"bary.{part}"] * per, "s")
        for part in ("build", "cert", "decide"):
            out[f"reduction.self_s.{part}"] = (self.self_s[f"reduction.{part}"] * per, "s")
        out["embed.self_s"] = (self.self_s["embed"] * per, "s")
        out["graph.self_s.oracle"] = (self.self_s["graph.oracle"] * per, "s")
        return out


def library_modules():
    return [m for name, m in sys.modules.items()
            if (name == "barygap" or name.startswith("barygap.")) and m is not None]
