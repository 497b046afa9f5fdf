"""barygap benchmark: one workload per run, as whole passes over a fixed op list.

    python3 perfbench/run.py --workload decide-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; barygap is imported from its
``src`` directory, never from an installed copy.  A run:

1. builds the workload's op list from ``--seed``;
2. sets up nine times (a fresh import of barygap plus one warm-up op on
   inputs disjoint from the measured ones) and takes the median;
3. times whole passes over the op list until ``--seconds`` have been
   measured, each pass on a freshly imported barygap so that no in-process
   cache carries over from one pass to the next;
4. times ``probe``, a fixed interpreter loop that runs no barygap code,
   before each set-up, after the last one, before an operation when
   PROBE_EVERY_S seconds have passed since the last probe, and after the
   last pass (never inside a timed span);
5. checks every result against a computation made apart from barygap;
6. prints one JSON object as its last line: end-to-end metrics with
   ``--trace 0``, per-layer metrics (per pass) with ``--trace 1``.

End-to-end times are in reference-core seconds: each set-up and each
operation time is multiplied by REF_PROBE_S over the mean of the probes just
before and just after it, so that a stretch in which the host slows the
core by some factor reads as it would at the reference speed.  The raw
figures are printed on the summary line before the JSON.
"""

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS/OpenMP thread, set before numpy loads (workloads.py imports it):
# with the default pool an idle BLAS thread spins on the second core and the
# figures depend on what else runs there.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 9
PROBE_EVERY_S = 0.25
# The probe's median time on the reference machine (README, "Machine").
REF_PROBE_S = 0.0110


def probe():
    """A fixed interpreter-bound loop; its time measures the speed the core gives now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100000):
        acc += i * i % 7
    return time.perf_counter() - t0


class Prober:
    """Probe times in the order taken, and the reference-core scaling they give."""

    def __init__(self):
        self.times = []
        self.last = -math.inf

    def now(self):
        """Probes; returns the index of this probe."""
        self.times.append(probe())
        self.last = time.perf_counter()
        return len(self.times) - 1

    def maybe(self):
        """Probes if PROBE_EVERY_S seconds have passed; returns the index of the latest probe."""
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            return self.now()
        return len(self.times) - 1

    def scaled(self, seconds, j):
        """``seconds`` timed between probes j and j + 1, in reference-core seconds."""
        return seconds * 2 * REF_PROBE_S / (self.times[j] + self.times[j + 1])


def fresh_library():
    """Import barygap anew from the checkout, dropping every module of a previous import."""
    for name in [n for n in sys.modules if n == "barygap" or n.startswith("barygap.")]:
        del sys.modules[name]
    lib = importlib.import_module("barygap")
    if Path(lib.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"barygap came from {lib.__file__}, not from {SRC}")
    return lib


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "barygap" / "__init__.py").is_file():
        print(f"no barygap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer, library_modules
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    ops = wl.ops(args.seed)

    prober = Prober()
    setup = []
    for _ in range(SETUP_REPEATS):
        j = prober.now()
        t0 = time.perf_counter()
        wl.warm(fresh_library())
        setup.append((time.perf_counter() - t0, j))
    prober.now()

    tracer = Tracer() if args.trace else None
    passes, times, timed = [], [], 0.0
    while not passes or timed < args.seconds:
        lib = fresh_library()
        if tracer:
            tracer.install(library_modules())
            tracer.start_pass()
        gc.collect()
        out, row = [], []
        for spec in ops:
            j = prober.maybe()
            t0 = time.perf_counter()
            out.append(wl.run(lib, spec))
            row.append((time.perf_counter() - t0, j))
        timed += sum(t for t, _ in row)
        passes.append(out)
        times.append(row)
    prober.now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wants = [wl.reference(spec) for spec in ops]
    failed, wrong = 0, []
    for out in passes:
        for spec, res, want in zip(ops, out, wants):
            verdict, detail = wl.judge(spec, res, want)
            if verdict == "failed":
                failed += 1
            elif verdict != "ok":
                wrong.append(f"{spec_label(spec)}: {detail}")
    for line in wrong[:20]:
        print(f"WRONG {line}", file=sys.stderr)
    attempted = len(ops) * len(passes)

    # Each op's median over the passes filters a burst of contention that hits
    # one pass of it.
    raw_pass_s = sum(statistics.median(t for t, _ in col) for col in zip(*times))
    pass_s = sum(statistics.median(prober.scaled(*tj) for tj in col) for col in zip(*times))
    setup_s = statistics.median(prober.scaled(*tj) for tj in setup)
    print(f"# {wl.name} seed={args.seed}: {len(passes)} passes x {len(ops)} ops = "
          f"{attempted} op samples, {failed} failed; pass times "
          f"{' '.join(f'{sum(t for t, _ in row):.3f}' for row in times)} s, typical pass "
          f"{raw_pass_s:.3f} s raw, {pass_s:.3f} s scaled; set-ups "
          f"{' '.join(f'{t:.4f}' for t, _ in setup)} s; {len(prober.times)} probes, median "
          f"{statistics.median(prober.times) * 1e3:.3f} ms; raw ops_per_s "
          f"{len(ops) / raw_pass_s:.4f}, raw setup_s {statistics.median(t for t, _ in setup):.4f}"
          f"{'; traced' if tracer else ''}")
    if tracer:
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / pass_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def spec_label(spec):
    fields = getattr(spec, "__dataclass_fields__", {})
    keep = [f"{name}={getattr(spec, name)}" for name in ("name", "kind", "k", "p", "q") if name in fields]
    return " ".join(keep)


if __name__ == "__main__":
    sys.exit(main())
