"""Self-test of the benchmark's checkers: each must reject a wrong result.

    python3 perfbench/selftest.py

For every workload a few cheap operations run through barygap; the checker
must accept the genuine results and reject deliberately wrong ones (a
flipped decision, a value moved by 1e-3, plan mass moved off a marginal).
Run from the root of a checkout.  It is not part of the test suite; it
exits non-zero at the first checker that lets a wrong result through.
"""

import sys
from fractions import Fraction

import run
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def verdict(wl, spec, res, want):
    return wl.judge(spec, res, want)[0]


def moved_plan(entries, delta, size):
    """Move ``delta`` of plan mass to another atom of the first measure."""
    out = dict(entries)
    t = next(iter(out))
    other = ((t[0] + 1) % size,) + tuple(t[1:])
    out[t] -= delta
    out[other] = out.get(other, 0) + delta
    return out


def main():
    lib = run.fresh_library()

    wl = WORKLOADS["decide-sweep"]
    ops = wl.ops(0)
    picks = [op for op in ops if (op.name, op.k, op.p, op.q) in
             {("K4", 3, 2, 2), ("C5", 3, 1, float("inf")), ("R6-3s0", 2, 2, 1.5)}]
    expect(len(picks) == 3, "decide-sweep ops not found")
    for op in picks:
        res, want = wl.run(lib, op), wl.reference(op)
        expect(verdict(wl, op, res, want) == "ok", f"genuine {op} rejected")
        for route in ("chub", "mot"):
            flipped = dict(res, **{route: not res[route]})
            expect(verdict(wl, op, flipped, want) == "failed", f"flipped {route} answer passed on {op}")
        expect(verdict(wl, op, dict(res, oracle=not res["oracle"]), want) == "wrong",
               f"flipped oracle passed on {op}")
        if res["exact"] is not None:
            moved = dict(res, exact=res["exact"] + Fraction(1, 1000))
            expect(verdict(wl, op, moved, want) == "wrong", f"moved exact value passed on {op}")
    print(f"decide-sweep: checker rejects flipped decisions and moved values on {len(picks)} ops")

    wl = WORKLOADS["mot-lp"]
    ops = wl.ops(0)
    picks = {}
    for op in ops:
        picks.setdefault(op.kind, op)
    for kind, op in picks.items():
        res, want = wl.run(lib, op), wl.reference(op)
        expect(verdict(wl, op, res, want) == "ok", f"genuine {kind} rejected")
        if kind.endswith("-exact"):
            value, entries = res
            bad = [(value + Fraction(1, 1000), entries), (value, moved_plan(entries, Fraction(1, 1000), len(op.masses[0])))]
        else:
            bad = [res + 1e-3, res - 1e-3]
        for wrong in bad:
            expect(verdict(wl, op, wrong, want) == "wrong", f"wrong {kind} result passed")
    print(f"mot-lp: checker rejects moved values and plans on {sorted(picks)}")

    wl = WORKLOADS["bary-generic"]
    ops = [op for op in wl.ops(0) if op.p == 1 and op.q in (1, float("inf"))][:2]
    for op in ops:
        res, want = wl.run(lib, op), wl.reference(op)
        expect(verdict(wl, op, res, want) == "ok", f"genuine bary p={op.p} q={op.q} rejected")
        value, tolerance, entries = res
        for wrong in [(value + 1e-3, tolerance, entries), (value, tolerance, moved_plan(entries, 1e-6, len(op.masses[0])))]:
            expect(verdict(wl, op, wrong, want) == "wrong", f"wrong bary result passed (q={op.q})")
    print(f"bary-generic: checker rejects moved values and plans on {len(ops)} ops")
    print("selftest passed")


if __name__ == "__main__":
    main()
