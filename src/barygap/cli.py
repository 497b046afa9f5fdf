"""Unified command-line entry point.

Subcommands: graph gen, embed, chub, bary solve, bary uniformize, reduce,
verify.  All I/O is JSON with canonical key ordering; every run emits a
report carrying the command echo, a config hash, seeds, timings, and the
tool version, so identical inputs reproduce identical outputs.

Exit codes: 0 success/pass, 1 property or solver failure, 2 usage error,
3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time

from . import __version__
from .bary import DEFAULT_LP_CAP, BaryInstance, bary_value_mot, borgwardt_2approx, uniformize
from .chub import solve_chub
from .embed import PointConfig, embed_auto
from .errors import InputError, ResourceCapError, SolverError
from .graph import (
    DEFAULT_ENUM_CAP,
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_regular_graph,
)
from .reduction import build_instance, decide_clique, oracle_decision
from .verify import verify_lemma


def _parse_q(text):
    if text in ("inf", "Inf", "INF", "infinity"):
        return math.inf
    return float(text)


def _dump(obj, path=None):
    text = json.dumps(obj, sort_keys=True, indent=2, default=str)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


# the input-file options of embed, reduce, chub, bary solve and bary uniformize
_INPUT_FILES = ("graph", "points", "instance")


def _config_hash(args):
    """sha256 over argv and the sha256 of every input file the command reads."""
    inputs = {}
    for name in _INPUT_FILES:
        path = getattr(args, name, None)
        if path:
            with open(path, "rb") as fh:
                inputs[name] = hashlib.sha256(fh.read()).hexdigest()
    payload = {"argv": args._argv, "inputs": inputs}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _report(args, results, timings):
    return {
        "command": " ".join(args._argv),
        "config_hash": args._config_hash,
        "seed": args.seed,
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "results": results,
        "version": __version__,
    }


def _print_summary(results):
    print(json.dumps(dict(list(results.items())[:6]), sort_keys=True, default=str))


def _print_checks(results):
    for c in results["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        print(f"[{mark}] {results['id']}::{c['name']}")
        if not c["passed"] and c.get("detail") is not None:
            print("       " + json.dumps(c["detail"], sort_keys=True, default=str))
    print(("PASS" if results["passed"] else "FAIL") + f" {results['id']}")


# Each command returns (results, stage timings, exit code); ``main`` adds the
# total time, builds the report, writes it to --report/--out and prints it.


def _cmd_graph_gen(args):
    fam = args.family
    if fam == "complete":
        g = complete_graph(args.n)
    elif fam == "cycle":
        g = cycle_graph(args.n)
    elif fam == "circulant":
        if not args.offsets:
            raise InputError("circulant generation needs --offsets")
        g = circulant_graph(args.n, [int(s) for s in args.offsets.split(",")])
    elif fam == "petersen":
        g = petersen_graph()
    else:  # random-regular, the last of the parser's choices
        if args.degree is None:
            raise InputError("random-regular generation needs --degree")
        g = random_regular_graph(args.n, args.degree, seed=args.seed)
    g.save(args.out)
    return {"n": g.n, "edges": len(g.edges), "regular": g.is_regular(), "out": args.out}, {}, 0


def _cmd_embed(args):
    g = Graph.load(args.graph)
    cfg = embed_auto(g, args.k, args.p, _parse_q(args.q))
    cfg.save(args.out)
    return {"regime": cfg.regime, "k": cfg.k, "n": cfg.n, "d": cfg.d, "out": args.out}, {}, 0


def _cmd_chub(args):
    res = solve_chub(PointConfig.load(args.points), tol=args.tol, cap=args.cap)
    return res.to_json(), {}, 0


def _cmd_bary_solve(args):
    inst = BaryInstance.load(args.instance)
    if args.method == "mot":
        r = bary_value_mot(inst, tol=args.tol, cap=args.cap)
        results = {
            "value": r.value,
            "method": "mot",
            "plan_support": len(r.plan.entries),
            "tolerance": r.tolerance,
        }
    else:
        r = borgwardt_2approx(inst, cap=args.cap)
        results = {
            "value": r["value"],
            "method": "borgwardt",
            "support": int(r["nu"].size),
        }
    return results, {}, 0


def _cmd_bary_uniformize(args):
    out = uniformize(BaryInstance.load(args.instance), args.eps)
    out.save(args.out)
    return {"N": int(out.measures[0].size), "eps": args.eps, "out": args.out}, {}, 0


def _cmd_reduce(args):
    timings = {}
    t0 = time.perf_counter()
    g = Graph.load(args.graph)
    inst = build_instance(g, args.k, args.p, _parse_q(args.q))
    timings["build"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    solver = "chub-bruteforce" if args.solver == "chub" else "bary-mot"
    decision = decide_clique(inst, solver=solver, tol=args.tol)
    timings["decide"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    truth = oracle_decision(inst)
    timings["oracle"] = time.perf_counter() - t2
    has = decision["hasClique"]
    results = {
        "decision": decision,
        "oracle": truth,
        "agree": None if has is None else has == truth,
        "gamma": decision["certificate"]["gamma"],
        "delta": decision["certificate"]["delta"],
        "value": decision["value"],
    }
    return results, timings, 1 if results["agree"] is False else 0


def _cmd_verify(args):
    results = verify_lemma(args.lemma, seed=args.seed, budget=args.budget)
    return results, {}, 0 if results["passed"] else 1


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="root seed for all randomness (default 0)")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress the summary line")
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="print the full JSON report")

    top = argparse.ArgumentParser(
        prog="barygap",
        parents=[common],
        description="Exact small-scale generalized Wasserstein barycenters and "
        "clique-gap gadget verification.",
    )
    top.set_defaults(seed=0, quiet=False, json=False, report=None, emit=_print_summary)
    sub = top.add_subparsers(dest="cmd", required=True)

    pg = sub.add_parser("graph", help="graph utilities")
    pgs = pg.add_subparsers(dest="graph_cmd", required=True)
    gen = pgs.add_parser("gen", help="generate a graph file", parents=[common])
    gen.add_argument("--family", required=True,
                     choices=["complete", "cycle", "circulant", "petersen", "random-regular"])
    gen.add_argument("--n", type=int, default=10)
    gen.add_argument("--degree", type=int)
    gen.add_argument("--offsets", help="comma-separated circulant offsets")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_graph_gen)

    emb = sub.add_parser("embed", help="embed a graph as a point configuration", parents=[common])
    emb.add_argument("--graph", required=True)
    emb.add_argument("--k", type=int, required=True)
    emb.add_argument("--p", type=float, required=True)
    emb.add_argument("--q", required=True, help="float or 'inf'")
    emb.add_argument("--out", required=True)
    emb.set_defaults(func=_cmd_embed)

    ch = sub.add_parser("chub", help="brute-force hub-selection value", parents=[common])
    ch.add_argument("--points", required=True)
    ch.add_argument("--tol", type=float, default=1e-6)
    ch.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP)
    ch.add_argument("--out", dest="report", metavar="OUT")
    ch.set_defaults(func=_cmd_chub)

    ba = sub.add_parser("bary", help="barycenter solvers")
    bas = ba.add_subparsers(dest="bary_cmd", required=True)
    bs = bas.add_parser("solve", help="solve a barycenter instance", parents=[common])
    bs.add_argument("--instance", required=True)
    bs.add_argument("--method", choices=["mot", "borgwardt"], default="mot")
    bs.add_argument("--tol", type=float, default=1e-6)
    bs.add_argument("--cap", type=int, default=DEFAULT_LP_CAP)
    bs.add_argument("--out", dest="report", metavar="OUT")
    bs.set_defaults(func=_cmd_bary_solve)
    bu = bas.add_parser("uniformize", help="quantize+split to uniform measures", parents=[common])
    bu.add_argument("--instance", required=True)
    bu.add_argument("--eps", type=float, required=True)
    bu.add_argument("--out", required=True)
    bu.set_defaults(func=_cmd_bary_uniformize)

    red = sub.add_parser("reduce", help="clique decision through the gadget", parents=[common])
    red.add_argument("--graph", required=True)
    red.add_argument("--k", type=int, required=True)
    red.add_argument("--p", type=float, required=True)
    red.add_argument("--q", required=True)
    red.add_argument("--solver", choices=["chub", "mot"], default="chub")
    red.add_argument("--tol", type=float, default=1e-6)
    red.add_argument("--report")
    red.set_defaults(func=_cmd_reduce)

    ver = sub.add_parser("verify", help="run a property suite", parents=[common])
    ver.add_argument("--lemma", required=True)
    ver.add_argument("--budget", type=float, default=1.0)
    ver.add_argument("--report")
    ver.set_defaults(func=_cmd_verify, emit=_print_checks)
    return top


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0,) else 0
    args._argv = argv
    try:
        args._config_hash = _config_hash(args)
        t0 = time.perf_counter()
        results, timings, code = args.func(args)
        timings["total"] = time.perf_counter() - t0
        report = _report(args, results, timings)
        if args.report:
            _dump(report, args.report)
        if args.json:
            print(_dump(report))
        elif not args.quiet:
            args.emit(results)
        return code
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
