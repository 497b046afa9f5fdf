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
from .bary import BaryInstance, bary_value_mot, borgwardt_2approx, uniformize
from .chub import solve_chub
from .embed import PointConfig, embed_auto
from .errors import InputError, ResourceCapError, SolverError
from .graph import (
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
        "seed": getattr(args, "seed", 0),
        "timings": {k: round(v, 6) for k, v in timings.items()},
        "results": results,
        "version": __version__,
    }


def _emit(args, report):
    text = _dump(report)
    if getattr(args, "json", False):
        print(text)
    elif not getattr(args, "quiet", False):
        res = report.get("results", {})
        summary = {k: res[k] for k in list(res)[:6]} if isinstance(res, dict) else res
        print(json.dumps(summary, sort_keys=True, default=str))


def _cmd_graph_gen(args):
    t0 = time.perf_counter()
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
    elif fam == "random-regular":
        if args.degree is None:
            raise InputError("random-regular generation needs --degree")
        g = random_regular_graph(args.n, args.degree, seed=args.seed)
    else:
        raise InputError(f"unknown family {fam!r}")
    g.save(args.out)
    rep = _report(
        args,
        {"n": g.n, "edges": len(g.edges), "regular": g.is_regular(), "out": args.out},
        {"total": time.perf_counter() - t0},
    )
    _emit(args, rep)
    return 0


def _cmd_embed(args):
    t0 = time.perf_counter()
    g = Graph.load(args.graph)
    q = _parse_q(args.q)
    cfg = embed_auto(g, args.k, args.p, q)
    cfg.save(args.out)
    rep = _report(
        args,
        {"regime": cfg.regime, "k": cfg.k, "n": cfg.n, "d": cfg.d, "out": args.out},
        {"total": time.perf_counter() - t0},
    )
    _emit(args, rep)
    return 0


def _cmd_chub(args):
    t0 = time.perf_counter()
    cfg = PointConfig.load(args.points)
    res = solve_chub(cfg, tol=args.tol, cap=args.cap)
    results = res.to_json()
    rep = _report(args, results, {"total": time.perf_counter() - t0})
    if args.out:
        _dump(rep, args.out)
    _emit(args, rep)
    return 0


def _cmd_bary_solve(args):
    t0 = time.perf_counter()
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
    rep = _report(args, results, {"total": time.perf_counter() - t0})
    if args.out:
        _dump(rep, args.out)
    _emit(args, rep)
    return 0


def _cmd_bary_uniformize(args):
    t0 = time.perf_counter()
    inst = BaryInstance.load(args.instance)
    out = uniformize(inst, args.eps)
    out.save(args.out)
    rep = _report(
        args,
        {"N": int(out.measures[0].size), "eps": args.eps, "out": args.out},
        {"total": time.perf_counter() - t0},
    )
    _emit(args, rep)
    return 0


def _cmd_reduce(args):
    timings = {}
    t0 = time.perf_counter()
    g = Graph.load(args.graph)
    q = _parse_q(args.q)
    inst = build_instance(g, args.k, args.p, q)
    timings["build"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    solver = "chub-bruteforce" if args.solver == "chub" else "bary-mot"
    decision = decide_clique(inst, solver=solver, tol=args.tol)
    timings["decide"] = time.perf_counter() - t1
    t2 = time.perf_counter()
    truth = oracle_decision(inst)
    timings["oracle"] = time.perf_counter() - t2
    timings["total"] = time.perf_counter() - t0
    has = decision["hasClique"]
    results = {
        "decision": decision,
        "oracle": truth,
        "agree": None if has is None else has == truth,
        "gamma": decision["certificate"]["gamma"],
        "delta": decision["certificate"]["delta"],
        "value": decision["value"],
    }
    rep = _report(args, results, timings)
    if args.report:
        _dump(rep, args.report)
    _emit(args, rep)
    return 1 if results["agree"] is False else 0


def _cmd_verify(args):
    t0 = time.perf_counter()
    rep_body = verify_lemma(args.lemma, seed=args.seed, budget=args.budget)
    rep = _report(args, rep_body, {"total": time.perf_counter() - t0})
    if args.report:
        _dump(rep, args.report)
    if getattr(args, "json", False):
        print(_dump(rep))
    elif not args.quiet:
        for c in rep_body["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"[{mark}] {rep_body['id']}::{c['name']}")
            if not c["passed"] and c.get("detail") is not None:
                print("       " + json.dumps(c["detail"], sort_keys=True, default=str))
        print(("PASS" if rep_body["passed"] else "FAIL") + f" {rep_body['id']}")
    return 0 if rep_body["passed"] else 1


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
    top.set_defaults(seed=0, quiet=False, json=False)
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
    ch.add_argument("--cap", type=int, default=10**7)
    ch.add_argument("--out")
    ch.set_defaults(func=_cmd_chub)

    ba = sub.add_parser("bary", help="barycenter solvers")
    bas = ba.add_subparsers(dest="bary_cmd", required=True)
    bs = bas.add_parser("solve", help="solve a barycenter instance", parents=[common])
    bs.add_argument("--instance", required=True)
    bs.add_argument("--method", choices=["mot", "borgwardt"], default="mot")
    bs.add_argument("--tol", type=float, default=1e-6)
    bs.add_argument("--cap", type=int, default=10**5)
    bs.add_argument("--out")
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
    ver.set_defaults(func=_cmd_verify)
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
        return args.func(args)
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
