import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import barygap
import barygap.reduction
from barygap.cli import main
from barygap.verify import SUITES, verify_lemma


def run_cli(args, cwd):
    # The child runs from `cwd`, where a relative PYTHONPATH such as `src` does
    # not resolve; put the source directory of the imported package first so
    # the child runs the same code whether or not barygap is installed.
    src = str(Path(barygap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "barygap.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_end_to_end_pipeline(tmp_path):
    g = tmp_path / "g.json"
    pts = tmp_path / "pts.json"
    rep = tmp_path / "rep.json"
    assert main(["graph", "gen", "--family", "complete", "--n", "4", "--out", str(g), "--quiet"]) == 0
    assert main(["embed", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2", "--out", str(pts), "--quiet"]) == 0
    cfg = json.loads(pts.read_text())
    assert cfg["regime"] == "Q22" and cfg["d"] == 48
    out = tmp_path / "chub.json"
    assert main(["chub", "--points", str(pts), "--out", str(out), "--quiet"]) == 0
    body = json.loads(out.read_text())
    assert body["results"]["value"] == 10.0
    assert body["results"]["value_exact"] == [10, 1]
    assert main([
        "reduce", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2",
        "--solver", "chub", "--report", str(rep), "--quiet",
    ]) == 0
    report = json.loads(rep.read_text())
    assert report["results"]["agree"] is True
    assert report["version"]
    assert "decide" in report["timings"]


def test_reduce_mot_and_inf_q(tmp_path, capsys):
    g = tmp_path / "g.json"
    rep = tmp_path / "rep.json"
    assert main(["graph", "gen", "--family", "cycle", "--n", "5", "--out", str(g), "--quiet"]) == 0
    assert main([
        "reduce", "--graph", str(g), "--k", "3", "--p", "1", "--q", "inf",
        "--solver", "chub", "--quiet",
    ]) == 0
    # the sweep proves C5 triangle-free, so the transport-LP route solves no
    # LP and reports no LP value; the summary line prints the nulls
    capsys.readouterr()
    assert main([
        "reduce", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2",
        "--solver", "mot", "--report", str(rep),
    ]) == 0
    summary = json.loads(capsys.readouterr().out)
    results = json.loads(rep.read_text())["results"]
    assert summary == {key: results[key] for key in summary}
    assert results["agree"] is True and results["decision"]["hasClique"] is False
    assert results["value"] is None and results["decision"]["margin"] is None
    assert "mot_plan_support" not in results["decision"]
    # an inconclusive transport-LP route reports agree null and exits 0
    barygap.reduction.unique_triangle_graph().save(g)
    assert main([
        "reduce", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2",
        "--solver", "mot", "--report", str(rep), "--quiet",
    ]) == 0
    results = json.loads(rep.read_text())["results"]
    assert results["decision"]["hasClique"] is None
    assert results["agree"] is None and results["oracle"] is True


def test_bary_subcommands(tmp_path):
    inst = {
        "p": 2.0,
        "q": 2.0,
        "weights": [0.5, 0.5],
        "measures": [
            {"d": 1, "atoms": [[0.0]], "masses": [1.0]},
            {"d": 1, "atoms": [[2.0]], "masses": [1.0]},
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst))
    out = tmp_path / "solve.json"
    assert main(["bary", "solve", "--instance", str(path), "--method", "mot",
                 "--out", str(out), "--quiet"]) == 0
    assert abs(json.loads(out.read_text())["results"]["value"] - 1.0) < 1e-9
    assert main(["bary", "solve", "--instance", str(path), "--method", "borgwardt",
                 "--out", str(out), "--quiet"]) == 0
    assert abs(json.loads(out.read_text())["results"]["value"] - 2.0) < 1e-9
    upath = tmp_path / "uniform.json"
    inst2 = {
        "p": 2.0,
        "q": 2.0,
        "measures": [
            {"d": 1, "atoms": [[0.1], [0.5]], "masses": [0.25, 0.75]},
            {"d": 1, "atoms": [[-0.4]], "masses": [1.0]},
        ],
    }
    path2 = tmp_path / "inst2.json"
    path2.write_text(json.dumps(inst2))
    assert main(["bary", "uniformize", "--instance", str(path2), "--eps", "0.5",
                 "--out", str(upath), "--quiet"]) == 0
    body = json.loads(upath.read_text())
    sizes = {len(m["masses"]) for m in body["measures"]}
    assert len(sizes) == 1


def test_exit_codes(tmp_path):
    g = tmp_path / "g.json"
    main(["graph", "gen", "--family", "complete", "--n", "4", "--out", str(g), "--quiet"])
    pts = tmp_path / "pts.json"
    main(["embed", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2", "--out", str(pts), "--quiet"])
    # resource cap -> 3
    assert main(["chub", "--points", str(pts), "--cap", "5", "--quiet"]) == 3
    # missing/invalid input -> 2
    assert main(["embed", "--graph", str(tmp_path / "nope.json"), "--k", "2",
                 "--p", "2", "--q", "2", "--out", str(pts), "--quiet"]) == 2
    # usage error -> 2
    assert main(["bogus"]) == 2
    assert main(["graph", "gen", "--family", "unknown", "--out", str(g)]) == 2


@pytest.mark.parametrize("p", ["nan", "inf", "0.5"])
def test_p_outside_finite_one_and_up_exits_2(tmp_path, p):
    g, inst = tmp_path / "g.json", tmp_path / "inst.json"
    main(["graph", "gen", "--family", "cycle", "--n", "5", "--out", str(g), "--quiet"])
    for q in ("1", "2", "inf"):
        assert main(["reduce", "--graph", str(g), "--k", "2", "--p", p, "--q", q, "--quiet"]) == 2
    measure = {"d": 1, "atoms": [[0.0], [1.0]], "masses": [0.5, 0.5]}
    inst.write_text(json.dumps({"p": float(p), "q": 2.0, "measures": [measure, measure]}))
    for method in ("mot", "borgwardt"):
        assert main(["bary", "solve", "--instance", str(inst), "--method", method, "--quiet"]) == 2


@pytest.mark.parametrize(
    "coord, value",
    [(-1, 1), ("d", 1), (0, 5), (0, True), (True, 1)],
    ids=["coord-negative", "coord-d", "value-5", "value-true", "coord-true"],
)
def test_chub_rejects_bad_point_entries(tmp_path, coord, value):
    g, pts = tmp_path / "g.json", tmp_path / "pts.json"
    main(["graph", "gen", "--family", "complete", "--n", "4", "--out", str(g), "--quiet"])
    main(["embed", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2", "--out", str(pts), "--quiet"])
    body = json.loads(pts.read_text())
    body["points"][0].append([body["d"] if coord == "d" else coord, value])
    pts.write_text(json.dumps(body))
    assert main(["chub", "--points", str(pts), "--quiet"]) == 2


@pytest.mark.parametrize(
    "k, n, p, q, regime",
    [(3, 0, 2, 2, "Q22"), (3, 0, 1, 1.5, "QIN"), (0, 4, 2, 2, "Q22")],
    ids=["n0-q22", "n0-qin", "k0"],
)
def test_chub_rejects_empty_point_configs(tmp_path, k, n, p, q, regime):
    pts = tmp_path / "pts.json"
    body = {"p": p, "q": q, "k": k, "n": n, "d": 4, "regime": regime, "points": [], "source": {}}
    pts.write_text(json.dumps(body))
    assert main(["chub", "--points", str(pts), "--quiet"]) == 2


def test_verify_cli_and_aliases(tmp_path):
    assert main(["verify", "--lemma", "q1-witness", "--quiet"]) == 0
    assert main(["verify", "--lemma", "3.2", "--budget", "0.2", "--quiet"]) == 0
    assert main(["verify", "--lemma", "helper", "--budget", "0.2", "--quiet"]) == 0
    assert main(["verify", "--lemma", "nonsense", "--quiet"]) == 2
    rep = tmp_path / "verify.json"
    assert main(["verify", "--lemma", "qinf-clique", "--report", str(rep), "--quiet"]) == 0
    body = json.loads(rep.read_text())
    assert body["results"]["passed"] is True


def test_cli_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["graph", "gen", "--family", "random-regular", "--n", "8", "--degree", "3",
              "--seed", "5", "--out", str(out), "--quiet"])
    assert a.read_text() == b.read_text()
    ga = tmp_path / "pa.json"
    gb = tmp_path / "pb.json"
    main(["embed", "--graph", str(a), "--k", "4", "--p", "1", "--q", "1", "--out", str(ga), "--quiet"])
    main(["embed", "--graph", str(a), "--k", "4", "--p", "1", "--q", "1", "--out", str(gb), "--quiet"])
    assert ga.read_text() == gb.read_text()


def test_config_hash_identifies_input_files(tmp_path):
    g, pts, rep = tmp_path / "g.json", tmp_path / "pts.json", tmp_path / "rep.json"
    hashes = {}
    for n in (4, 5):
        main(["graph", "gen", "--family", "complete", "--n", str(n), "--out", str(g), "--quiet"])
        main(["embed", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2", "--out", str(pts), "--quiet"])
        for argv in (
            ["chub", "--points", str(pts), "--out", str(rep)],
            ["reduce", "--graph", str(g), "--k", "3", "--p", "2", "--q", "2", "--report", str(rep)],
        ):
            assert main(argv + ["--quiet"]) == 0
            hashes.setdefault(argv[0], set()).add(json.loads(rep.read_text())["config_hash"])
    assert all(len(h) == 2 for h in hashes.values())


def test_subprocess_entry_point(tmp_path):
    g = tmp_path / "k4.json"
    res = run_cli(["graph", "gen", "--family", "complete", "--n", "4", "--out", str(g)], tmp_path)
    assert res.returncode == 0, res.stderr
    assert g.exists()


def test_all_verify_suites_pass_at_small_budget():
    for sid in SUITES:
        rep = verify_lemma(sid, seed=0, budget=0.25)
        assert rep["passed"], (sid, [c for c in rep["checks"] if not c["passed"]][:2])


REPORT_KEYS = {"command", "config_hash", "seed", "timings", "results", "version"}
BARY_INST = {
    "p": 2.0,
    "q": 2.0,
    "measures": [
        {"d": 1, "atoms": [[0.1], [0.5]], "masses": [0.25, 0.75]},
        {"d": 1, "atoms": [[-0.4]], "masses": [1.0]},
    ],
}


def _input_files():
    Path("inst.json").write_text(json.dumps(BARY_INST))
    main(["graph", "gen", "--family", "complete", "--n", "4", "--out", "g.json", "--quiet"])
    main(["embed", "--graph", "g.json", "--k", "3", "--p", "2", "--q", "2", "--out", "pts.json",
          "--quiet"])


def _json_report(argv, capsys, code=0):
    assert main(argv + ["--json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert set(report) == REPORT_KEYS and "total" in report["timings"]
    assert report["command"] == " ".join(argv + ["--json"])
    return report


def test_product_commands_write_their_product_and_print_the_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("inst.json").write_text(json.dumps(BARY_INST))
    rep = _json_report(["graph", "gen", "--family", "cycle", "--n", "5", "--out", "g.json"], capsys)
    assert rep["results"] == {"n": 5, "edges": 5, "regular": True, "out": "g.json"}
    assert set(json.loads(Path("g.json").read_text())) == {"n", "edges"}
    rep = _json_report(["embed", "--graph", "g.json", "--k", "3", "--p", "2", "--q", "2",
                        "--out", "pts.json", "--seed", "4"], capsys)
    assert rep["seed"] == 4 and rep["timings"].keys() == {"total"}
    assert rep["results"] == {"regime": "Q22", "k": 3, "n": 5, "d": 75, "out": "pts.json"}
    assert json.loads(Path("pts.json").read_text())["regime"] == "Q22"
    rep = _json_report(["bary", "uniformize", "--instance", "inst.json", "--eps", "0.5",
                        "--out", "u.json"], capsys)
    assert rep["results"] == {"N": 128, "eps": 0.5, "out": "u.json"}
    assert "measures" in json.loads(Path("u.json").read_text())
    # without --json the summary line is the results
    assert main(["graph", "gen", "--family", "cycle", "--n", "5", "--out", "g.json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "n": 5, "edges": 5, "regular": True, "out": "g.json"
    }


@pytest.mark.parametrize("argv, stages", [
    (["chub", "--points", "pts.json", "--out", "rep.json"], {"total"}),
    (["bary", "solve", "--instance", "inst.json", "--out", "rep.json"], {"total"}),
    (["bary", "solve", "--instance", "inst.json", "--method", "borgwardt", "--out", "rep.json"],
     {"total"}),
    (["reduce", "--graph", "g.json", "--k", "3", "--p", "2", "--q", "2", "--report", "rep.json"],
     {"build", "decide", "oracle", "total"}),
    (["verify", "--lemma", "q1-witness", "--report", "rep.json"], {"total"}),
], ids=["chub", "bary-solve-mot", "bary-solve-borgwardt", "reduce", "verify"])
def test_report_commands_write_the_report(tmp_path, capsys, monkeypatch, argv, stages):
    monkeypatch.chdir(tmp_path)
    _input_files()
    rep = _json_report(argv, capsys)
    assert json.loads(Path("rep.json").read_text()) == rep
    assert rep["timings"].keys() == stages


def test_verify_prints_its_checks(capsys, monkeypatch):
    assert main(["verify", "--lemma", "q1-witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[PASS] q1-witness::vector0"
    assert lines[-2:] == ["[PASS] q1-witness::total-p1", "PASS q1-witness"]
    failing = [{"name": "a", "passed": True}, {"name": "b", "passed": False, "detail": {"x": 1}}]
    monkeypatch.setitem(SUITES, "q1-witness", lambda seed, budget: failing)
    assert main(["verify", "--lemma", "q1-witness"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] q1-witness::a", "[FAIL] q1-witness::b", '       {"x": 1}', "FAIL q1-witness",
    ]
    rep = _json_report(["verify", "--lemma", "q1-witness"], capsys, code=1)
    assert rep["results"] == {"id": "q1-witness", "passed": False, "checks": failing}


def test_cap_errors_exit_3_with_their_message(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _input_files()
    for argv, message in (
        (["chub", "--points", "pts.json", "--cap", "5"], "enumerating 64 tuples exceeds cap 5"),
        (["bary", "solve", "--instance", "inst.json", "--cap", "1"],
         "MOT LP with 2 variables exceeds cap 1"),
        (["bary", "solve", "--instance", "inst.json", "--method", "borgwardt", "--cap", "1"],
         "union-support LP with 12 variables exceeds cap 1"),
    ):
        assert main(argv + ["--out", "rep.json"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"resource cap: {message}\n"
        assert not Path("rep.json").exists()
