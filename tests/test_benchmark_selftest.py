import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_checkers_reject_wrong_results():
    # perfbench/selftest.py runs a few operations of every workload through
    # the library and checks that each checker accepts them and rejects
    # deliberately wrong results; it guards the library calls the benchmark
    # makes (per-tuple sweeps, exact MOT plans, both decision routes)
    res = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert res.returncode == 0, res.stdout + res.stderr
    assert "selftest passed" in res.stdout
