import math

import pytest

import barygap.chub
import barygap.fpq
import barygap.reduction
from barygap.graph import (
    complete_graph,
    cycle_graph,
    petersen_graph,
    random_regular_graph,
)

# Acceptance corpus: named graphs plus five fixed-seed random regular graphs.
# (8, 3, seed=3) is deliberately not in the random pool: it has so few
# triangles that uniform marginals cannot be coupled through them, which
# breaks the transport-LP decision route (see test_reduction's
# characterization test and the package docs).
NAMED_CORPUS = {
    "K4": complete_graph(4),
    "K5": complete_graph(5),
    "C4": cycle_graph(4),
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "Petersen": petersen_graph(),
}

RANDOM_CORPUS_SPECS = [(6, 3, 0), (6, 4, 1), (7, 4, 0), (8, 5, 4), (7, 2, 0)]


def random_corpus():
    return {
        f"R{n}-{d}s{seed}": random_regular_graph(n, d, seed=seed)
        for n, d, seed in RANDOM_CORPUS_SPECS
    }


def full_corpus():
    out = dict(NAMED_CORPUS)
    out.update(random_corpus())
    return out


@pytest.fixture(autouse=True)
def fresh_fpq_memo():
    """Every test starts with an empty hub-solve memo, QIN certificate cache
    and symmetry-proof cache, so a test that patches solver internals sees a
    fresh solve rather than an earlier answer."""
    barygap.fpq._MEMO.clear()
    barygap.reduction._qin_pattern_sweep.cache_clear()
    barygap.chub._PROOFS.clear()


def newton_solve(prob, tol=1e-8):
    """Damped Newton on ``prob``'s canonical hub problem, as a batch of one,
    at any (p, q) with 1 < q < inf and p=q=2 included: the iterative
    reference for the closed form.  It neither reads nor fills the memo.  A
    problem whose points all coincide has no free coordinate and goes to
    ``solve_fpq``."""
    x, w, lam, col_of, var, _ = barygap.fpq._canonical(prob.points, prob.weights, prob.p, prob.q)
    if x.shape[1] == 0:
        return barygap.fpq.solve_fpq(prob, tol)
    (sol,) = barygap.fpq._point_solutions("newton", [(x, w, lam, prob.p, prob.q)], tol)
    return barygap.fpq._placed(sol, prob.points[0], col_of, var)


SWEEP_PQS = [(2, 2), (1, 2), (2, 1.5), (1, 1), (2, 1), (1, math.inf), (2, math.inf)]

_ACCEPTANCE_LINES = []


def record_criterion(num, label, passed, detail=""):
    _ACCEPTANCE_LINES.append((num, label, passed, detail))


@pytest.fixture
def criterion():
    return record_criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num, label, passed, detail in sorted(_ACCEPTANCE_LINES):
        mark = "PASS" if passed else "FAIL"
        line = f"[{mark}] criterion {num}: {label}"
        if detail:
            line += f" ({detail})"
        terminalreporter.write_line(line)
