"""Acceptance suite: every bound and equivalence the package promises.

One test per criterion, each printing a PASS/FAIL line (visible with
`pytest -s` or on failure).  The checks live in catmouse.verify so the CLI
`catmouse verify` runs exactly the same code.  Two more tests make the bound
of criteria 4 and 6 unmeetable and require every run to fail; a third gives
criterion 5 a cat whose anchors certify nothing and requires it to fail.
Another breaks the solver's one belief step and requires criteria 1 and 7,
which both reach it, to fail.  The last ones make criteria raise and require
`catmouse verify` to report each as a FAIL, run the rest and exit 1.

Runtime note: the whole module takes on the order of half a minute; the
heavy graphs (n up to 2025), their oracles and the oracles' cached BFS rows
are shared across criteria within the process.
"""

import json
import re

import pytest

from catmouse import experiment, solver, verify
from catmouse.cli import main
from catmouse.engine import GameError
from catmouse.graphs import GraphError
from catmouse.verify import CRITERIA


def _run(number: int) -> None:
    name, fn = CRITERIA[number]
    ok, detail = fn(quick=False)
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_belief_oracle_equivalence():
    """Engine beliefs equal brute-force reachability, set for set, over the
    small-graph catalog x 50 strategy pairs x horizon 6."""
    _run(1)


def test_criterion_2_ball_cover_bound():
    """d(champion, m_{2L-1}) <= 4L + k: exhaustively over every lazy walk on
    five small covers, and for 100 seeded mice each at n up to 2000, where
    the belief radius obeys the same bound."""
    _run(2)


def test_criterion_3_sphere_walk_bound():
    """Once the pair budget reaches ceil(D/2), the anchor sits within
    ceil(3K/2) of the mouse, and every phase obeys the descent/cap and
    pair-budget inequalities (K = ceil(3 sqrt n), n up to 2000)."""
    _run(3)


def test_criterion_4_sqrt32n_by_sqrt2n():
    """The composed strategy localizes to ceil(sqrt(32n)) within
    ceil(sqrt(2n)) + 2 steps on the reproduction corpus (the +2 absorbs the
    integer rounding of the separation and cover radius)."""
    _run(4)


def test_criterion_5_nine_halves_sqrt_by_n():
    """The sphere-walk cat with K = ceil(3 sqrt n) localizes to
    ceil(4.5 sqrt n) by time n on the reproduction corpus."""
    _run(5)


def test_criterion_6_spider_evader_lower_bound():
    """On spiders (t, extra) in {(12,0), (12,7), (24,0)} the evader keeps the
    belief radius above t/12 at every step against the implemented roster
    (sqrt, thin, fat, sweep, five seeded-random cats, stay).  The roster is
    what is checked; the universal claim over all cats is covered only by
    the exhaustive solver on tiny instances (criterion 7)."""
    _run(6)


def test_criterion_7_minimax_consistency():
    """Where the exhaustive solver says the mouse wins, no implemented cat
    localizes (verified by engine replay of adversarial records); where the
    cat wins, the extracted strategy localizes through the engine on every
    reachable bit path."""
    _run(7)


def test_criterion_8_structural_properties():
    """Scattered-cover coverage/separation/size, thin-level existence at
    K = ceil(3 sqrt n) for n >= 9, spider generator counts, and edge-list
    round trips across the corpus."""
    _run(8)


def _unmeetable(monkeypatch, tag: str, resolve) -> None:
    """Make the formula tag `tag` resolve through `resolve(g)` instead."""
    real = experiment.resolve_bound

    def fake(t, g, cat, cfg):
        return resolve(g) if t == tag else real(t, g, cat, cfg)

    monkeypatch.setattr(experiment, "resolve_bound", fake)


def _assert_every_run_fails(number: int, reason: str) -> None:
    ok, detail = CRITERIA[number][1](quick=True)
    assert ok is False
    assert re.match(r"(\d+) of \1 runs fail; first: ", detail), detail
    assert reason in detail


def test_criterion_4_fails_when_no_radius_can_meet_the_bound(monkeypatch):
    _unmeetable(monkeypatch, "sqrt32n", lambda g: -1)
    _assert_every_run_fails(4, "has radius <= -1")


def test_criterion_6_fails_when_the_bound_exceeds_the_spider_radius(monkeypatch):
    # every set of a spider's vertices lies within n of the center
    _unmeetable(monkeypatch, "tOver12", lambda g: g.n)
    _assert_every_run_fails(6, "<= t/12 = ")


def test_criterion_5_fails_when_no_anchor_certifies(monkeypatch):
    # A phase log that never leaves vertex 0: on the path no certificate is
    # ever checked (the (0, 0) entry is below the pair budget), so the run
    # must fail rather than pass on some other ground.
    class StuckAtZero(verify.SphereWalkCat):
        @property
        def phase_log(self):
            return ((0, 0),)

    monkeypatch.setattr(verify, "SphereWalkCat", StuckAtZero)
    ok, detail = CRITERIA[5][1](quick=True)
    assert ok is False
    assert detail.startswith("path:n=2000 vs "), detail


def test_criteria_1_and_7_fail_when_the_reference_step_is_wrong(monkeypatch):
    # The solver's step with `<` for `<=`: the brute-force beliefs
    # (criterion 1) and the minimax search and its witness walks
    # (criterion 7) all run through it, so both must fail.
    def strict_step(g, dists, members, c_prev, c_cur, bit):
        row_prev = dists.row(c_prev)
        row_cur = dists.row(c_cur)
        out = {}
        for u in members:
            for v in (u, *g.adjacency[u]):
                if v not in out and (row_cur[v] < row_prev[u]) == (bit == 1):
                    out[v] = u
        return out

    monkeypatch.setattr(solver, "_step_sets", strict_step)
    ok, detail = CRITERIA[1][1](quick=True)
    assert ok is False
    assert detail.startswith("belief mismatch at step"), detail
    ok, detail = CRITERIA[7][1](quick=True)
    assert ok is False, detail


THIN_RAISE = GraphError("vertex 3 has no sphere of size < l/4 below K=5; raise K")


def _raises(exc):
    def check(quick=False):
        raise exc

    return check


def _passes(quick=False):
    return True, "stub"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_reports_a_raising_criterion_as_fail(monkeypatch, capsys, fmt):
    monkeypatch.setattr(verify, "CRITERIA", {2: (CRITERIA[2][0], _raises(THIN_RAISE))})
    assert main(["verify", "--suite", "fat", "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert "error:" not in err and err.rstrip().endswith(f"GraphError: {THIN_RAISE}")
    detail = f"raised GraphError: {THIN_RAISE}"
    if fmt == "text":
        assert out == f"FAIL criterion 2 (ball-cover bound 4L+k): {detail}\n"
    else:
        [entry] = json.loads(out)
        assert (entry["criterion"], entry["pass"], entry["detail"]) == (2, False, detail)
        assert isinstance(entry["elapsed_s"], float) and entry["elapsed_s"] >= 0


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_runs_the_criteria_after_one_that_raises(monkeypatch, capsys, fmt):
    stubs = {number: (name, _passes) for number, (name, _) in CRITERIA.items()}
    stubs[1] = (CRITERIA[1][0], _raises(GameError("step 4: belief set emptied")))
    stubs[5] = (CRITERIA[5][0], _raises(THIN_RAISE))
    monkeypatch.setattr(verify, "CRITERIA", stubs)
    assert main(["verify", "--suite", "all", "--format", fmt]) == 1
    out = capsys.readouterr().out
    if fmt == "text":
        lines = out.splitlines()
        assert [line.split(" (")[0] for line in lines] == [
            f"{'FAIL' if n in (1, 5) else 'PASS'} criterion {n}" for n in range(1, 9)
        ]
        assert lines[0].endswith(": raised GameError: step 4: belief set emptied")
    else:
        payload = json.loads(out)
        assert [(c["criterion"], c["pass"]) for c in payload] == [
            (n, n not in (1, 5)) for n in range(1, 9)
        ]
        assert payload[4]["detail"] == f"raised GraphError: {THIN_RAISE}"
