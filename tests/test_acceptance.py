"""Acceptance suite: every bound and equivalence the package promises.

One test per criterion, each printing a PASS/FAIL line (visible with
`pytest -s` or on failure).  The checks live in catmouse.verify so the CLI
`catmouse verify` runs exactly the same code.  Two more tests make the bound
of criteria 4 and 6 unmeetable and require every run to fail; a third gives
criterion 5 a cat whose anchors certify nothing and requires it to fail.
Another breaks the solver's one belief step and requires criteria 1 and 7,
which both reach it, to fail.  One makes every corpus game raise and
requires criteria 2, 3 and 5 to fail with a detail that names the first
game; another requires each criterion of a suite run to build its corpus
afresh.  The last ones make criteria raise and require `catmouse verify` to
report each as a FAIL, run the rest and exit 1.

`_run` also pins, per criterion, the exact detail and a digest of every game
the criterion plays, so a refactor of how verify plays its games must leave
both alone.

Runtime note: the whole module takes on the order of half a minute; the
heavy graphs (n up to 2025), their oracles and the oracles' cached BFS rows
are shared across criteria within the process.
"""

import hashlib
import json
import re

import pytest

from catmouse import cats, engine, experiment, graphs, solver, verify
from catmouse.cli import main
from catmouse.engine import GameError
from catmouse.graphs import GraphError
from catmouse.verify import CRITERIA

# What each criterion prints at full size, and a sha256 over the c, m, b and
# beliefs of every game it plays, in play order (None: it plays no game).
# A change to what verify plays or reports changes one of these.
PINNED = {
    1: (
        "2100 games on 42 graphs agree exactly",
        "92f92877726c9a270099a7d75ddea72145c5d291b7989929bec7510a07c87858",
    ),
    2: (
        "3614 trajectories/runs satisfy 4L+k",
        "cac5eb1237e0011dac05e7da73cc5198f82876f6f4880dd2fdd2d6216704bd2f",
    ),
    3: (
        "300 runs satisfy the (3/2)K guarantee and per-phase inequalities",
        "6c6bf7791b7bb3b304154681a102957a9f28de6d816066e9a4515c96f92c1a49",
    ),
    4: (
        "260 runs localize to ceil(sqrt(32n)) by ceil(sqrt(2n)) + 2 slack",
        "ceec81c84ed68950b05bc92ab616bcca972be07bf6216ed6fc6faf3e55156c91",
    ),
    5: (
        "260 runs localize to ceil(4.5*sqrt(n)) by time n",
        "0c9081fdd22761ad793eb5a0220db5e9b06f2afa32dc954f7cfb23923f8a4eb3",
    ),
    6: (
        "30 runs keep radius > t/12 at every step (implemented roster only; "
        "the universal quantifier is covered by the exhaustive solver on "
        "tiny instances)",
        "ac98c3d52c44ad4a292877eb601b1f2c14839570efb9a3056b2240ceae2bf414",
    ),
    7: (
        "12 tiny instances consistent between solver and engine",
        "f5b1c635ca0f112c238ac488bde0b25daa18a9069da640f2127a7d90647bc308",
    ),
    8: (
        "77 structural properties hold across the corpus",
        None,
    ),
}


def _run(number: int, monkeypatch) -> None:
    digest = hashlib.sha256()
    games = 0

    def recording(*args, **kwargs):
        nonlocal games
        tr = engine.run_game(*args, **kwargs)
        digest.update(repr((tr.c, tr.m, tr.b)).encode())
        if tr.beliefs is not None:
            digest.update(",".join(format(x, "x") for x in tr.beliefs[1:]).encode())
        digest.update(b";")
        games += 1
        return tr

    monkeypatch.setattr(verify, "run_game", recording)
    monkeypatch.setattr(experiment, "run_game", recording)
    name, fn = CRITERIA[number]
    ok, detail = fn(quick=False)
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {verdict} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert (detail, digest.hexdigest() if games else None) == PINNED[number]


def test_criterion_1_belief_oracle_equivalence(monkeypatch):
    """Engine beliefs equal brute-force reachability, set for set, over the
    small-graph catalog x 50 strategy pairs x horizon 6."""
    _run(1, monkeypatch)


def test_criterion_2_ball_cover_bound(monkeypatch):
    """d(champion, m_{2L-1}) <= 4L + k: exhaustively over every lazy walk on
    five small covers, and for 100 seeded mice each at n up to 2000, where
    the belief radius obeys the same bound."""
    _run(2, monkeypatch)


def test_criterion_3_sphere_walk_bound(monkeypatch):
    """Once the pair budget reaches ceil(D/2), the anchor sits within
    ceil(3K/2) of the mouse, and every phase obeys the descent/cap and
    pair-budget inequalities (K = ceil(3 sqrt n), n up to 2000)."""
    _run(3, monkeypatch)


def test_criterion_4_sqrt32n_by_sqrt2n(monkeypatch):
    """The composed strategy localizes to ceil(sqrt(32n)) within
    ceil(sqrt(2n)) + 2 steps on the reproduction corpus (the +2 absorbs the
    integer rounding of the separation and cover radius)."""
    _run(4, monkeypatch)


def test_criterion_5_nine_halves_sqrt_by_n(monkeypatch):
    """The sphere-walk cat with K = ceil(3 sqrt n) localizes to
    ceil(4.5 sqrt n) by time n on the reproduction corpus."""
    _run(5, monkeypatch)


def test_criterion_6_spider_evader_lower_bound(monkeypatch):
    """On spiders (t, extra) in {(12,0), (12,7), (24,0)} the evader keeps the
    belief radius above t/12 at every step against the implemented roster
    (sqrt, thin, fat, sweep, five seeded-random cats, stay).  The roster is
    what is checked; the universal claim over all cats is covered only by
    the exhaustive solver on tiny instances (criterion 7)."""
    _run(6, monkeypatch)


def test_criterion_7_minimax_consistency(monkeypatch):
    """Where the exhaustive solver says the mouse wins, no implemented cat
    localizes (verified by engine replay of adversarial records); where the
    cat wins, the extracted strategy localizes through the engine on every
    reachable bit path."""
    _run(7, monkeypatch)


def test_criterion_8_structural_properties(monkeypatch):
    """Scattered-cover coverage/separation/size, thin-level existence at
    K = ceil(3 sqrt n) for n >= 9, spider generator counts, and edge-list
    round trips across the corpus."""
    _run(8, monkeypatch)


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
    # The cat comes from `parse_cat_spec`, which builds it through `cats`.
    class StuckAtZero(cats.SphereWalkCat):
        @property
        def phase_log(self):
            return ((0, 0),)

    monkeypatch.setattr(cats, "SphereWalkCat", StuckAtZero)
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


def test_a_raising_corpus_game_fails_its_criterion_and_names_the_game(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise GameError("step 3: boom")

    monkeypatch.setattr(experiment, "run_game", boom)
    for number, game in (
        (2, "path:n=2000 vs rw:seed=0"),
        (3, "path:n=2000 vs rw:seed=0"),
        (5, "spider:t=12,extra=0 vs stationary:seed=0"),
    ):
        ok, detail = CRITERIA[number][1](quick=True)
        assert ok is False
        assert detail == f"{game}: raised GameError: step 3: boom"
    assert main(["verify", "--suite", "thin", "--quick"]) == 1
    out, err = capsys.readouterr()
    assert [line.split(" (")[0] for line in out.splitlines()] == [
        "FAIL criterion 3", "FAIL criterion 5",
    ]
    assert "Traceback" not in err


def test_each_criterion_starts_from_an_empty_corpus_cache(monkeypatch):
    # The second suite run must redo the first one's BFS rows, not read
    # them from the corpus graphs the first one cached.  The first run
    # starts cold whatever ran before it: each criterion also empties the
    # spider generator's own cache, so that the BFS of each spider's
    # connectivity check counts in both runs.
    rows = 0
    real = graphs.bfs_distances

    def counting(g, source):
        nonlocal rows
        rows += 1
        return real(g, source)

    monkeypatch.setattr(graphs, "bfs_distances", counting)
    experiment.corpus_graph.cache_clear()
    counts = []
    for _ in range(2):
        rows = 0
        assert all(r.ok for r in verify.verify_suite("structure", quick=True))
        counts.append(rows)
    assert counts[0] == counts[1] > 0


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
