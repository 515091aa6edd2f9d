"""The benchmark's checks reject corrupted games, and tracing changes no game.

Each workload plays one real game; copies of its transcript with a single
fault each must be rejected with the reason that names the fault, while the
untouched transcript passes.  Run from the root of the repository:

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture(scope="module", params=list(run.WORKLOADS))
def played(request):
    """(bench, transcript) of the second game of round 0: the random-walk
    mouse on the paths, the thin cat on the spider."""
    w = run.WORKLOADS[request.param]
    bench = run.Bench(w)
    bench.setup()
    cat_spec, mouse_spec = w.round(0, 0)[1]
    return bench, bench.play(cat_spec, mouse_spec)


def _middle(tr) -> int:
    """A step in the middle of the game whose belief set has two members."""
    i = tr.horizon // 2
    while tr.beliefs[i].bit_count() < 2:
        i -= 1
    return i


def test_real_game_passes(played):
    bench, tr = played
    assert bench.check(tr) is None


def test_dropped_belief_member_is_rejected(played):
    bench, tr = played
    bad = copy.deepcopy(tr)
    i = _middle(bad)
    bad.beliefs[i] &= bad.beliefs[i] - 1  # clear the lowest member
    assert bench.check(bad).startswith(f"belief: step {i} ")


def test_illegal_mouse_move_is_rejected(played):
    bench, tr = played
    bad = copy.deepcopy(tr)
    i = _middle(bad)
    bad.m[i] = next(v for v in range(tr.n) if bench.w.metric.dist(bad.m[i - 1], v) == 2)
    assert bench.check(bad).startswith(f"move: step {i} ")


def test_flipped_bit_is_rejected(played):
    bench, tr = played
    bad = copy.deepcopy(tr)
    i = _middle(bad)
    bad.b[i] ^= 1
    assert bench.check(bad).startswith(f"bit: step {i} ")


def test_radius_off_by_one_is_rejected(played):
    bench, tr = played
    bad = copy.deepcopy(tr)
    i = _middle(bad)
    if bench.w.track_radius:
        bad.belief_radius[i] += 1
        assert bench.check(bad).startswith(f"radius: step {i} ")
        return
    # The engine records no radius here; the bound on the radii the checks
    # derive must still fail one step past its threshold.
    bound = bench.w.bound
    if bench.w.name == "evade-spider":
        radii = [None] + [3] * tr.horizon
        assert bound(radii) is None
        radii[i] = 2
        assert bound(radii).startswith(f"bound: step {i} ")
    else:
        radii = [None] + [203] * tr.horizon
        assert bound(radii).startswith("bound: no step")
        radii[i] = 202
        assert bound(radii) is None


def test_upper_bound_fails_when_never_reached():
    w = run.WORKLOADS["localize-sqrt"]
    radii = [None] + [254] * w.horizon + [0]  # a hit after the deadline is no hit
    assert w.bound(radii).startswith(f"bound: no step <= {w.horizon} ")


def test_traced_games_equal_untraced_games():
    """Wrappers live on classes and modules, so the evader's cat clones and
    lookahead play exactly as without them."""
    w = run.WORKLOADS["evade-spider"]
    bench = run.Bench(w)
    bench.setup()
    games = w.round(0, 0)
    plain = [bench.play(c, m).to_json() for c, m in games]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [bench.play(c, m).to_json() for c, m in games]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert any(s[0] == "cats.clone_query" for s in tracer.spans)
