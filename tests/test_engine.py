"""Engine: feedback bits, exact belief tracking, game loop, transcripts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse.cats import ScriptedCat, SeededRandomCat, StayCat, SweepCat
from catmouse.engine import (
    BeliefSet,
    GameError,
    IllegalFeedbackError,
    RuleViolationError,
    belief_update,
    feedback_bit,
    localization_report,
    mask_radius,
    recompute_bits,
    run_game,
)
from catmouse.graphs import DistanceOracle, gen_cycle, gen_grid, gen_path, gen_random_tree
from catmouse.mice import RandomWalkMouse, ScriptedMouse, StationaryMouse


def beliefs_by_trajectory_enumeration(g, queries, bits):
    """Literal enumeration of every lazy walk consistent with the record;
    only feasible for toy sizes, used as a second independent oracle."""
    oracle = DistanceOracle(g)
    h = len(queries)
    per_step = [set() for _ in range(h)]
    frontier = [(v,) for v in range(g.n)]
    for walk_len in range(1, h + 1):
        if walk_len > 1:
            frontier = [
                walk + (v,)
                for walk in frontier
                for v in (walk[-1], *g.adjacency[walk[-1]])
            ]
        for walk in frontier:
            ok = all(
                feedback_bit(
                    oracle.distance(queries[j - 1], walk[j - 1]),
                    oracle.distance(queries[j], walk[j]),
                )
                == bits[j - 1]
                for j in range(1, walk_len)
            )
            if ok:
                per_step[walk_len - 1].add(walk[-1])
        frontier = [
            walk
            for walk in frontier
            if all(
                feedback_bit(
                    oracle.distance(queries[j - 1], walk[j - 1]),
                    oracle.distance(queries[j], walk[j]),
                )
                == bits[j - 1]
                for j in range(1, walk_len)
            )
        ]
    return per_step


class TestFeedbackBit:
    def test_equal_distance_counts_as_not_further(self):
        assert feedback_bit(3, 3) == 1

    def test_strictly_further(self):
        assert feedback_bit(3, 4) == 0

    def test_leaving_the_cats_vertex(self):
        assert feedback_bit(0, 1) == 0


class TestBeliefSet:
    def test_members_roundtrip(self):
        b = BeliefSet.of(6, [0, 2, 5])
        assert b.members() == (0, 2, 5)
        assert 2 in b and 3 not in b
        assert b.size == 3
        assert list(b.to_bool_array()) == [True, False, True, False, False, True]

    def test_full(self):
        assert BeliefSet.full(4).members() == (0, 1, 2, 3)


class TestBeliefUpdate:
    def test_p5_stay_keeps_everything_on_bit_one(self):
        g = gen_path(5)
        out = belief_update(g, BeliefSet.full(5), 0, 0, 1)
        assert out.members() == (0, 1, 2, 3, 4)

    def test_p5_bit_zero_drops_the_cat_vertex(self):
        g = gen_path(5)
        out = belief_update(g, BeliefSet.full(5), 0, 0, 0)
        assert out.members() == (1, 2, 3, 4)

    def test_true_position_survives(self):
        g = gen_grid(2, 3)
        for u in range(g.n):
            prev = BeliefSet.of(g.n, [u], step=1)
            bit = feedback_bit(1, 1)  # stationary mouse, repeated query
            out = belief_update(g, prev, 2, 2, bit)
            assert u in out

    def test_empty_update_raises(self):
        g = gen_path(2)
        prev = BeliefSet.of(2, [0], step=1)
        with pytest.raises(IllegalFeedbackError):
            belief_update(g, prev, 1, 1, 0)

    def test_matches_trajectory_enumeration(self):
        g = gen_path(5)
        for c0, c1, bit in itertools.product(range(5), range(5), (0, 1)):
            expected = beliefs_by_trajectory_enumeration(g, [c0, c1], [bit])[1]
            try:
                got = set(belief_update(g, BeliefSet.full(5), c0, c1, bit).members())
            except IllegalFeedbackError:
                got = set()
            assert got == expected, (c0, c1, bit)


class TestRunGame:
    def test_horizon_one_radius_is_whole_graph(self):
        g = gen_grid(3, 3)
        tr = run_game(g, StayCat(g), StationaryMouse(4), 1, track_belief=True)
        assert tr.belief_radius[1] == mask_radius(DistanceOracle(g), np.ones(g.n, dtype=bool))[0]

    def test_stationary_mouse_constant_queries_all_ones(self):
        g = gen_cycle(8)
        tr = run_game(g, ScriptedCat([5] * 6), StationaryMouse(2), 6)
        assert tr.b[2:] == [1, 1, 1, 1, 1]

    def test_p5_sweep_closes_in(self):
        g = gen_path(5)
        tr = run_game(g, SweepCat(g), StationaryMouse(4), 5)
        assert tr.b[2:] == [1, 1, 1, 1]

    def test_rule_violation_names_step(self):
        g = gen_path(5)
        with pytest.raises(RuleViolationError, match="step 3"):
            run_game(g, StayCat(g), ScriptedMouse([0, 1, 4, 4]), 4)

    def test_mouse_always_in_belief(self):
        g = gen_grid(3, 4)
        for seed in range(8):
            tr = run_game(
                g,
                SeededRandomCat(g, seed),
                RandomWalkMouse(seed + 50),
                10,
                track_belief=True,
            )
            for i in range(1, 11):
                assert tr.m[i] in tr.belief_set(i)

    def test_belief_matches_trajectory_enumeration(self):
        g = gen_path(4)
        tr = run_game(
            g, SeededRandomCat(g, 3), RandomWalkMouse(9), 4, track_belief=True
        )
        expected = beliefs_by_trajectory_enumeration(
            g, tr.c[1:], [tr.b[i] for i in range(2, 5)]
        )
        for i in range(1, 5):
            assert set(tr.belief_set(i).members()) == expected[i - 1]

    def test_monotone_evidence_under_side_information(self):
        # Intersecting each step with side information can only shrink the
        # belief set; the unconstrained DP must stay a superset.
        g = gen_grid(3, 3)
        oracle = DistanceOracle(g)
        tr = run_game(
            g, SeededRandomCat(g, 1), RandomWalkMouse(2), 8,
            track_belief=True, oracle=oracle,
        )
        side = BeliefSet.of(g.n, [v for v in range(g.n) if v % 2 == 0])
        constrained = BeliefSet.of(g.n, tr.belief_set(1).members(), step=1)
        constrained = BeliefSet(1, g.n, constrained.mask & side.mask)
        for i in range(2, 9):
            try:
                constrained = belief_update(
                    g, constrained, tr.c[i - 1], tr.c[i], tr.b[i], oracle
                )
            except IllegalFeedbackError:
                break
            constrained = BeliefSet(i, g.n, constrained.mask & side.mask)
            assert constrained.mask & ~tr.beliefs[i] == 0

    def test_deterministic_transcripts(self):
        g = gen_random_tree(40, seed=8)
        runs = [
            run_game(
                g, SeededRandomCat(g, 5), RandomWalkMouse(6), 12,
                track_belief=True, graph_spec="rt:n=40,seed=8",
                meta={"seed": 5},
            ).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_replaying_bits_reproduces_them(self):
        g = gen_grid(4, 4)
        tr = run_game(g, SeededRandomCat(g, 11), RandomWalkMouse(12), 15)
        assert recompute_bits(tr, g) == tr.b

    def test_clone_cat_does_not_mutate_live_cat(self):
        g = gen_path(6)

        class PeekingMouse(StationaryMouse):
            def next_move(self, view):
                sim = view.clone_cat()
                for _ in range(4):
                    sim.next_query(1)
                return self.pos

        tr1 = run_game(g, SweepCat(g), PeekingMouse(3), 6)
        tr2 = run_game(g, SweepCat(g), StationaryMouse(3), 6)
        assert tr1.c == tr2.c

    def test_bad_horizon(self):
        g = gen_path(3)
        with pytest.raises(GameError):
            run_game(g, StayCat(g), StationaryMouse(0), 0)


class TestLocalizationReport:
    def test_already_localized_at_step_one(self):
        g = gen_path(5)
        tr = run_game(g, StayCat(g), StationaryMouse(4), 3, track_belief=True)
        rad_v = mask_radius(DistanceOracle(g), np.ones(5, dtype=bool))[0]
        rep = localization_report(tr, rad_v)
        assert rep.first_success_step == 1

    def test_impossible_distance_is_absent(self):
        g = gen_path(5)
        tr = run_game(g, StayCat(g), StationaryMouse(4), 3, track_belief=True)
        rep = localization_report(tr, -1)
        assert rep.first_success_step is None
        assert rep.min_radius >= 0

    def test_requires_tracked_beliefs(self):
        g = gen_path(5)
        tr = run_game(g, StayCat(g), StationaryMouse(4), 3)
        with pytest.raises(GameError):
            localization_report(tr, 1)

    def test_min_radius_and_argmin(self):
        g = gen_path(9)
        tr = run_game(g, SweepCat(g), StationaryMouse(8), 9, track_belief=True)
        rep = localization_report(tr, -1)
        assert rep.min_radius == min(tr.belief_radius[1:])
        assert tr.belief_radius[rep.argmin_step] == rep.min_radius


class TestTranscript:
    def test_one_based_null_padding(self):
        g = gen_path(4)
        tr = run_game(g, StayCat(g), StationaryMouse(1), 3, track_belief=True)
        assert tr.c[0] is None and tr.m[0] is None
        assert tr.b[0] is None and tr.b[1] is None
        payload = tr.to_dict()
        assert payload["c"][0] is None
        assert len(payload["c"]) == 4

    def test_json_is_stable(self):
        g = gen_path(4)
        tr = run_game(g, StayCat(g), StationaryMouse(1), 3, track_belief=True)
        assert tr.to_json() == tr.to_json()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    cat_seed=st.integers(0, 2**20),
    n=st.integers(min_value=2, max_value=12),
)
def test_soundness_property(seed, cat_seed, n):
    g = gen_random_tree(max(n, 2), seed)
    tr = run_game(
        g, SeededRandomCat(g, cat_seed), RandomWalkMouse(seed ^ 0xABC), 8,
        track_belief=True,
    )
    for i in range(1, 9):
        assert tr.m[i] in tr.belief_set(i)
