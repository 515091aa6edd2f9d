"""Oracles: brute-force beliefs, trajectory extraction, exhaustive game value."""

import numpy as np
import pytest

from catmouse.cats import SeededRandomCat, StayCat, SweepCat
from catmouse.engine import IllegalFeedbackError, localization_report, mask_radius, run_game
from catmouse.graphs import DistanceOracle, Graph, GraphError, gen_cycle, gen_path, gen_random_tree
from catmouse.mice import RandomWalkMouse, ScriptedMouse
from catmouse.solver import (
    SizeGuardError,
    adversarial_record,
    brute_force_beliefs,
    consistent_trajectory,
    exhaustive_game_value,
    winning_bit_paths,
)


class TestBruteForceBeliefs:
    def test_horizon_one_is_everything(self):
        g = gen_path(6)
        out = brute_force_beliefs(g, [3], [])
        assert out[1] == 0b111111

    def test_p5_one_zero_bit(self):
        g = gen_path(5)
        out = brute_force_beliefs(g, [0, 0], [0])
        assert out[2] == 0b11110

    def test_agrees_with_engine_transcripts(self):
        for n, seed in ((5, 1), (8, 2), (12, 3)):
            g = gen_random_tree(n, seed)
            tr = run_game(
                g, SeededRandomCat(g, seed), RandomWalkMouse(seed + 9), 7,
                track_belief=True,
                oracle=DistanceOracle(g),
            )
            out = brute_force_beliefs(g, tr.c[1:], [tr.b[i] for i in range(2, 8)])
            for i in range(1, 8):
                assert out[i] == tr.beliefs[i]

    def test_inconsistent_record_raises(self):
        g = gen_path(2)
        # bit 0 against query pair (1,1) is impossible from {0,1}... build a
        # record that empties: mouse cannot get strictly further from both.
        with pytest.raises(IllegalFeedbackError):
            brute_force_beliefs(g, [0, 0, 0], [0, 0])

    def test_bit_count_mismatch(self):
        with pytest.raises(GraphError):
            brute_force_beliefs(gen_path(3), [0, 1], [])

    def test_size_guard(self):
        g = gen_path(2000)
        with pytest.raises(SizeGuardError):
            brute_force_beliefs(g, [0] * 1500, [0] * 1499)


class TestConsistentTrajectory:
    def test_reproduces_bits(self):
        g = gen_cycle(7)
        tr = run_game(g, SeededRandomCat(g, 4), RandomWalkMouse(5), 6, oracle=DistanceOracle(g))
        bits = [tr.b[i] for i in range(2, 7)]
        walk = consistent_trajectory(g, tr.c[1:], bits)
        replay = run_game(
            g, SeededRandomCat(g, 4), ScriptedMouse(walk), 6, oracle=DistanceOracle(g)
        )
        assert replay.b == tr.b

    def test_bit_count_mismatch(self):
        with pytest.raises(GraphError, match="need one bit per step"):
            consistent_trajectory(gen_path(5), [0, 1, 2], [1])


class TestExhaustiveGameValue:
    def test_trivially_localized(self):
        g = gen_path(3)
        d = mask_radius(DistanceOracle(g), np.ones(3, dtype=bool))[0]
        res = exhaustive_game_value(g, 4, d)
        assert res.winner == "cat_wins"
        assert res.root_query is None

    def test_negative_distance_unattainable(self):
        g = gen_path(3)
        assert exhaustive_game_value(g, 6, -1).winner == "mouse_wins"

    def test_size_guard(self):
        with pytest.raises(SizeGuardError):
            exhaustive_game_value(gen_path(11), 4, 1)
        with pytest.raises(SizeGuardError):
            exhaustive_game_value(gen_path(4), 9, 1)

    def test_p4_winning_strategy_replays_through_engine(self):
        g = gen_path(4)
        for d in (0, 1, 2):
            res = exhaustive_game_value(g, 8, d)
            if res.winner != "cat_wins":
                continue
            for queries, bits in winning_bit_paths(res):
                walk = consistent_trajectory(g, queries, bits)
                cat = res.extract_cat()
                tr = run_game(
                    g, cat, ScriptedMouse(walk), max(len(queries), 1),
                    track_belief=True,
                    oracle=DistanceOracle(g),
                )
                rep = localization_report(tr, d)
                assert rep.first_success_step is not None

    def test_star_mouse_wins_exact_localization(self):
        # On a star with 3 leaves the evader can always stay ambiguous
        # between two leaves, so d=0 is out of reach in 6 steps.
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        res = exhaustive_game_value(g, 6, 0)
        assert res.winner == "mouse_wins"
        for cat in (SweepCat(g), StayCat(g), SeededRandomCat(g, 2)):
            queries, bits = adversarial_record(res, cat, 6)
            walk = consistent_trajectory(g, queries, bits)
            replay = run_game(
                g, cat.clone(), ScriptedMouse(walk), 6, track_belief=True, oracle=DistanceOracle(g)
            )
            assert localization_report(replay, 0).first_success_step is None

    def test_extract_cat_requires_cat_win(self):
        g = gen_path(3)
        res = exhaustive_game_value(g, 4, -1)
        with pytest.raises(GraphError):
            res.extract_cat()
