"""Mouse strategies: spider evader stage machine, branch lookahead, baselines."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse import engine
from catmouse.cats import (
    BallCoverCat,
    ScriptedCat,
    SeededRandomCat,
    StayCat,
    SweepCat,
    parse_cat_spec,
)
from catmouse.engine import GameError, run_game
from catmouse.experiment import corpus_graph
from catmouse.graphs import (
    DistanceOracle,
    GraphError,
    SpiderSpec,
    gen_grid,
    gen_path,
    gen_spider,
    scattered_cover,
)
from catmouse.mice import (
    DepthPlan,
    GreedyAwayMouse,
    RandomWalkMouse,
    ScriptedMouse,
    SpiderMouse,
    StationaryMouse,
    _free_branch,
    _simulate_queries,
    parse_mouse_spec,
)
from catmouse.verify import _LOWER_CATS

T = 12
SPIDER = SpiderSpec(T, 0)
GS = gen_spider(SPIDER)
ORACLE = DistanceOracle(GS)


def spider_run(cat, horizon=120, t=T, extra=0, track=True):
    spec = SpiderSpec(t, extra)
    g = gen_spider(spec)
    oracle = DistanceOracle(g)
    mouse = SpiderMouse(t)
    tr = run_game(g, cat(g, oracle), mouse, horizon, track_belief=track, oracle=oracle)
    return spec, g, oracle, mouse, tr


def safe_branch(cat, window, excluded=()):
    """The evader's branch choice at game start: simulate a clone of `cat`
    over `window` queries, then take the lowest branch neither queried nor
    excluded."""
    clone = cat.clone()
    queries = _simulate_queries(SPIDER, clone, DepthPlan(T), clone.next_query(None), window)
    return _free_branch(SPIDER, queries, tuple(excluded))


class TestFindSafeBranch:
    """The evader's lookahead (`_simulate_queries`) plus its lowest-free-branch
    choice (`_free_branch`)."""

    def test_sweep_at_time_zero(self):
        # Sweep touches the center then branch 1's low ids during an 8-step
        # window, so branch 2 is the lowest untouched one under the
        # contiguous id layout.
        assert safe_branch(SweepCat(GS), window=8) == 2

    def test_stay_cat_blocks_nothing(self):
        assert safe_branch(StayCat(GS), window=8) == 1

    def test_window_zero(self):
        assert safe_branch(SweepCat(GS), window=0) == 1
        assert safe_branch(SweepCat(GS), window=0, excluded={1}) == 2

    def test_excluded_branches_skipped(self):
        assert safe_branch(StayCat(GS), window=4, excluded={1, 2, 3}) == 4

    def test_simulation_does_not_mutate_the_cat(self):
        cat = SweepCat(GS)
        safe_branch(cat, window=8)
        assert cat.next_query(None) == 0

    def test_window_preconditions(self):
        # The choice ranges over main branches 1..t only, so it fails exactly
        # when every one of them is blocked.
        assert safe_branch(StayCat(GS), window=4, excluded=range(1, T)) == T
        with pytest.raises(GameError, match="step 1: .*no free branch"):
            safe_branch(StayCat(GS), window=4, excluded=range(1, T + 1))

    def test_center_and_padding_queries_block_nothing(self):
        spider = SpiderSpec(T, 7)
        queries = [0, spider.t * spider.t + 3, spider.vertex_at(1, 5)]
        assert _free_branch(spider, queries) == 2
        assert _free_branch(spider, queries, (2, 3)) == 4

    def test_cat_cycling_over_all_branches_fails_the_game(self):
        # At t = 12 a branch choice may block 11t/12 + 1 = t branches: a cat
        # that visits every main branch in turn leaves no free one for the
        # evader's branch switch.
        cat = ScriptedCat([SPIDER.vertex_at(b, 1) for b in range(1, T + 1)] * 30)
        with pytest.raises(GameError, match="no free branch"):
            run_game(GS, cat, SpiderMouse(T), 300, oracle=ORACLE)


class TestSpiderMouseStageArithmetic:
    def test_all_closer_queries_reach_center_quickly(self):
        # A cat that always keeps d(c, center) non-increasing makes the
        # evader walk in every drift step: depth t/4 - t/6 = t/12 when the
        # dash starts, so the center is reached at step 1 + t/6 + t/12.
        spec, g, oracle, mouse, tr = spider_run(lambda g, o: StayCat(g))
        s2_end = [step for step, label in mouse.stage_events if label == "s2_end"][0]
        assert spec.depth_of(tr.m[s2_end]) == T // 12
        arrival = 1 + T // 6 + T // 12
        assert tr.m[arrival] == 0
        assert all(tr.m[i] != 0 for i in range(1, arrival))
        # the shadow held its depth through the drift stage
        first_events = [e for e in mouse.stage_events if e[1] == "s2_end"][0]
        w_at_s2_end = mouse.shadow_trace[first_events[0]]
        assert spec.depth_of(w_at_s2_end) == T // 4

    def test_initial_positions(self):
        spec, g, oracle, mouse, tr = spider_run(lambda g, o: SweepCat(g))
        assert spec.depth_of(tr.m[1]) == T // 4
        assert spec.depth_of(mouse.shadow_trace[1]) == T // 4
        assert spec.branch_of(tr.m[1]) != spec.branch_of(mouse.shadow_trace[1])

    def test_stage2_window_bounds(self):
        # At the end of every drift stage: t/3 <= d(m, w) <= 2t/3.
        for cat in (lambda g, o: SweepCat(g), lambda g, o: SeededRandomCat(g, 5)):
            spec, g, oracle, mouse, tr = spider_run(cat, horizon=100)
            ends = [step for step, label in mouse.stage_events if label == "s2_end"]
            assert ends
            for step in ends:
                sep = oracle.distance(tr.m[step], mouse.shadow_trace[step])
                assert T // 3 <= sep <= 2 * T // 3

    def test_cycle_period(self):
        # Against the stay cat d = t/12 every cycle, so the cycle length is
        # t/6 + t/12 + t/4 steps.
        spec, g, oracle, mouse, tr = spider_run(lambda g, o: StayCat(g), horizon=100)
        ends = [step for step, label in mouse.stage_events if label == "cycle_end"]
        period = T // 6 + T // 12 + T // 4
        assert ends[0] == 1 + period
        assert all(b - a == period for a, b in zip(ends, ends[1:]))


class TestSpiderMouseInvariants:
    CATS = [
        lambda g, o: SweepCat(g),
        lambda g, o: StayCat(g),
        lambda g, o: SeededRandomCat(g, 3),
        lambda g, o: BallCoverCat(o, scattered_cover(o, 6)),
    ]

    @pytest.mark.parametrize("cat", CATS)
    def test_shadow_stays_in_belief(self, cat):
        spec, g, oracle, mouse, tr = spider_run(cat)
        for i in range(1, tr.horizon + 1):
            assert tr.belief_members(i)[mouse.shadow_trace[i]]

    @pytest.mark.parametrize("cat", CATS)
    def test_separation_keeps_radius_above_t_over_12(self, cat):
        spec, g, oracle, mouse, tr = spider_run(cat)
        for i in range(1, tr.horizon + 1):
            sep = oracle.distance(tr.m[i], mouse.shadow_trace[i])
            assert sep >= T // 6
            assert tr.belief_radius[i] > T // 12

    @pytest.mark.parametrize("cat", CATS)
    def test_cat_never_queries_occupied_branches(self, cat):
        spec, g, oracle, mouse, tr = spider_run(cat)
        for i in range(1, tr.horizon + 1):
            qb = spec.branch_of(tr.c[i])
            if tr.m[i] != 0:
                assert qb != spec.branch_of(tr.m[i])
            assert qb != spec.branch_of(mouse.shadow_trace[i])

    def test_padding_branch_never_entered(self):
        spec, g, oracle, mouse, tr = spider_run(
            lambda g, o: SweepCat(g), extra=7, horizon=160
        )
        pad = spec.t + 1
        for i in range(1, tr.horizon + 1):
            assert spec.branch_of(tr.m[i]) != pad
            assert spec.branch_of(mouse.shadow_trace[i]) != pad

    def test_cat_camped_on_padding_branch(self):
        # Queries on the padding branch read like any off-branch query; the
        # evader keeps its guarantees and never runs out of safe branches.
        spec = SpiderSpec(T, 7)
        g = gen_spider(spec)
        oracle = DistanceOracle(g)
        pad_ids = [spec.t * spec.t + 1 + k for k in range(7)]
        cat = ScriptedCat(pad_ids * 20)
        mouse = SpiderMouse(T)
        tr = run_game(g, cat, mouse, 80, track_belief=True, oracle=oracle)
        for i in range(1, 81):
            assert tr.belief_radius[i] > T // 12
            assert tr.belief_members(i)[mouse.shadow_trace[i]]

    def test_t24_spider(self):
        spec, g, oracle, mouse, tr = spider_run(
            lambda g, o: SeededRandomCat(g, 9), t=24, horizon=100
        )
        for i in range(1, tr.horizon + 1):
            assert tr.belief_radius[i] > 2
            assert tr.belief_members(i)[mouse.shadow_trace[i]]

    def test_sqrt_cat_never_localizes_to_t_over_12(self):
        from catmouse.cats import sqrt_cat
        from catmouse.engine import localization_report

        spec, g, oracle, mouse, tr = spider_run(lambda g, o: sqrt_cat(o))
        assert localization_report(tr, T // 12).first_success_step is None


@pytest.mark.parametrize(
    "graph_spec, t", [("spider:t=24,extra=0", 24), ("spider:t=12,extra=7", 12)]
)
def test_evader_clones_the_cat_once_per_lookahead_window(monkeypatch, graph_spec, t):
    # The cat's query is in the view when the mouse moves, so the evader
    # clones it only for its lookahead windows: game start, each branch
    # switch and each cycle end.
    clones = 0
    original = engine.CatStrategy.clone

    def counting_clone(self):
        nonlocal clones
        clones += 1
        return original(self)

    monkeypatch.setattr(engine.CatStrategy, "clone", counting_clone)
    g, oracle, _ = corpus_graph(graph_spec)
    for cat_spec in _LOWER_CATS:
        cat = parse_cat_spec(cat_spec, g, oracle)
        mouse = SpiderMouse(t)
        clones = 0
        run_game(g, cat, mouse, 300, oracle=oracle)
        windows = sum(
            label in ("cycle_start", "branch_switch", "cycle_end")
            for _, label in mouse.stage_events
        )
        assert clones == windows, cat_spec


class TestSpiderMouseValidation:
    def test_requires_multiple_of_twelve(self):
        for t in (0, 6, 13):
            with pytest.raises(GraphError):
                SpiderMouse(t)

    def test_rejects_wrong_graph(self):
        mouse = SpiderMouse(12)
        g = gen_path(145)
        with pytest.raises(GraphError, match="not a spider"):
            run_game(g, StayCat(g), mouse, 3, oracle=DistanceOracle(g))

    def test_rejects_wrong_parameter(self):
        mouse = SpiderMouse(24)
        with pytest.raises(GraphError, match="not a spider"):
            run_game(GS, StayCat(GS), mouse, 3, oracle=DistanceOracle(GS))


class ReferencePlan:
    """The evader's earlier forward model, kept as the reference for
    `DepthPlan`: the plan names the shadow's move in `w_action` and the
    mouse applies it to its own copy of the shadow's depth."""

    def __init__(self, t):
        self.t = t
        self.stage = 2
        self.clock = t // 6
        self.m_depth = t // 4
        self.w_depth = t // 4
        self.step = 0
        self.prev_dc = None
        self.w_action = None
        self.s2_just_ended = False

    def advance(self, dc):
        self.step += 1
        self.s2_just_ended = False
        if self.step == 1:
            self.prev_dc = dc
            self.w_action = None
            return None
        old_depth = self.m_depth
        if self.stage == 2:
            if dc <= self.prev_dc:
                self.m_depth -= 1
                self.w_action = "hold"
            else:
                self.w_action = "out"
            self.clock -= 1
            if self.clock == 0:
                self.stage = 3
                self.clock = self.m_depth
                self.s2_just_ended = True
        elif self.stage == 3:
            self.m_depth -= 1
            self.w_action = "in"
            self.clock -= 1
            if self.clock == 0:
                self.stage = 5
                self.clock = self.t // 4
        else:
            self.m_depth += 1
            self.w_action = "out"
            self.clock -= 1
            if self.clock == 0:
                self.w_action = "reanchor"
                self.stage = 2
                self.clock = self.t // 6
        bit = 1 if dc + self.m_depth <= self.prev_dc + old_depth else 0
        self.prev_dc = dc
        # The mouse's rules for applying the action to the shadow.
        if self.w_action == "out":
            self.w_depth += 1
        elif self.w_action == "in":
            self.w_depth -= 1
        elif self.w_action == "reanchor":
            self.w_depth = self.t // 4
        return bit

    @property
    def event(self):
        if self.w_action == "reanchor":
            return "cycle_end"
        return "s2_end" if self.s2_just_ended else None


class TestDepthPlan:
    def test_placement_step_produces_no_bit(self):
        plan = DepthPlan(12)
        assert plan.advance(3) is None
        assert plan.m_depth == 3  # t/4

    def test_drift_tie_goes_inward(self):
        plan = DepthPlan(12)
        plan.advance(5)
        bit = plan.advance(5)  # equal distance: move in, bit 1
        assert plan.m_depth == 2 and bit == 1

    def test_drift_away_holds_still(self):
        plan = DepthPlan(12)
        plan.advance(0)
        bit = plan.advance(4)  # cat moved out: hold, bit 0
        assert plan.m_depth == 3 and bit == 0 and plan.w_depth == 4

    def test_shallow_copy_is_independent(self):
        plan = DepthPlan(12)
        for dc in (3, 3, 2):
            plan.advance(dc)

        def slots(p):
            return {name: getattr(p, name) for name in DepthPlan.__slots__}

        before = copy.deepcopy(slots(plan))
        dup = copy.copy(plan)
        assert slots(dup) == before
        for dc in (2, 1, 1, 0, 4, 5, 6, 7, 8, 9):
            dup.advance(dc)
        assert slots(dup) != before
        assert slots(plan) == before

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.sampled_from((12, 24, 36)),
        dcs=st.lists(st.integers(0, 36), min_size=1, max_size=200),
    )
    def test_matches_reference_plan(self, t, dcs):
        plan, ref = DepthPlan(t), ReferencePlan(t)
        for dc in dcs:
            assert plan.advance(dc) == ref.advance(dc)
            assert (plan.m_depth, plan.w_depth) == (ref.m_depth, ref.w_depth)
            assert plan.event == ref.event


class TestBaselineMice:
    def test_stationary_holds_seeded_vertex(self):
        g = gen_grid(3, 3)
        tr = run_game(g, SweepCat(g), StationaryMouse(13), 5, oracle=DistanceOracle(g))
        assert all(m == 13 % 9 for m in tr.m[1:])

    def test_random_walk_deterministic(self):
        g = gen_grid(4, 4)
        a = run_game(g, SweepCat(g), RandomWalkMouse(3), 12, oracle=DistanceOracle(g))
        b = run_game(g, SweepCat(g), RandomWalkMouse(3), 12, oracle=DistanceOracle(g))
        assert a.m == b.m

    def test_greedy_away_maximizes_distance(self):
        g = gen_path(5)
        # cat sits on 0; mouse starts at 2 and must step to 3
        tr = run_game(g, StayCat(g), GreedyAwayMouse(2), 2, oracle=DistanceOracle(g))
        assert tr.m[1:] == [2, 3]

    def test_greedy_tie_breaks_low(self):
        g = gen_grid(3, 3)
        oracle = DistanceOracle(g)
        tr = run_game(g, ScriptedCat([4, 4, 4]), GreedyAwayMouse(0), 2, oracle=oracle)
        choices = (0, *g.adjacency[0])
        best = max(oracle.distance(v, 4) for v in choices)
        expected = min(v for v in choices if oracle.distance(v, 4) == best)
        assert tr.m[2] == expected

    def test_scripted_mouse_rejects_empty(self):
        with pytest.raises(GraphError):
            ScriptedMouse([])


class TestFactories:
    def test_spider_and_baseline(self):
        for spec, cls, attr, value in (
            ("spider:t=12", SpiderMouse, "t", 12),
            ("stationary:seed=3", StationaryMouse, "seed", 3),
            ("rw:seed=4", RandomWalkMouse, "seed", 4),
            ("greedy", GreedyAwayMouse, "seed", 0),
        ):
            mouse = parse_mouse_spec(spec)
            assert type(mouse) is cls and getattr(mouse, attr) == value
        with pytest.raises(GraphError, match="telepath"):
            parse_mouse_spec("telepath")


class TestParseMouseSpec:
    def test_known_specs(self):
        assert parse_mouse_spec("spider:t=12").t == 12
        assert parse_mouse_spec("stationary:seed=1").seed == 1
        assert parse_mouse_spec("rw:seed=2").seed == 2
        assert parse_mouse_spec("greedy").seed == 0
        assert parse_mouse_spec("greedy:seed=3").seed == 3

    def test_default_seed(self):
        assert parse_mouse_spec("rw", default_seed=17).seed == 17

    def test_bare_value_fills_the_first_field(self):
        assert parse_mouse_spec("spider:12").spec == "spider:t=12"
        assert parse_mouse_spec(" rw : 3 ").spec == "rw:seed=3"

    def test_bad_specs(self):
        for spec, field in (
            ("spider", "'t'"),
            ("spider:x=1", "'x'"),
            ("sloth", "sloth"),
            ("rw:k=2", "'k'"),
            ("rw:seed=q", "'seed'"),
            ("spider:t=x", "'t'"),
            ("spider:t=12,t=24", "'t'"),
            ("greedy:seed=1,extra=2", "'extra'"),
            ("stationary:seed=", "'seed'"),
            ("rw:seed", "'seed'"),
            ("rw:seed=1_0", "'seed'"),
            ("spider:t=+12", "'t'"),
            ("spider:t=\u0661\u0662", "'t'"),
            ("spider:t=0", "bad value '0' for field 't'"),
            ("spider:t=6", "bad value '6' for field 't'"),
            ("spider:t=13", "bad value '13' for field 't'"),
            ("telepath", r"unknown kind 'telepath' \(allowed: spider, stationary, rw, greedy\)"),
        ):
            with pytest.raises(GraphError, match=field):
                parse_mouse_spec(spec)
