"""Cat strategies: elimination mechanics, phase descent, composition, baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse.cats import (
    BallCoverCat,
    ScriptedCat,
    SeededRandomCat,
    SphereWalkCat,
    StayCat,
    SweepCat,
    auto_thin_K,
    parse_cat_spec,
    sqrt_cat,
)
from catmouse.engine import (
    CatStrategy,
    MouseStrategy,
    localization_report,
    mask_radius,
    run_game,
)
from catmouse.graphs import (
    BallCover,
    DistanceOracle,
    Graph,
    GraphError,
    ceil_sqrt,
    gen_cycle,
    gen_path,
    gen_spider,
    scattered_cover,
    SpiderSpec,
)
from catmouse.mice import RandomWalkMouse, StationaryMouse
from catmouse.solver import exhaustive_game_value


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def drive_with_bits(cat, bits):
    """Replay a fixed bit sequence; returns the query sequence it produces."""
    queries = [cat.next_query(None), cat.next_query(None)]
    for b in bits:
        queries.append(cat.next_query(b))
    return queries


class TestBallCoverCat:
    def test_p9_hand_simulation(self):
        g = gen_path(9)
        oracle = DistanceOracle(g)
        cat = BallCoverCat(oracle, BallCover((2, 6), 2))
        tr = run_game(g, cat, StationaryMouse(8), 4, oracle=oracle)
        assert tr.c[1:3] == [2, 6]
        assert tr.b[2] == 1  # d(6,8)=2 <= d(2,8)=6
        assert cat.champion_vertex == 6
        assert tr.c[3] == 6
        assert oracle.distance(6, 8) <= cat.guarantee == 10

    def test_single_ball_repeats_champion(self):
        cat = BallCoverCat(DistanceOracle(gen_path(5)), BallCover((2,), 2))
        assert drive_with_bits(cat, [0, 1, 0]) == [2] * 5
        assert cat.guarantee == 4 + 2

    def test_champion_recurrence_and_noise_rate(self):
        # Replay recorded bits into the pairwise update rule and verify both
        # the recurrence w_{i+1} in {w_i, i+1} and the +2 growth per round.
        g = gen_cycle(30)
        oracle = DistanceOracle(g)
        cover = scattered_cover(oracle, 5)
        L = cover.count
        for seed in range(6):
            cat = BallCoverCat(oracle, cover)
            tr = run_game(g, cat, RandomWalkMouse(seed), 2 * L, oracle=oracle)
            w = 1
            for i in range(1, L):
                w_next = i + 1 if tr.b[2 * i] == 1 else w
                assert w_next in (w, i + 1)
                if 2 * i + 1 <= tr.horizon:
                    before = oracle.distance(cover.centers[w - 1], tr.m[2 * i - 1])
                    after = oracle.distance(cover.centers[w_next - 1], tr.m[2 * i + 1])
                    assert after <= before + 2
                w = w_next
            assert cat.champion_vertex == cover.centers[w - 1]

    def test_endgame_bound_with_beliefs(self):
        g = gen_path(60)
        oracle = DistanceOracle(g)
        cover = scattered_cover(oracle, 10)
        bound = 4 * cover.count + cover.radius_k
        for seed in range(5):
            cat = BallCoverCat(oracle, cover)
            tr = run_game(
                g, cat, RandomWalkMouse(seed), 2 * cover.count,
                track_belief=True, oracle=oracle,
            )
            step = 2 * cover.count - 1
            champ = cat.champion_vertex
            assert oracle.distance(champ, tr.m[step]) <= bound
            assert oracle.row(champ)[tr.belief_members(step)].max() <= bound

    def test_empty_cover_rejected(self):
        with pytest.raises(GraphError):
            BallCoverCat(DistanceOracle(gen_path(3)), BallCover((), 1))


def closed_form_queries(centers, bits):
    """Reference for the ball-cover cat, with a 1-based champion index w.

    At an even step t with t/2 <= L-1 the query is u_{t/2+1}, otherwise it
    is u_w; a 1 bit before an odd step t promotes u_{(t-1)/2+1}, and bits
    after round L-1 are ignored.  `bits[j]` arrives before step j+3.
    """
    L, w, queries = len(centers), 1, []
    for t in range(1, len(bits) + 3):
        i = (t - 1) // 2
        if t % 2 == 1 and t >= 3 and i <= L - 1 and bits[t - 3] == 1:
            w = i + 1
        queries.append(centers[t // 2] if t % 2 == 0 and t // 2 <= L - 1 else centers[w - 1])
    return queries, centers[w - 1]


CYCLE24 = DistanceOracle(gen_cycle(24))


@settings(max_examples=200, deadline=None)
@given(
    centers=st.lists(st.integers(0, 23), min_size=1, max_size=24, unique=True),
    bits=st.lists(st.integers(0, 1), max_size=60),
)
def test_ball_cover_cat_matches_closed_form(centers, bits):
    # radius_k = 24 exceeds the diameter, so every center tuple is a cover.
    cat = BallCoverCat(CYCLE24, BallCover(tuple(centers), 24))
    queries, champion = closed_form_queries(tuple(centers), bits)
    assert drive_with_bits(cat, bits) == queries
    assert cat.champion_vertex == champion


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda oracle: BallCoverCat(oracle, BallCover((), 1)), "no centers"),
        (lambda oracle: SphereWalkCat(oracle, 0), "K must be >= 1"),
    ],
    ids=["ball-cover-no-centers", "sphere-walk-K-0"],
)
def test_core_cat_bad_parameter_rejected(build, message):
    # BallCover.validate and DistanceOracle.thin_levels raise these.
    with pytest.raises(GraphError, match=message):
        build(DistanceOracle(gen_path(3)))


class TestSphereWalkCat:
    def test_cycle_needs_k_above_nine(self):
        oracle = DistanceOracle(gen_cycle(50))
        with pytest.raises(GraphError, match="no sphere"):
            SphereWalkCat(oracle, 9)
        cat = SphereWalkCat(oracle, 10)
        assert cat.K == 10

    def test_cycle_phase_descent(self):
        g = gen_cycle(50)
        oracle = DistanceOracle(g)
        cat = SphereWalkCat(oracle, 10)
        D = oracle.diameter()
        horizon = 2 * cat.stop_pairs + 2 * cat.K + 8
        tr = run_game(g, cat, StationaryMouse(30), horizon, oracle=oracle)
        log = cat.phase_log
        stop = [e for e in log if e[0] >= cat.stop_pairs]
        assert stop, "never reached the pair budget"
        pairs, anchor = stop[0]
        assert oracle.distance(anchor, tr.m[2 * pairs - 1]) <= (3 * cat.K + 1) // 2

    def test_path_per_phase_inequalities(self):
        g = gen_path(50)
        oracle = DistanceOracle(g)
        K = ceil_sqrt(9 * 50)  # 22
        cat = SphereWalkCat(oracle, K)
        horizon = 2 * cat.stop_pairs + 2 * K + 8
        tr = run_game(g, cat, StationaryMouse(49), horizon, oracle=oracle)
        log = cat.phase_log

        def dist(entry):
            pairs, anchor = entry
            return oracle.distance(anchor, tr.m[2 * pairs - 1 if pairs else 1])

        assert len(log) >= 2
        for prev, nxt in zip(log, log[1:]):
            level = int(cat.levels[prev[1]])
            assert 4 * (nxt[0] - prev[0]) < level
            if dist(prev) >= K:
                assert 2 * dist(nxt) <= 2 * dist(prev) - level
            else:
                assert 2 * dist(nxt) <= 3 * K

    def test_tiny_diameter_holds_anchor(self):
        oracle = DistanceOracle(gen_path(2))
        cat = SphereWalkCat(oracle, 5)
        queries = drive_with_bits(cat, [1, 0, 1])
        assert queries == [0] * 5
        # trivial guarantee: everything is within (3/2)K of the anchor
        assert oracle.eccentricity(0) <= (3 * 5 + 1) // 2

    def test_auto_K(self):
        g = gen_cycle(50)
        oracle = DistanceOracle(g)
        K = auto_thin_K(g, oracle)
        SphereWalkCat(oracle, K)
        assert K >= ceil_sqrt(9 * 50)


class TestSqrtCat:
    def test_star_single_ball(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        oracle = DistanceOracle(g)
        cat = sqrt_cat(oracle)
        assert cat.cover.count == 1
        tr = run_game(g, cat, StationaryMouse(3), 3, track_belief=True, oracle=oracle)
        assert tr.belief_radius[1] == mask_radius(oracle, np.ones(4, dtype=bool))[0] == 1
        assert tr.belief_radius[1] <= ceil_sqrt(32 * 4)

    def test_spider_cover_size_and_bounds(self):
        g = gen_spider(SpiderSpec(12, 0))
        cat = sqrt_cat(DistanceOracle(g))
        assert cat.cover.count <= 9  # ceil((2/sqrt8) * sqrt(145))
        assert ceil_sqrt(32 * g.n) == 69
        assert ceil_sqrt(2 * g.n) == 18

    def test_p2000_random_walkers_localized_in_time(self):
        g = gen_path(2000)
        oracle = DistanceOracle(g)
        deadline = ceil_sqrt(2 * 2000)  # 64
        bound = ceil_sqrt(32 * 2000)  # 253
        for seed in range(10):
            cat = sqrt_cat(oracle)
            tr = run_game(
                g, cat, RandomWalkMouse(seed), deadline,
                track_belief=True, oracle=oracle,
            )
            rep = localization_report(tr, bound)
            assert rep.first_success_step is not None
            assert rep.min_radius <= bound

    def test_needs_two_vertices(self):
        with pytest.raises(GraphError):
            sqrt_cat(DistanceOracle(Graph(1, [])))


class TestBaselines:
    def test_sweep_cycles_through_ids(self):
        g = gen_path(3)
        cat = SweepCat(g)
        assert drive_with_bits(cat, [0, 1, 1]) == [0, 1, 2, 0, 1]

    def test_stay_is_constant(self):
        g = gen_path(4)
        assert drive_with_bits(StayCat(g), [0, 0]) == [0, 0, 0, 0]

    def test_seeded_random_is_bit_history_deterministic(self):
        g = gen_path(37)
        a = drive_with_bits(SeededRandomCat(g, 7), [1, 0, 1, 1])
        b = drive_with_bits(SeededRandomCat(g, 7), [1, 0, 1, 1])
        assert a == b
        # queries agree exactly as long as the bit histories agree
        c = drive_with_bits(SeededRandomCat(g, 7), [1, 0, 1, 0])
        assert a[:5] == c[:5]

    def test_seeded_random_golden_queries(self):
        # pins the hash payload "seed|t|bits": any change to it moves these
        g = gen_path(37)
        assert drive_with_bits(SeededRandomCat(g, 7), [1, 0, 1, 1]) == [34, 31, 6, 25, 0, 17]

    def test_seeded_random_seeds_differ(self):
        g = gen_path(101)
        a = drive_with_bits(SeededRandomCat(g, 1), [0] * 6)
        b = drive_with_bits(SeededRandomCat(g, 2), [0] * 6)
        assert a != b

    def test_scripted_repeats_last(self):
        cat = ScriptedCat([4, 2])
        assert drive_with_bits(cat, [1]) == [4, 2, 2]
        with pytest.raises(GraphError, match="scripted cat needs at least one query"):
            ScriptedCat(())


def _spec_cat(spec):
    g = gen_cycle(24)
    return lambda: parse_cat_spec(spec, g, DistanceOracle(g))


def _solver_cat():
    res = exhaustive_game_value(gen_path(4), 8, 1)
    assert res.winner == "cat_wins"
    return res.extract_cat()


CLONE_CASES = [
    pytest.param(_spec_cat(spec), id=spec)
    for spec in ("sqrt", "fat:c=1.0", "thin:K=auto", "sweep", "stay", "rand:seed=9")
] + [
    pytest.param(lambda: ScriptedCat([5, 3, 8, 1, 7, 2]), id="scripted"),
    pytest.param(_solver_cat, id="solver"),
]


class TestBitHistoryDeterminism:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda g, o: SweepCat(g),
            lambda g, o: StayCat(g),
            lambda g, o: SeededRandomCat(g, 9),
            lambda g, o: sqrt_cat(o),
            lambda g, o: BallCoverCat(o, scattered_cover(o, 4)),
            lambda g, o: SphereWalkCat(o, auto_thin_K(g, o)),
        ],
    )
    def test_replaying_bits_reproduces_queries(self, factory):
        g = gen_cycle(24)
        oracle = DistanceOracle(g)
        bits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1]
        a = drive_with_bits(factory(g, oracle), bits)
        b = drive_with_bits(factory(g, oracle), bits)
        assert a == b

    def test_snapshot_restore_roundtrip(self):
        """A clone taken mid-game is the snapshot: on the same bits it replays
        the live cat's queries, across sphere-walk phase boundaries."""
        g = gen_cycle(24)
        oracle = DistanceOracle(g)
        cat = SphereWalkCat(oracle, auto_thin_K(g, oracle))
        cat.next_query(None)
        cat.next_query(None)
        cat.next_query(1)
        snap = cat.clone()
        bits = (0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1)
        ahead = [cat.next_query(b) for b in bits]
        replay = [snap.next_query(b) for b in bits]
        assert ahead == replay
        assert snap.phase_log == cat.phase_log and len(cat.phase_log) > 2

    @pytest.mark.parametrize("make", CLONE_CASES)
    def test_clone_is_independent(self, make):
        live, twin = make(), make()
        bits = [1, 0, 0, 1, 1, 0, 1, 0, 1, 1] * 3
        assert drive_with_bits(live, bits[:2]) == drive_with_bits(twin, bits[:2])
        clone = live.clone()
        for k in range(40):
            clone.next_query(1 if k % 3 == 0 else 0)
        later = [live.next_query(b) for b in bits[2:]]
        assert later == [twin.next_query(b) for b in bits[2:]]
        assert getattr(live, "phase_log", None) == getattr(twin, "phase_log", None)

    def test_core_cats_share_one_pair_machine(self):
        for cls in (BallCoverCat, SphereWalkCat):
            assert "next_query" not in vars(cls)

    def test_no_strategy_overrides_clone(self):
        # perfbench counts clones by wrapping CatStrategy.clone alone, and
        # labels every live query through next_query, the one query method.
        found = list(_subclasses(CatStrategy))
        assert {"BallCoverCat", "SphereWalkCat", "SolverCat"} <= {c.__name__ for c in found}
        assert [c.__name__ for c in found if "clone" in vars(c)] == []
        assert [c.__name__ for c in found if "first_query" in vars(c)] == []

    def test_no_mouse_defines_first_position(self):
        # next_move is a mouse's one method; step 1 is its placement.
        found = [c for c in _subclasses(MouseStrategy) if c.__module__.startswith("catmouse.")]
        assert {"SpiderMouse", "StationaryMouse", "ScriptedMouse"} <= {c.__name__ for c in found}
        assert [c.__name__ for c in found if "first_position" in vars(c)] == []


class TestFactories:
    def test_fat_and_thin_and_baseline(self):
        g = gen_cycle(30)
        oracle = DistanceOracle(g)
        fat = parse_cat_spec("fat:c=0.50", g, oracle)
        assert fat.cover == scattered_cover(oracle, 3)  # ceil(0.50 * sqrt(30))
        assert fat.spec == "fat:c=0.50"
        thin = parse_cat_spec("thin:K=10", g, oracle)
        assert isinstance(thin, SphereWalkCat) and thin.K == 10
        assert thin.spec == "thin:K=10"
        assert isinstance(parse_cat_spec("sweep", g, oracle), SweepCat)
        assert isinstance(parse_cat_spec("stay", g, oracle), StayCat)
        rand = parse_cat_spec("rand:seed=4", g, oracle)
        assert isinstance(rand, SeededRandomCat) and rand.seed == 4
        with pytest.raises(GraphError, match="psychic"):
            parse_cat_spec("psychic", g, oracle)


class TestParseCatSpec:
    def test_known_specs(self):
        g = gen_cycle(30)
        oracle = DistanceOracle(g)
        assert parse_cat_spec("sqrt", g, oracle).spec == "sqrt"
        assert parse_cat_spec("sweep", g, oracle).spec == "sweep"
        assert parse_cat_spec("stay", g, oracle).spec == "stay"
        assert parse_cat_spec("rand:seed=7", g, oracle).seed == 7
        fat = parse_cat_spec("fat:c=2.83", g, oracle)
        assert fat.cover.count >= 1
        thin = parse_cat_spec("thin:K=auto", g, oracle)
        assert thin.K >= ceil_sqrt(9 * 30)

    def test_fat_spec_drops_spaces_around_c(self):
        g = gen_cycle(30)
        oracle = DistanceOracle(g)
        for raw in ("fat: c = 2.5 ", "fat:c= 2.5", "fat:c=2.5"):
            assert parse_cat_spec(raw, g, oracle).spec == "fat:c=2.5"
        assert parse_cat_spec("fat:c=0.5", g, oracle).spec == "fat:c=0.5"
        assert parse_cat_spec("fat:c=1.0", g, oracle).spec == "fat:c=1.0"

    def test_thin_K_is_stripped_like_every_value(self):
        g = gen_cycle(30)
        oracle = DistanceOracle(g)
        assert parse_cat_spec("thin:K= 12", g, oracle).spec == "thin:K=12"
        assert parse_cat_spec("thin:K= auto", g, oracle).spec == "thin:K=auto"
        auto = parse_cat_spec("thin:K=auto", g, oracle).K
        assert parse_cat_spec("thin:K= auto", g, oracle).K == auto
        assert parse_cat_spec("thin:auto", g, oracle).spec == "thin:K=auto"
        assert parse_cat_spec("rand:7", g, oracle).spec == "rand:seed=7"

    def test_fat_huge_c_is_one_center(self):
        g = gen_path(10)
        assert parse_cat_spec("fat:c=1e300", g, DistanceOracle(g)).cover.centers == (0,)

    def test_default_seed_flows_into_rand(self):
        g = gen_path(10)
        cat = parse_cat_spec("rand", g, DistanceOracle(g), default_seed=42)
        assert cat.seed == 42

    def test_bad_specs(self):
        g = gen_path(10)
        oracle = DistanceOracle(g)
        for spec, field in (
            ("fat", "'c'"),
            ("fat:k=2", "'k'"),
            ("thin", "'K'"),
            ("thin:K=", "'K'"),
            ("warp", "warp"),
            ("rand:x=1", "'x'"),
            ("rand:seed=x", "'seed'"),
            ("thin:K=abc", "'K'"),
            ("fat:c=nan", "'c'"),
            ("fat:c=inf", "'c'"),
            ("fat:c=0", "'c'"),
            ("fat:c=-1.5", "'c'"),
            ("fat:c=1e308", "'c'"),  # finite, but c * sqrt(n) is not
            ("rand:seed=1,seed=2", "'seed'"),
            ("sqrt:x=1", "'x'"),
            ("stay:K=1", "'K'"),
            ("sweep:fast", "'fast'"),
            ("rand:seed=1_0", "'seed'"),
            ("rand:seed=+3", "'seed'"),
            ("thin:K=0", "'K'"),
            ("fat:c=1_0", "'c'"),
            ("fat:c=+2", "'c'"),
            ("fat:c=\u0662", "'c'"),
            ("psychic", r"unknown kind 'psychic' \(allowed: sqrt, sweep, stay, rand, fat, thin\)"),
        ):
            with pytest.raises(GraphError, match=field):
                parse_cat_spec(spec, g, oracle)


def test_entry_points_reject_another_graphs_oracle():
    # With the cycle's distances the path game below plays bits 0,0,0,0 and
    # the thin cat gets D = 5 on a path of diameter 9.
    g = gen_path(10)
    own = run_game(g, SweepCat(g), StationaryMouse(9), 5, oracle=DistanceOracle(g))
    assert own.b[2:] == [1, 1, 1, 1]
    cycle_oracle = DistanceOracle(gen_cycle(10))
    calls = (
        lambda: run_game(
            g, SweepCat(g), StationaryMouse(9), 5, track_belief=True, oracle=cycle_oracle
        ),
        lambda: parse_cat_spec("thin:K=auto", g, cycle_oracle),
        lambda: auto_thin_K(g, cycle_oracle),
    )
    for call in calls:
        with pytest.raises(
            GraphError, match=r"oracle is over Graph\(n=10, m=10\), not the given Graph\(n=10, m=9\)"
        ):
            call()
    # an equal graph that is another object is refused too
    with pytest.raises(GraphError, match="oracle is over"):
        parse_cat_spec("sweep", g, DistanceOracle(gen_path(10)))
