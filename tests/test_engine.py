"""Engine: feedback bits, exact belief tracking, game loop, transcripts."""

import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse import engine, solver
from catmouse.cats import ScriptedCat, SeededRandomCat, StayCat, SweepCat
from catmouse.engine import (
    BeliefKernel,
    GameError,
    IllegalFeedbackError,
    MouseStrategy,
    RuleViolationError,
    _bool_from_mask,
    _mask_from_bool,
    feedback_bit,
    localization_report,
    mask_radius,
    run_game,
)
from catmouse.graphs import (
    DistanceOracle,
    Graph,
    GraphError,
    SpiderSpec,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_tree,
    gen_spider,
)
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


def members_of(arr) -> list[int]:
    return np.flatnonzero(arr).tolist()


def kernel_step(g, members, c_prev, c_cur, bit) -> np.ndarray:
    """One `update_bool` on g's kernel, fed the rows of the two queries."""
    oracle = DistanceOracle(g)
    return BeliefKernel(oracle).update_bool(members, oracle.row(c_prev), oracle.row(c_cur), bit)


class TestBeliefMask:
    def test_members_roundtrip(self):
        arr = np.array([True, False, True, False, False, True])
        mask = _mask_from_bool(arr)
        assert mask == 0b100101
        assert list(_bool_from_mask(mask, 6)) == list(arr)
        # a mask wider than a whole number of bytes keeps its top vertex
        full = _bool_from_mask((1 << 9) - 1, 9)
        assert full.all() and len(full) == 9


class TestBeliefUpdate:
    def test_p5_stay_keeps_everything_on_bit_one(self):
        out = kernel_step(gen_path(5), np.ones(5, dtype=bool), 0, 0, 1)
        assert members_of(out) == [0, 1, 2, 3, 4]

    def test_p5_bit_zero_drops_the_cat_vertex(self):
        out = kernel_step(gen_path(5), np.ones(5, dtype=bool), 0, 0, 0)
        assert members_of(out) == [1, 2, 3, 4]

    def test_true_position_survives(self):
        g = gen_grid(2, 3)
        for u in range(g.n):
            prev = np.zeros(g.n, dtype=bool)
            prev[u] = True
            bit = feedback_bit(1, 1)  # stationary mouse, repeated query
            assert kernel_step(g, prev, 2, 2, bit)[u]

    def test_empty_update_raises(self):
        # The kernel returns the empty set; run_game is what raises on it.
        prev = np.array([True, False])
        assert not kernel_step(gen_path(2), prev, 1, 1, 0).any()

    def test_matches_trajectory_enumeration(self):
        g = gen_path(5)
        for c0, c1, bit in itertools.product(range(5), range(5), (0, 1)):
            expected = beliefs_by_trajectory_enumeration(g, [c0, c1], [bit])[1]
            got = set(members_of(kernel_step(g, np.ones(5, dtype=bool), c0, c1, bit)))
            assert got == expected, (c0, c1, bit)


@st.composite
def kernel_graphs(draw):
    """Trees, cycles and grids, plus stars and spiders, whose hubs receive
    many arcs: the repeated targets a buffered scatter would get wrong."""
    kind = draw(st.sampled_from(("tree", "cycle", "grid", "star", "spider")))
    if kind == "tree":
        return gen_random_tree(draw(st.integers(2, 36)), draw(st.integers(0, 2**20)))
    if kind == "cycle":
        return gen_cycle(draw(st.integers(3, 36)))
    if kind == "star":
        n = draw(st.integers(3, 36))
        hub = draw(st.integers(0, n - 1))
        return Graph(n, [(hub, v) for v in range(n) if v != hub])
    if kind == "spider":
        return gen_spider(SpiderSpec(draw(st.integers(2, 6)), draw(st.integers(0, 5))))
    return gen_grid(draw(st.integers(1, 6)), draw(st.integers(2, 6)))


@st.composite
def kernel_cases(draw):
    g = draw(kernel_graphs())
    members = draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    c_prev = draw(st.integers(0, g.n - 1))
    c_cur = draw(st.integers(0, g.n - 1))
    return g, members, c_prev, c_cur, draw(st.sampled_from((0, 1)))


@settings(max_examples=300, deadline=None)
@given(case=kernel_cases())
def test_kernel_matches_solver_on_arbitrary_beliefs(case):
    """The numpy kernel equals the solver's set-based step from any
    non-empty belief set, not only the ones a game reaches."""
    g, members, c_prev, c_cur, bit = case
    arr = np.zeros(g.n, dtype=bool)
    arr[list(members)] = True
    got = kernel_step(g, arr, c_prev, c_cur, bit)
    expected = solver._step_sets(g, solver._DistCache(g), members, c_prev, c_cur, bit)
    assert set(members_of(got)) == set(expected)


def full_csr_update(g, members, row_prev, row_cur, bit):
    """The kernel step the sparse step and the arc scatter replaced, kept as
    their reference: build the closed CSR, gather both the rows and the mask
    over all of it, mask the gathered rows, then reduce over each N[v]."""
    closed = [sorted((v, *g.adjacency[v])) for v in range(g.n)]
    indptr = np.cumsum([0] + [len(nbrs) for nbrs in closed])
    indices = np.array([u for nbrs in closed for u in nbrs])
    gathered = row_prev[indices]
    member_at = members[indices]
    if bit == 1:
        vals = np.where(member_at, gathered, BeliefKernel._NONE_MAX)
        return np.maximum.reduceat(vals, indptr[:-1]) >= row_cur
    vals = np.where(member_at, gathered, BeliefKernel._NONE_MIN)
    return np.minimum.reduceat(vals, indptr[:-1]) < row_cur


@settings(max_examples=200, deadline=None)
@given(g=kernel_graphs())
def test_closed_table_rows_are_closed_neighborhoods_padded_with_their_vertex(g):
    width = 1 + max(len(nbrs) for nbrs in g.adjacency)
    table = BeliefKernel(DistanceOracle(g))._table
    if g.n * width > BeliefKernel.TABLE_BOUND * (g.n + 2 * g.edge_count):
        assert table is None
        return
    assert table.shape == (g.n, width) and not table.flags.writeable
    for v, row in enumerate(table.tolist()):
        # N(v) once each, and v in every other slot: its own and the padding
        assert sorted(row) == sorted([*g.adjacency[v], *[v] * (width - len(g.adjacency[v]))])


@st.composite
def gate_cases(draw):
    g = draw(kernel_graphs())
    cut = BeliefKernel(DistanceOracle(g))._cut
    size = draw(st.sampled_from(("one", "cut", "random")))
    if size == "one":
        k = 1
    elif size == "cut":
        k = min(g.n, max(1, cut + draw(st.sampled_from((-1, 0, 1)))))
    else:
        k = draw(st.integers(1, g.n))
    members = np.zeros(g.n, dtype=bool)
    members[draw(st.permutations(range(g.n)))[:k]] = True
    c_prev = draw(st.integers(0, g.n - 1))
    return g, members, c_prev, draw(st.integers(0, g.n - 1))


@settings(max_examples=300, deadline=None)
@given(case=gate_cases())
def test_sparse_and_dense_steps_match_full_csr_gather_and_solver(case):
    """Each side of the kernel's gate, called directly whatever |M| is,
    equals the full-CSR gather it replaced and the solver's set-based step,
    for both bits, from one member, from about the gate's cut and from a
    random set.  A graph with no closed table has no sparse step, and its
    `update_bool` goes dense whatever |M| is."""
    g, members, c_prev, c_cur = case
    oracle = DistanceOracle(g)
    kernel = BeliefKernel(oracle)
    steps = [kernel._dense_step, kernel.update_bool]
    if kernel._table is not None:
        steps.append(kernel._sparse_step)
    else:
        kernel._sparse_step = None  # a call would raise TypeError
    row_prev, row_cur = oracle.row(c_prev), oracle.row(c_cur)
    believed = set(members_of(members))
    for bit in (0, 1):
        expected = full_csr_update(g, members, row_prev, row_cur, bit)
        assert set(members_of(expected)) == set(
            solver._step_sets(g, solver._DistCache(g), believed, c_prev, c_cur, bit)
        )
        for step in steps:
            got = step(members, row_prev, row_cur, bit)
            assert got.dtype == bool
            assert np.array_equal(got, expected), (step.__name__, bit)


@pytest.mark.parametrize("n", [30, 31, 32])
def test_update_bool_goes_sparse_below_a_third_of_n(n):
    g = gen_path(n)
    oracle = DistanceOracle(g)
    kernel = BeliefKernel(oracle)
    taken = []
    for name in ("_sparse_step", "_dense_step"):
        real = getattr(kernel, name)
        setattr(kernel, name, lambda *args, real=real, name=name: taken.append(name) or real(*args))
    cut = kernel._cut  # the least |M| that goes dense
    row_prev, row_cur = oracle.row(0), oracle.row(n - 1)
    for size, side in ((cut - 1, "_sparse_step"), (cut, "_dense_step")):
        members = np.zeros(n, dtype=bool)
        members[:size] = True
        taken.clear()
        got = kernel.update_bool(members, row_prev, row_cur, 1)
        assert taken == [side], size
        assert np.array_equal(got, full_csr_update(g, members, row_prev, row_cur, 1))


@pytest.mark.parametrize(
    "g",
    [gen_path(31), gen_grid(9, 9), gen_random_tree(200, 3), Graph(40, [(0, v) for v in range(1, 40)])],
    ids=["path", "grid", "tree", "star"],
)
def test_sparse_cut_weighs_the_padded_gather_against_the_arc_scatter(g):
    # Sparse while SPARSE_FACTOR * |M| < (n + 2m) // W; the star's table
    # would pass the bound, so it has none and never goes sparse.
    width = 1 + max(len(nbrs) for nbrs in g.adjacency)
    work = (g.n + 2 * g.edge_count) // width
    if g.n * width > BeliefKernel.TABLE_BOUND * (g.n + 2 * g.edge_count):
        work = 0
    assert BeliefKernel(DistanceOracle(g))._cut == -(-work // BeliefKernel.SPARSE_FACTOR)


def test_run_game_builds_one_kernel_per_oracle(monkeypatch):
    # The first belief-tracking game on an oracle builds its kernel and later
    # ones reuse it; an untracked game builds none.
    built = []
    real_init = BeliefKernel.__init__
    monkeypatch.setattr(
        BeliefKernel, "__init__", lambda self, oracle: built.append(oracle) or real_init(self, oracle)
    )
    g = gen_grid(4, 5)
    oracle = DistanceOracle(g)
    for seed in range(3):
        run_game(g, StayCat(g), StationaryMouse(seed), 6, oracle=oracle)
    assert built == []
    for seed in range(3):
        run_game(g, SweepCat(g), RandomWalkMouse(seed), 6, track_belief=True, oracle=oracle)
    assert built == [oracle]
    kernel = engine._kernels[oracle]
    src, dst = kernel._src, kernel._dst
    assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
        (u, v) for v in range(g.n) for u in g.adjacency[v]
    )
    # the kernel holds no reference to its oracle, so the map frees both
    gone = weakref.ref(oracle)
    del oracle, built[:]
    gc.collect()
    assert gone() is None and kernel not in engine._kernels.values()


def column_gather_radius(oracle, members):
    """The radius path `mask_radius` replaced, kept as its reference: every
    vertex's eccentricity over M from the columns of the full matrix."""
    cols = np.flatnonzero(members)
    worst = oracle.full_matrix().take(cols, axis=1).max(axis=1)
    center = int(worst.argmin())
    return int(worst[center]), center


@st.composite
def radius_cases(draw):
    kind = draw(st.sampled_from(("tree", "chords", "cycle", "grid", "path ends", "antipodes")))
    members = None
    if kind in ("tree", "chords"):
        g = gen_random_tree(draw(st.integers(2, 40)), draw(st.integers(0, 2**20)))
        if kind == "chords":
            pairs = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))
            extra = {(min(p), max(p)) for p in draw(st.lists(pairs, max_size=20)) if p[0] != p[1]}
            g = Graph(g.n, sorted(set(g.edges()) | extra))
    elif kind == "cycle":
        g = gen_cycle(draw(st.integers(3, 120)))
    elif kind == "grid":
        g = gen_grid(draw(st.integers(1, 8)), draw(st.integers(2, 8)))
    elif kind == "path ends":
        # the two middle vertices of an even path tie on the least bound
        g = gen_path(2 * draw(st.integers(1, 60)))
        members = {0, g.n - 1}
    else:
        # two antipodes of an even cycle: both vertices halfway between tie
        g = gen_cycle(2 * draw(st.integers(2, 60)))
        x = draw(st.integers(0, g.n - 1))
        members = {x, (x + g.n // 2) % g.n}
    size = "given" if members is not None else draw(st.sampled_from(("one", "all", "some")))
    if size == "one":
        members = {draw(st.integers(0, g.n - 1))}
    elif size == "all":
        members = set(range(g.n))
    elif size == "some":
        members = draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    return g, members, draw(st.sampled_from((1, 2, 5, 64))), draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(case=radius_cases())
def test_mask_radius_matches_column_gather_and_solver(case):
    """Pruned radius and centre equal the column gather's on any non-empty
    set of a tree, a tree with chords, a cycle or a grid, and on sets where
    several vertices tie on the least lower bound (the centre is the lowest
    of them), under any evaluation budget (a budget of 1 always takes the
    dense fallback), with or without the matrix, through `mask_radius` and
    `set_radius` alike; the radius also equals the solver's brute force on
    graphs it accepts."""
    g, members, budget, with_matrix = case
    arr = np.zeros(g.n, dtype=bool)
    arr[list(members)] = True
    oracle = DistanceOracle(g)
    oracle.radius_eval_budget = budget
    if with_matrix:
        oracle.full_matrix()
    got = mask_radius(oracle, arr)
    assert got == column_gather_radius(DistanceOracle(g), arr)
    assert mask_radius(oracle, arr) == got  # the cached M = V answer too
    assert oracle.set_radius(arr) == got
    if g.n <= solver.GameSolver.MAX_N:
        assert got[0] == solver._radius_of(g, solver._DistCache(g), sorted(members))


class _CountingOracle(DistanceOracle):
    def __init__(self, g):
        super().__init__(g)
        self.row_calls = 0

    def row(self, v):
        self.row_calls += 1
        return super().row(v)


def test_mask_radius_falls_back_to_dense_where_pruning_cannot_cut():
    # On a cycle almost every vertex has eccentricity n/2 over V minus one
    # vertex, and a bound from a few members' rows stays below that on most
    # vertices; after the budget of evaluations the answer takes one row per
    # member.
    g = gen_cycle(200)
    arr = np.ones(g.n, dtype=bool)
    arr[0] = False
    oracle = _CountingOracle(g)
    assert mask_radius(oracle, arr) == column_gather_radius(DistanceOracle(g), arr)
    assert oracle.row_calls >= oracle.radius_eval_budget + arr.sum()


def test_mask_radius_of_whole_graph_is_cached_per_oracle():
    g = gen_grid(9, 9)
    oracle = _CountingOracle(g)
    whole = np.ones(g.n, dtype=bool)
    assert mask_radius(oracle, whole) == (8, 40)
    calls = oracle.row_calls
    assert mask_radius(oracle, whole) == (8, 40)
    assert oracle.row_calls == calls


def test_mask_radius_rejects_empty_and_out_of_range_sets():
    # The set is a bool mask of shape (n,).  An all-False mask is empty; an
    # id array (one holding -1 is never wrapped), a non-bool array and a mask
    # of any other shape are refused, each naming the shape it needs.
    oracle = DistanceOracle(gen_path(5))
    with pytest.raises(GraphError, match=r"non-empty bool mask of shape \(5,\)"):
        mask_radius(oracle, np.zeros(5, dtype=bool))
    refused = (
        np.array([-1, 2]),
        np.array([3, 5]),
        np.array([0, -1, 2, 3, 4]),
        np.ones(5, dtype=np.int8),
        np.ones(5),
        np.ones(4, dtype=bool),
        np.ones(6, dtype=bool),
        np.ones((1, 5), dtype=bool),
    )
    for arr in refused:
        with pytest.raises(GraphError, match=r"bool mask of shape \(5,\)"):
            oracle.set_radius(arr)
    # a bool array is read as a mask, never as ids: True is not vertex 1
    ends = np.array([True, False, False, False, True])
    assert oracle.set_radius(ends) == (2, 2)


def _kernel_keeping(kept):
    """A stand-in for `BeliefKernel.update_bool` that returns `kept`."""

    def update_bool(self, members, row_prev, row_cur, bit):
        out = np.zeros_like(members)
        out[list(kept)] = True
        return out

    return update_bool


class TestRunGame:
    def test_an_emptied_belief_set_is_illegal_feedback(self, monkeypatch):
        monkeypatch.setattr(BeliefKernel, "update_bool", _kernel_keeping(()))
        g = gen_path(5)
        with pytest.raises(IllegalFeedbackError, match="belief set emptied at step 2"):
            run_game(g, StayCat(g), StationaryMouse(3), 3, track_belief=True, oracle=DistanceOracle(g))

    def test_a_belief_set_without_the_mouse_is_a_game_error(self, monkeypatch):
        monkeypatch.setattr(BeliefKernel, "update_bool", _kernel_keeping((0, 1)))
        g = gen_path(5)
        with pytest.raises(GameError, match="step 2: true mouse position 3 fell out") as info:
            run_game(g, StayCat(g), StationaryMouse(3), 3, track_belief=True, oracle=DistanceOracle(g))
        assert not isinstance(info.value, IllegalFeedbackError)

    def test_horizon_one_radius_is_whole_graph(self):
        g = gen_grid(3, 3)
        tr = run_game(
            g, StayCat(g), StationaryMouse(4), 1, track_belief=True, oracle=DistanceOracle(g)
        )
        assert tr.belief_radius[1] == mask_radius(DistanceOracle(g), np.ones(g.n, dtype=bool))[0]

    def test_tracks_radius_without_the_matrix_beyond_its_size(self):
        g = gen_path(5000)  # its n rows are over DistanceOracle.row_bytes
        oracle = DistanceOracle(g)
        tr = run_game(
            g, SweepCat(g), RandomWalkMouse(3), 4, track_belief=True, oracle=oracle
        )
        assert oracle._matrix is None
        assert tr.belief_radius[1] == 2500 and tr.belief_center[1] == 2499
        for i in range(1, 5):
            members = np.flatnonzero(tr.belief_members(i))
            ecc = [max(abs(v - w) for w in (members[0], members[-1])) for v in range(g.n)]
            assert (tr.belief_radius[i], tr.belief_center[i]) == (min(ecc), ecc.index(min(ecc)))

    def test_stationary_mouse_constant_queries_all_ones(self):
        g = gen_cycle(8)
        tr = run_game(g, ScriptedCat([5] * 6), StationaryMouse(2), 6, oracle=DistanceOracle(g))
        assert tr.b[2:] == [1, 1, 1, 1, 1]

    def test_p5_sweep_closes_in(self):
        g = gen_path(5)
        tr = run_game(g, SweepCat(g), StationaryMouse(4), 5, oracle=DistanceOracle(g))
        assert tr.b[2:] == [1, 1, 1, 1]

    def test_rule_violation_names_step(self):
        g = gen_path(5)
        with pytest.raises(RuleViolationError, match="step 3"):
            run_game(g, StayCat(g), ScriptedMouse([0, 1, 4, 4]), 4, oracle=DistanceOracle(g))

    @pytest.mark.parametrize("start", [5, -1])
    def test_mouse_start_out_of_range_names_step_one(self, start):
        g = gen_path(5)
        with pytest.raises(RuleViolationError, match=f"step 1: mouse start {start} out of range"):
            run_game(g, StayCat(g), ScriptedMouse([start]), 3, oracle=DistanceOracle(g))

    @pytest.mark.parametrize(
        "queries, step, bad", [([5], 1, 5), ([-1], 1, -1), ([0, 1, 7], 3, 7), ([2, -3], 2, -3)]
    )
    def test_cat_query_out_of_range_names_its_step(self, queries, step, bad):
        g = gen_path(5)
        with pytest.raises(RuleViolationError, match=f"step {step}: cat query {bad} out of range"):
            run_game(g, ScriptedCat(queries), StationaryMouse(2), 4, oracle=DistanceOracle(g))

    @pytest.mark.parametrize(
        "queries, path, step, bad", [([5], [5], 1, 5), ([0, 1, 7], [0, 1, 4], 3, 7)]
    )
    def test_cat_error_comes_before_mouse_error_at_one_step(self, queries, path, step, bad):
        # The cat queries before the mouse moves, so when both break the
        # rules at one step the cat's violation is the one reported.
        g = gen_path(5)
        with pytest.raises(RuleViolationError, match=f"step {step}: cat query {bad} out of range"):
            run_game(g, ScriptedCat(queries), ScriptedMouse(path), 4, oracle=DistanceOracle(g))

    @pytest.mark.parametrize("cached", [False, True])
    def test_non_integer_cat_query_is_a_rule_violation(self, cached):
        # 1.0 == 1 passes a range check; whether row(1) is stored must not
        # decide what happens.
        g = gen_path(5)
        oracle = DistanceOracle(g)
        if cached:
            oracle.row(1)
        with pytest.raises(RuleViolationError, match=r"step 2: cat query 1\.0 is not an integer"):
            run_game(g, ScriptedCat([0, 1.0]), StationaryMouse(2), 4, oracle=oracle)

    def test_non_integer_mouse_move_is_a_rule_violation(self):
        # 2.0 == 2, so a membership test finds it among the neighbors of 1.
        g = gen_path(5)
        with pytest.raises(RuleViolationError, match=r"step 2: mouse move 2\.0 is not an integer"):
            run_game(g, StayCat(g), ScriptedMouse([1, 2.0]), 3, oracle=DistanceOracle(g))

    def test_numpy_integer_moves_are_stored_as_python_ints(self):
        g = gen_path(5)
        tr = run_game(
            g,
            ScriptedCat(np.arange(4, dtype=np.int64)),
            ScriptedMouse(np.array([2, 3, 3, 4], dtype=np.int32)),
            4,
            oracle=DistanceOracle(g),
        )
        assert tr.c[1:] == [0, 1, 2, 3] and tr.m[1:] == [2, 3, 3, 4]
        assert all(type(v) is int for v in tr.c[1:] + tr.m[1:])
        assert tr.to_json()

    def test_mouse_sees_this_steps_query(self):
        class RecordingMouse(RandomWalkMouse):
            def next_move(self, view):
                if view.step == 1:
                    self.seen = [None]
                self.seen.append(view.c[view.step])
                return super().next_move(view)

        g = gen_grid(3, 4)
        mouse = RecordingMouse(4)
        tr = run_game(g, SeededRandomCat(g, 7), mouse, 12, oracle=DistanceOracle(g))
        assert mouse.seen == tr.c

    @pytest.mark.parametrize("h", [1, 2, 12])
    def test_cat_gets_one_next_query_call_per_step(self, h):
        # next_query is a cat's one query method: the call for c_i gets
        # b_{i-1}, so the arguments are None, None, b_2, ..., b_{h-1}.
        class RecordingCat(SeededRandomCat):
            def __init__(self, g, seed):
                super().__init__(g, seed)
                self.seen = []

            def next_query(self, bit):
                self.seen = self.seen + [bit]
                return super().next_query(bit)

        g = gen_grid(3, 4)
        cat = RecordingCat(g, 7)
        tr = run_game(g, cat, RandomWalkMouse(4), h, oracle=DistanceOracle(g))
        assert len(cat.seen) == h
        assert cat.seen == tr.b[:h]

    @pytest.mark.parametrize("h", [1, 2, 12])
    def test_mouse_gets_one_next_move_call_per_step(self, h):
        # next_move is a mouse's one method: the call at step 1 places it,
        # and the call for m_i sees m_1..m_{i-1}.  A leftover
        # first_position is never called.
        class RecordingMouse(MouseStrategy):
            def __init__(self):
                self.seen = []

            def first_position(self, view):
                raise AssertionError("first_position called")

            def next_move(self, view):
                self.seen = self.seen + [(view.step, len(view.m))]
                return 2 if view.step == 1 else view.m[-1]

        g = gen_path(5)
        mouse = RecordingMouse()
        tr = run_game(g, StayCat(g), mouse, h, oracle=DistanceOracle(g))
        assert mouse.seen == [(i, i) for i in range(1, h + 1)]
        assert tr.m == [None] + [2] * h

    def test_mouse_always_in_belief(self):
        g = gen_grid(3, 4)
        for seed in range(8):
            tr = run_game(
                g,
                SeededRandomCat(g, seed),
                RandomWalkMouse(seed + 50),
                10,
                track_belief=True,
                oracle=DistanceOracle(g),
            )
            for i in range(1, 11):
                assert tr.belief_members(i)[tr.m[i]]

    def test_belief_matches_trajectory_enumeration(self):
        g = gen_path(4)
        tr = run_game(
            g, SeededRandomCat(g, 3), RandomWalkMouse(9), 4, track_belief=True,
            oracle=DistanceOracle(g)
        )
        expected = beliefs_by_trajectory_enumeration(
            g, tr.c[1:], [tr.b[i] for i in range(2, 5)]
        )
        for i in range(1, 5):
            assert set(members_of(tr.belief_members(i))) == expected[i - 1]

    def test_monotone_evidence_under_side_information(self):
        # Intersecting each step with side information can only shrink the
        # belief set; the unconstrained DP must stay a superset.
        g = gen_grid(3, 3)
        oracle = DistanceOracle(g)
        tr = run_game(
            g, SeededRandomCat(g, 1), RandomWalkMouse(2), 8,
            track_belief=True, oracle=oracle,
        )
        side = np.arange(g.n) % 2 == 0
        kernel = BeliefKernel(oracle)
        constrained = tr.belief_members(1) & side
        for i in range(2, 9):
            constrained = kernel.update_bool(
                constrained, oracle.row(tr.c[i - 1]), oracle.row(tr.c[i]), tr.b[i]
            )
            constrained &= side
            assert not (constrained & ~tr.belief_members(i)).any()

    def test_deterministic_transcripts(self):
        g = gen_random_tree(40, seed=8)
        runs = [
            run_game(
                g, SeededRandomCat(g, 5), RandomWalkMouse(6), 12,
                track_belief=True, graph_spec="rt:n=40,seed=8",
                meta={"seed": 5},
                oracle=DistanceOracle(g),
            ).to_json()
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_replaying_bits_reproduces_them(self):
        g = gen_grid(4, 4)
        oracle = DistanceOracle(g)
        tr = run_game(g, SeededRandomCat(g, 11), RandomWalkMouse(12), 15, oracle=oracle)
        bits = [None, None] + [
            feedback_bit(
                oracle.distance(tr.c[i - 1], tr.m[i - 1]),
                oracle.distance(tr.c[i], tr.m[i]),
            )
            for i in range(2, 16)
        ]
        assert bits == tr.b

    def test_clone_cat_does_not_mutate_live_cat(self):
        g = gen_path(6)

        class PeekingMouse(StationaryMouse):
            def next_move(self, view):
                sim = view.clone_cat()
                for _ in range(4):
                    sim.next_query(1)
                return super().next_move(view)

        tr1 = run_game(g, SweepCat(g), PeekingMouse(3), 6, oracle=DistanceOracle(g))
        tr2 = run_game(g, SweepCat(g), StationaryMouse(3), 6, oracle=DistanceOracle(g))
        assert tr1.c == tr2.c

    def test_bad_horizon(self):
        g = gen_path(3)
        with pytest.raises(GameError):
            run_game(g, StayCat(g), StationaryMouse(0), 0, oracle=DistanceOracle(g))

    def test_radius_needs_beliefs(self):
        g = gen_path(3)
        with pytest.raises(GameError, match="track_radius=True needs track_belief=True"):
            run_game(
                g, StayCat(g), StationaryMouse(0), 2, track_radius=True, oracle=DistanceOracle(g)
            )


class TestLocalizationReport:
    def test_already_localized_at_step_one(self):
        g = gen_path(5)
        tr = run_game(
            g, StayCat(g), StationaryMouse(4), 3, track_belief=True, oracle=DistanceOracle(g)
        )
        rad_v = mask_radius(DistanceOracle(g), np.ones(5, dtype=bool))[0]
        rep = localization_report(tr, rad_v)
        assert rep.first_success_step == 1

    def test_impossible_distance_is_absent(self):
        g = gen_path(5)
        tr = run_game(
            g, StayCat(g), StationaryMouse(4), 3, track_belief=True, oracle=DistanceOracle(g)
        )
        rep = localization_report(tr, -1)
        assert rep.first_success_step is None
        assert rep.min_radius >= 0

    def test_requires_tracked_beliefs(self):
        g = gen_path(5)
        tr = run_game(g, StayCat(g), StationaryMouse(4), 3, oracle=DistanceOracle(g))
        with pytest.raises(GameError):
            localization_report(tr, 1)

    def test_min_radius_and_argmin(self):
        g = gen_path(9)
        tr = run_game(
            g, SweepCat(g), StationaryMouse(8), 9, track_belief=True, oracle=DistanceOracle(g)
        )
        rep = localization_report(tr, -1)
        assert rep.min_radius == min(tr.belief_radius[1:])
        assert tr.belief_radius[rep.argmin_step] == rep.min_radius


class TestTranscript:
    def test_one_based_null_padding(self):
        g = gen_path(4)
        tr = run_game(
            g, StayCat(g), StationaryMouse(1), 3, track_belief=True, oracle=DistanceOracle(g)
        )
        assert tr.c[0] is None and tr.m[0] is None
        assert tr.b[0] is None and tr.b[1] is None
        payload = tr.to_dict()
        assert payload["c"][0] is None
        assert len(payload["c"]) == 4

    def test_json_is_stable(self):
        g = gen_path(4)
        tr = run_game(
            g, StayCat(g), StationaryMouse(1), 3, track_belief=True, oracle=DistanceOracle(g)
        )
        assert tr.to_json() == tr.to_json()

    def test_belief_members_steps(self):
        g = gen_path(4)
        tr = run_game(
            g, StayCat(g), StationaryMouse(1), 3, track_belief=True, oracle=DistanceOracle(g)
        )
        assert tr.belief_members(1).all() and len(tr.belief_members(1)) == 4
        for i in (0, -1, 4):
            with pytest.raises(GameError, match=f"step {i} out of range 1..3"):
                tr.belief_members(i)
        untracked = run_game(g, StayCat(g), StationaryMouse(1), 3, oracle=DistanceOracle(g))
        with pytest.raises(GameError, match="did not track beliefs"):
            untracked.belief_members(1)


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
        oracle=DistanceOracle(g),
    )
    for i in range(1, 9):
        assert tr.belief_members(i)[tr.m[i]]
