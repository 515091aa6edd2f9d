"""Graph core: metric, covers, thin levels, generators, edge-list I/O."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catmouse import graphs
from catmouse.cats import SweepCat
from catmouse.engine import mask_radius, run_game
from catmouse.graphs import (
    BallCover,
    DistanceOracle,
    Graph,
    GraphError,
    ParseError,
    SpiderSpec,
    bfs_distances,
    ceil_sqrt,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_random_tree,
    gen_spider,
    parse_graph,
    parse_graph_spec,
    read_int,
    read_spec,
    scattered_cover,
    sphere,
    write_graph,
)
from catmouse.mice import RandomWalkMouse


def thin_level(oracle: DistanceOracle, v: int, K: int) -> int | None:
    """Reference for `DistanceOracle.thin_levels`: the smallest level l with
    1 <= l < K whose sphere around v has size < l/4 (the exact integer test
    4*|sphere| < l), or None when no such level exists below K."""
    counts = np.bincount(oracle.row(v), minlength=K)
    for level in range(1, K):
        if 4 * int(counts[level]) < level:
            return level
    return None


def floyd_warshall(g: Graph) -> np.ndarray:
    """Independent all-pairs oracle for cross-checking BFS distances."""
    big = 10**6
    D = np.full((g.n, g.n), big, dtype=np.int64)
    np.fill_diagonal(D, 0)
    for u, v in g.edges():
        D[u, v] = D[v, u] = 1
    for k in range(g.n):
        np.minimum(D, D[:, k : k + 1] + D[k : k + 1, :], out=D)
    return D


def exhaustive_radius(g: Graph, members) -> tuple[int, int]:
    """Brute-force min-max radius over every candidate center."""
    D = floyd_warshall(g)
    members = sorted(members)
    best = None
    best_v = None
    for v in range(g.n):
        worst = max(int(D[v, w]) for w in members)
        if best is None or worst < best:
            best, best_v = worst, v
    return best, best_v


CORPUS = [
    gen_path(5),
    gen_path(9),
    gen_cycle(10),
    gen_grid(3, 4),
    gen_random_tree(30, seed=4),
    gen_spider(SpiderSpec(4, 3)),
]


class TestGraphConstruction:
    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 0), (3, 0), (1, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        for u in range(g.n):
            for v in g.adjacency[u]:
                assert u in g.adjacency[v]

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(2, [(0, 0), (0, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_disconnected(self):
        with pytest.raises(GraphError, match=r"disconnected \(2 of 4 reachable\)"):
            Graph(4, [(0, 1), (2, 3)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph(2, [(0, 5)])


class TestBfs:
    def test_path_p3(self):
        assert list(bfs_distances(gen_path(3), 0)) == [0, 1, 2]

    @pytest.mark.parametrize("g", CORPUS)
    def test_source_entry_is_zero(self, g):
        for s in range(0, g.n, max(1, g.n // 5)):
            assert bfs_distances(g, s)[s] == 0

    def test_spider_tip_to_tip(self):
        sp = SpiderSpec(12, 0)
        g = gen_spider(sp)
        tip1 = sp.vertex_at(1, 12)
        tip2 = sp.vertex_at(2, 12)
        assert bfs_distances(g, tip1)[tip2] == 24
        D = floyd_warshall(g)
        for s in (0, tip1, tip2, 5):
            assert np.array_equal(bfs_distances(g, s), D[s])

    def test_source_out_of_range(self):
        with pytest.raises(GraphError):
            bfs_distances(gen_path(3), 7)


def radius_of_set(g: Graph, members) -> tuple[int, int]:
    """Radius and lowest-id center of a vertex set, through the engine's
    `mask_radius`."""
    mask = np.zeros(g.n, dtype=bool)
    mask[list(members)] = True
    return mask_radius(DistanceOracle(g), mask)


class TestSetRadius:
    def test_singleton(self):
        g = gen_path(5)
        assert radius_of_set(g, [3]) == (0, 3)

    def test_p5_endpoints(self):
        g = gen_path(5)
        assert radius_of_set(g, [0, 4]) == (2, 2)
        assert radius_of_set(g, [0, 4]) == exhaustive_radius(g, [0, 4])

    def test_p5_all_vertices(self):
        g = gen_path(5)
        assert radius_of_set(g, range(5)) == (2, 2)

    def test_duplicate_ids_do_not_poison_the_whole_set_cache(self):
        # n ids with repeats are not V: their radius is that of {0, 1, 2},
        # and the cached radius of V stays that of V.
        oracle = DistanceOracle(gen_path(5))
        assert oracle.set_radius(np.array([0, 1, 2, 0, 1])) == (1, 1)
        assert oracle.set_radius(np.arange(5)) == (2, 2)
        assert oracle.set_radius(np.array([0, 1, 2, 0, 1])) == (1, 1)

    @pytest.mark.parametrize("g", CORPUS)
    def test_matches_exhaustive_oracle(self, g):
        samples = [
            [0],
            [0, g.n - 1],
            list(range(0, g.n, 3)),
            list(range(g.n)),
        ]
        for members in samples:
            assert radius_of_set(g, members) == exhaustive_radius(g, members)


class TestDiameter:
    def test_examples(self):
        assert DistanceOracle(gen_path(5)).diameter() == 4
        star = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert DistanceOracle(star).diameter() == 2
        assert DistanceOracle(gen_spider(SpiderSpec(12, 0))).diameter() == 24

    @pytest.mark.parametrize("g", CORPUS)
    def test_matches_floyd_warshall(self, g):
        assert DistanceOracle(g).diameter() == int(floyd_warshall(g).max())


class TestSphere:
    def test_level_zero(self):
        for g in CORPUS:
            assert sphere(DistanceOracle(g), 2, 0) == (2,)

    def test_cycle_symmetry(self):
        oracle = DistanceOracle(gen_cycle(10))
        for v in range(10):
            got = sphere(oracle, v, 3)
            assert len(got) == 2 and all(type(w) is int for w in got)

    def test_beyond_eccentricity_empty(self):
        assert sphere(DistanceOracle(gen_path(5)), 0, 10) == ()

    def test_negative_level_rejected(self):
        with pytest.raises(GraphError):
            sphere(DistanceOracle(gen_path(5)), 0, -1)


class TestScatteredCover:
    def test_separation_one_takes_everything(self):
        cover = scattered_cover(DistanceOracle(gen_path(7)), 1)
        assert cover.centers == tuple(range(7))
        assert cover.radius_k == 0

    def test_p100_spacing(self):
        cover = scattered_cover(DistanceOracle(gen_path(100)), 10)
        assert cover.centers == tuple(range(0, 100, 10))
        assert cover.radius_k == 9

    def test_above_diameter_single_center(self):
        for g in CORPUS:
            oracle = DistanceOracle(g)
            cover = scattered_cover(oracle, oracle.diameter() + 1)
            assert cover.centers == (0,)

    @pytest.mark.parametrize("g", CORPUS)
    @pytest.mark.parametrize("separation", [1, 2, 5])
    def test_cover_invariants(self, g, separation):
        oracle = DistanceOracle(g)
        cover = scattered_cover(oracle, separation)
        cover.validate(oracle)
        for i, u in enumerate(cover.centers):
            row = oracle.row(u)
            assert all(row[v] >= separation for v in cover.centers[i + 1 :])
        assert cover.count <= max(1, 2 * g.n // separation)

    def test_greedy_matches_hand_scan(self):
        g = gen_grid(4, 5)
        oracle = DistanceOracle(g)
        separation = 3
        chosen = []
        for v in range(g.n):
            if all(oracle.distance(v, c) >= separation for c in chosen):
                chosen.append(v)
        assert scattered_cover(oracle, separation).centers == tuple(chosen)

    def test_bad_separation(self):
        with pytest.raises(GraphError):
            scattered_cover(DistanceOracle(gen_path(5)), 0)


class TestBallCover:
    def test_validate_rejects_uncovered(self):
        oracle = DistanceOracle(gen_path(10))
        with pytest.raises(GraphError, match="distance"):
            BallCover(centers=(0,), radius_k=2).validate(oracle)


class TestThinLevel:
    def test_path_endpoint(self):
        assert DistanceOracle(gen_path(50)).thin_levels(50)[0] == 5

    def test_cycle(self):
        oracle = DistanceOracle(gen_cycle(50))
        for v in (0, 13, 49):
            assert oracle.thin_levels(50)[v] == 9

    def test_empty_range(self):
        assert DistanceOracle(gen_path(5)).thin_levels(1)[0] == -1

    @pytest.mark.parametrize("g", CORPUS)
    def test_matches_direct_sphere_scan(self, g):
        oracle = DistanceOracle(g)
        K = g.n + 2
        for v in range(0, g.n, max(1, g.n // 6)):
            expected = None
            for level in range(1, K):
                if 4 * len(sphere(oracle, v, level)) < level:
                    expected = level
                    break
            assert thin_level(oracle, v, K) == expected
            assert oracle.thin_levels(K)[v] == (-1 if expected is None else expected)

    def test_existence_at_three_sqrt_n(self):
        for g in CORPUS:
            if g.n < 9:
                continue
            K = ceil_sqrt(9 * g.n)
            assert (DistanceOracle(g).thin_levels(K) >= 0).all()


class TestSpider:
    def test_counts(self):
        assert gen_spider(SpiderSpec(12, 0)).n == 145
        g = gen_spider(SpiderSpec(12, 7))
        assert g.n == 152
        assert len(g.adjacency[0]) == 13
        assert g.edge_count == g.n - 1

    def test_t1_is_p2(self):
        assert gen_spider(SpiderSpec(1, 0)) == gen_path(2)

    def test_one_graph_per_spec(self):
        assert gen_spider(SpiderSpec(5, 2)) is gen_spider(SpiderSpec(5, 2))

    def test_layout_roundtrip(self):
        sp = SpiderSpec(5, 2)
        g = gen_spider(sp)
        assert sp.branch_of(0) is None
        for branch in range(1, 6):
            for depth in range(1, 6):
                v = sp.vertex_at(branch, depth)
                assert sp.branch_of(v) == branch
                assert sp.depth_of(v) == depth
                assert bfs_distances(g, 0)[v] == depth
        assert sp.branch_of(g.n - 1) == 6  # padding branch
        assert sp.depth_of(g.n - 1) == 2

    def test_bad_spec(self):
        with pytest.raises(GraphError):
            SpiderSpec(0, 0)
        with pytest.raises(GraphError):
            SpiderSpec(3, -1)


class TestGenerators:
    def test_path(self):
        assert DistanceOracle(gen_path(5)).diameter() == 4

    def test_grid_counts(self):
        g = gen_grid(3, 3)
        assert (g.n, g.edge_count) == (9, 12)

    def test_random_tree_deterministic(self):
        a = gen_random_tree(100, seed=1)
        b = gen_random_tree(100, seed=1)
        assert a.edges() == b.edges()
        assert a.edge_count == 99

    def test_random_tree_seed_sensitivity(self):
        assert gen_random_tree(50, seed=1) != gen_random_tree(50, seed=2)

    def test_invalid_params(self):
        with pytest.raises(GraphError):
            gen_path(1)
        with pytest.raises(GraphError):
            gen_cycle(2)
        with pytest.raises(GraphError):
            gen_grid(1, 1)

    def test_spec_strings(self):
        g, canonical = parse_graph_spec("spider:t=12,extra=0")
        assert g.n == 145 and canonical == "spider:t=12,extra=0"
        g, canonical = parse_graph_spec("grid:3x4")
        assert g.n == 12 and canonical == "grid:3x4"
        g, canonical = parse_graph_spec("rt:n=100,seed=7")
        assert g.n == 100
        g, _ = parse_graph_spec("path:5")
        assert g.n == 5
        for bad, field in (
            ("torus:3x3", "torus"),
            ("path:x=5", "'x'"),
            ("path:", "'n'"),
            ("rt:n=ten,seed=1", "'n'"),
            ("spider:q=2", "'q'"),
            ("spider:t=3,t=4", "'t'"),
            ("spider:extra=1", "'t'"),
            ("rt:n=30,seed=2,", "''"),
            ("cycle:n=10,n=11", "'n'"),
            ("path:n=1", "bad value '1' for field 'n'"),
            ("cycle:n=2", "bad value '2' for field 'n'"),
            ("rt:n=1", "bad value '1' for field 'n'"),
            ("spider:t=0", "bad value '0' for field 't'"),
            ("spider:t=2,extra=-1", "bad value '-1' for field 'extra'"),
            ("grid:0x5", "bad value '0x5' for field 'shape'"),
            ("grid:1x1", "bad value '1x1' for field 'shape'"),
            ("path:n=1000001", "bad value '1000001' for field 'n'"),
            ("cycle:n=10000000", "bad value '10000000' for field 'n'"),
            ("rt:n=1000001,seed=3", "bad value '1000001' for field 'n'"),
            ("grid:1001x1000", "bad value '1001x1000' for field 'shape'"),
            ("grid:100000x100000", "bad value '100000x100000' for field 'shape'"),
            ("spider:t=1000", r"fields 't' and 'extra' make t\*t \+ 1 \+ extra = 1000001 "),
            ("spider:t=999,extra=1999", "fields 't' and 'extra' make .* = 1000001 "),
        ):
            with pytest.raises(GraphError, match=field):
                parse_graph_spec(bad)
        # The ceiling itself is allowed (read, not built).
        assert read_spec("path:n=1000000", graphs.GRAPH_KINDS) == ("path", {"n": 10**6})
        assert read_spec("grid:1000x1000", graphs.GRAPH_KINDS)[1] == {"shape": (1000, 1000)}

    def test_spec_keys_and_values_are_stripped(self):
        assert parse_graph_spec(" rt : n = 30 , seed = 2 ")[1] == "rt:n=30,seed=2"
        assert parse_graph_spec("grid: 3x4 ")[1] == "grid:3x4"

    def test_file_path_is_verbatim(self, tmp_path):
        path = tmp_path / "a,b=1 x.txt"
        path.write_text(write_graph(gen_path(4)))
        assert parse_graph_spec(f"file:{path}") == (gen_path(4), f"file:{path}")

    def test_bare_value_fills_the_first_field(self):
        assert parse_graph_spec("rt:30")[1] == "rt:n=30,seed=0"
        assert parse_graph_spec("spider:3,extra=1")[1] == "spider:t=3,extra=1"
        assert parse_graph_spec("grid:shape=2x5")[1] == "grid:2x5"
        with pytest.raises(GraphError, match="field 'n' given twice"):
            parse_graph_spec("path:5,n=5")

    @pytest.mark.parametrize(
        "spec, problem",
        [
            ("path:n=1_0", "bad value '1_0' for field 'n'"),
            ("spider:t=+12", "bad value '+12' for field 't'"),
            ("spider:t=\u0661\u0662", "bad value '\u0661\u0662' for field 't'"),
            ("grid:\u0663x\u0663", "bad value '\u0663x\u0663' for field 'shape'"),
            ("grid:3 x3", "bad value '3 x3' for field 'shape'"),
            ("grid:3x4x5", "bad value '3x4x5' for field 'shape'"),
            ("grid", "missing field 'shape'"),
            ("torus:3x3", "unknown kind 'torus' (allowed: path, cycle, grid, rt, spider, file)"),
        ],
    )
    def test_bad_specs_name_the_field(self, spec, problem):
        with pytest.raises(GraphError) as err:
            parse_graph_spec(spec)
        assert str(err.value) == f"spec {spec!r}: {problem}"

    def test_spec_dispatches_to_generators(self):
        assert parse_graph_spec("path:n=5") == (gen_path(5), "path:n=5")
        assert parse_graph_spec("cycle:6") == (gen_cycle(6), "cycle:n=6")
        assert parse_graph_spec("grid:3x3") == (gen_grid(3, 3), "grid:3x3")
        assert parse_graph_spec("rt:n=30,seed=2") == (gen_random_tree(30, 2), "rt:n=30,seed=2")
        assert parse_graph_spec("rt:n=30") == (gen_random_tree(30, 0), "rt:n=30,seed=0")
        with pytest.raises(GraphError):
            parse_graph_spec("hypercube:n=8")


class TestEdgeListIO:
    def test_parse_p3(self):
        assert parse_graph("3 2\n0 1\n1 2") == gen_path(3)

    def test_comments_ignored(self):
        text = "# a path\n3 2\n0 1\n# middle\n1 2\n"
        assert parse_graph(text) == gen_path(3)

    def test_self_loop_named_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("2 1\n0 0")

    def test_disconnected(self):
        with pytest.raises(ParseError, match="disconnected"):
            parse_graph("4 2\n0 1\n2 3")

    def test_duplicate_edge_named_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("3 3\n0 1\n1 0\n1 2")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_graph("2 1\nzero one")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 2\n0 1 2\n1 2\n", "line 2: expected two integers, got '0 1 2'"),
            ("# only\n\n# comments\n", "line 1: missing header 'n m'"),
            ("# empty\n0 0\n", "line 2: invalid header n=0 m=0"),
            ("3 3\n0 1\n1 2\n", "line 1: header declares 3 edges, found 2"),
            ("3 2\n0 1\n# next\n1 3\n", r"line 4: edge \(1,3\) out of range for n=3"),
            ("2 1\n0 +1\n", r"line 2: expected two integers, got '0 \+1'"),
            ("2 1\n0 1_0\n", "line 2: expected two integers, got '0 1_0'"),
            ("3 2\n0 1\n2 2\n", "line 3: self-loop at vertex 2"),
            ("3 3\n0 1\n1 2\n2 1\n", r"line 4: duplicate edge \(2,1\)"),
            ("4 3\n0 1\n1 2\n2 0\n", r"line 1: graph is disconnected \(3 of 4 reachable\)"),
        ],
        ids=[
            "three-tokens", "comments-only", "header-0-0", "edge-count", "edge-range",
            "plus-sign", "underscore", "self-loop", "duplicate", "disconnected",
        ],
    )
    def test_bad_text_names_the_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_graph(text)

    def test_too_few_edges_fail_at_the_header(self):
        # No adjacency list is built: Graph is never reached.
        with pytest.raises(ParseError, match="line 1: header declares 0 edges, and a graph on "
                           "1000000 vertices with fewer than 999999 edges is disconnected"):
            parse_graph("1000000 0\n")

    @pytest.mark.parametrize("g", CORPUS)
    def test_roundtrip(self, g):
        assert parse_graph(write_graph(g)) == g


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=40), seed=st.integers(0, 2**20))
def test_metric_axioms_on_random_trees(n, seed):
    g = gen_random_tree(n, seed)
    oracle = DistanceOracle(g)
    samples = [(0, n - 1), (n // 2, n // 3), (1 % n, (7 * seed) % n)]
    for u, v in samples:
        assert oracle.distance(u, v) == oracle.distance(v, u)
        assert (oracle.distance(u, v) == 0) == (u == v)
        w = (u + v) % n
        assert oracle.distance(u, w) <= oracle.distance(u, v) + oracle.distance(v, w)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=9, max_value=120), seed=st.integers(0, 2**20))
def test_thin_level_exists_for_random_trees(n, seed):
    g = gen_random_tree(n, seed)
    K = ceil_sqrt(9 * n)
    assert (DistanceOracle(g).thin_levels(K) >= 0).all()


@st.composite
def connected_graphs(draw):
    """A random tree, a tree with chords, a cycle or a grid."""
    kind = draw(st.sampled_from(("tree", "chords", "cycle", "grid")))
    if kind in ("tree", "chords"):
        g = gen_random_tree(draw(st.integers(2, 80)), draw(st.integers(0, 2**20)))
        if kind == "chords":
            pairs = st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1))
            extra = {(min(p), max(p)) for p in draw(st.lists(pairs, max_size=20)) if p[0] != p[1]}
            g = Graph(g.n, sorted(set(g.edges()) | extra))
        return g
    if kind == "cycle":
        return gen_cycle(draw(st.integers(3, 120)))
    return gen_grid(draw(st.integers(1, 8)), draw(st.integers(2, 8)))


@settings(max_examples=60, deadline=None)
@given(g=connected_graphs())
def test_thin_levels_table_matches_thin_level(g):
    oracle = DistanceOracle(g)
    n = g.n
    for K in (1, 2, ceil_sqrt(9 * n), n + 2):
        table = oracle.thin_levels(K)
        assert not table.flags.writeable
        got = [None if lvl < 0 else int(lvl) for lvl in table]
        assert got == [thin_level(oracle, v, K) for v in range(n)]
    with pytest.raises(GraphError, match="K must be >= 1"):
        oracle.thin_levels(0)


@settings(max_examples=200, deadline=None)
@given(g=connected_graphs())
def test_diameter_matches_floyd_warshall(g):
    assert DistanceOracle(g).diameter() == int(floyd_warshall(g).max())


@pytest.mark.parametrize(
    "spec, diameter, rows",
    [("path:n=2000", 1999, 3), ("grid:45x45", 88, 4), ("spider:t=24,extra=0", 48, 2)],
)
def test_set_up_tables_compute_pinned_bfs_row_counts(spec, diameter, rows, monkeypatch):
    """The thin table computes no BFS row and the diameter a pinned few, so
    a return to a row per vertex fails here exactly."""
    g, _ = parse_graph_spec(spec)
    computed = []
    bfs = graphs.bfs_distances
    monkeypatch.setattr(graphs, "bfs_distances", lambda h, v: computed.append(v) or bfs(h, v))
    oracle = DistanceOracle(g)
    oracle.thin_levels(g.n + 2)
    assert computed == []
    assert oracle.diameter() == diameter
    assert len(computed) == rows


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=2, max_value=60), seed=st.integers(0, 2**20))
def test_roundtrip_on_random_trees(n, seed):
    g = gen_random_tree(n, seed)
    assert parse_graph(write_graph(g)) == g


class TestDistanceOracle:
    def test_rows_match_full_matrix(self):
        g = gen_grid(4, 4)
        lazy = DistanceOracle(g)
        rows = [lazy.row(v).copy() for v in range(g.n)]
        # Ids out of range fail alike before and after the matrix exists.
        for v in (-1, g.n):
            with pytest.raises(GraphError, match=f"source {v} out of range"):
                lazy.distance(v, 0)
            with pytest.raises(GraphError, match=f"target {v} out of range"):
                lazy.distance(0, v)
        assert np.array_equal(np.stack(rows), lazy.full_matrix())
        for v in (-1, g.n):
            with pytest.raises(GraphError, match=f"source {v} out of range"):
                lazy.distance(v, 0)
            with pytest.raises(GraphError, match=f"target {v} out of range"):
                lazy.distance(0, v)

    def test_full_matrix_threshold(self, monkeypatch):
        monkeypatch.setattr(DistanceOracle, "row_bytes", 10 * 10 * 4)  # n <= 10
        g = gen_path(20)
        oracle = DistanceOracle(g)
        with pytest.raises(GraphError, match="threshold"):
            oracle.full_matrix()
        assert oracle.distance(0, 19) == 19  # rows still work

    def test_row_cache_eviction_keeps_answers_right(self, monkeypatch):
        monkeypatch.setattr(DistanceOracle, "row_bytes", 2 * 30 * 4)  # two rows
        g = gen_path(30)
        oracle = DistanceOracle(g)
        for v in range(30):
            assert oracle.distance(v, 0) == v
        assert oracle.distance(29, 0) == 29

    def test_row_store_stays_within_its_byte_budget(self, monkeypatch):
        g, spec = parse_graph_spec("path:n=300")
        monkeypatch.setattr(DistanceOracle, "row_bytes", 7 * g.n * 4)  # seven rows
        oracle = DistanceOracle(g)
        stored, wrong = [], []
        read = DistanceOracle.row

        def row(self, v):
            out = read(self, v)
            if not np.array_equal(out, np.abs(np.arange(g.n) - v)):
                wrong.append(v)
            stored.append(sum(r.nbytes for r in self._rows.values()))
            return out

        monkeypatch.setattr(DistanceOracle, "row", row)
        tr = run_game(
            g, SweepCat(g), RandomWalkMouse(1), 300, track_belief=True,
            oracle=oracle, graph_spec=spec,
        )
        assert not wrong
        assert max(stored) == DistanceOracle.row_bytes  # full, and evicting
        monkeypatch.undo()
        unbounded = DistanceOracle(g)
        assert tr.to_dict() == run_game(
            g, SweepCat(g), RandomWalkMouse(1), 300, track_belief=True,
            oracle=unbounded, graph_spec=spec,
        ).to_dict()
        assert len(unbounded._rows) > 7

    def test_a_hit_reads_only_the_store(self):
        g = gen_path(8)
        oracle = DistanceOracle(g)
        rows = [oracle.row(v) for v in range(g.n)]
        oracle.graph = oracle._lock = None  # a hit checks nothing and locks nothing
        assert all(oracle.row(v) is rows[v] for v in range(g.n))

    def test_full_matrix_rows_serve_every_read(self, monkeypatch):
        g = gen_grid(5, 6)
        oracle = DistanceOracle(g)
        oracle.row(3)
        mat = oracle.full_matrix()
        computed = []
        bfs = graphs.bfs_distances
        monkeypatch.setattr(graphs, "bfs_distances", lambda h, v: computed.append(v) or bfs(h, v))
        for v in range(g.n):
            assert np.shares_memory(oracle.row(v), mat)
            assert oracle.distance(v, 0) == mat[v, 0]
        assert oracle.full_matrix() is mat
        assert computed == []

    def test_concurrent_readers(self, monkeypatch):
        g = gen_grid(6, 6)
        expected = floyd_warshall(g)
        # The default budget holds every row; three rows make evictions run
        # while the threads read, switching threads every few bytecodes.
        for budget in (DistanceOracle.row_bytes, 3 * g.n * 4):
            monkeypatch.setattr(DistanceOracle, "row_bytes", budget)
            oracle = DistanceOracle(g)
            failures = []

            def reader(start):
                for v in range(start, g.n, 4):
                    for w in range(g.n):
                        if oracle.distance(v, w) != expected[v, w]:
                            failures.append((v, w))

            threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(t.is_alive() for t in threads)
            assert not failures
            assert len(oracle._rows) * g.n * 4 <= budget


def test_ceil_sqrt_exact():
    assert ceil_sqrt(0) == 0
    assert ceil_sqrt(1) == 1
    assert ceil_sqrt(2) == 2
    assert ceil_sqrt(4) == 2
    assert ceil_sqrt(32 * 145) == 69
    assert ceil_sqrt(2 * 145) == 18
    for x in range(1, 500):
        r = ceil_sqrt(x)
        assert (r - 1) ** 2 < x <= r**2


class TestReaders:
    @pytest.mark.parametrize(
        "text, value", [("0", 0), ("12", 12), ("-3", -3), ("007", 7), ("-0", 0)]
    )
    def test_read_int_accepts_ascii_digits(self, text, value):
        assert read_int(text) == value

    @pytest.mark.parametrize(
        "text",
        ["", "-", "+2", "1_0", " 1", "1 ", "1.0", "1e3", "0x1f", "\u0661\u0662", "\u00b2", "--1"],
    )
    def test_read_int_rejects_everything_else(self, text):
        with pytest.raises(ValueError, match="not an integer"):
            read_int(text)

    def test_read_int_floor(self):
        assert read_int("1", 1) == 1
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            read_int("0", 1)
        assert read_int("-5", None) == -5

    def test_read_spec(self):
        kinds = {"a": {}, "b": {"x": (read_int, None), "y": (read_int, 4)}}
        assert read_spec("a", kinds) == ("a", {})
        assert read_spec(" b : y = 2 , x = 1 ", kinds) == ("b", {"y": 2, "x": 1})
        assert read_spec("b:9", kinds) == ("b", {"x": 9, "y": 4})
        for spec, problem in (
            ("c:x=1", "unknown kind 'c' (allowed: a, b)"),
            ("a:9", "field '9' is not key=value"),
            ("b:x=1,", "field '' is not key=value"),
            ("b", "missing field 'x'"),
        ):
            with pytest.raises(GraphError) as err:
                read_spec(spec, kinds)
            assert str(err.value) == f"spec {spec!r}: {problem}"
