"""Named verification suites: the acceptance bundle behind `catmouse verify`.

Each criterion check returns (ok, detail).  The same functions back the
pytest acceptance module, so the CLI and the test suite can never drift
apart.  Corpus games are experiment configs played by `experiment.play`,
through `run_experiment` for criteria 4 and 6; criteria 1, 2(a) and 7 play
small instances through `run_game`.  Corpus graphs and oracles come from
`experiment.corpus_graph`, which `verify_suite` empties before each
criterion, so a criterion's work does not depend on what ran before it.
"""

from __future__ import annotations

import itertools
import time
import traceback
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cats import BallCoverCat, SphereWalkCat, parse_cat_spec
from .engine import localization_report, run_game
from .experiment import ExperimentConfig, corpus_graph, play, run_experiment
from .graphs import (
    BallCover,
    DistanceOracle,
    Graph,
    GraphError,
    ceil_sqrt,
    gen_cycle,
    gen_grid,
    gen_path,
    gen_spider,
    parse_graph,
    scattered_cover,
    SpiderSpec,
    write_graph,
)
from .mice import ScriptedMouse, parse_mouse_spec
from .solver import (
    adversarial_record,
    consistent_trajectory,
    exhaustive_game_value,
    winning_bit_paths,
)


# ---------------------------------------------------------------------------
# Small-graph catalog for the oracle-equivalence and solver suites.

_SIX_VERTEX_EDGE_LISTS = [
    # paths, cycles, stars and a spread of denser shapes
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
    [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
    [(u, v) for u in range(6) for v in range(u + 1, 6)],
    [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)],
    [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 5), (2, 5), (3, 5), (4, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)],
    [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)],
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)],
    [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)],
]


@lru_cache(maxsize=1)
def small_connected_catalog() -> tuple[Graph, ...]:
    """Connected graphs on 2..5 vertices, exhaustive up to isomorphism, plus
    a fixed six-vertex dozen."""
    graphs: list[Graph] = []
    for n in range(2, 6):
        pairs = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        index_of = {pair: i for i, pair in enumerate(pairs)}
        remaps = []
        for perm in perms:
            remaps.append(
                [
                    index_of[tuple(sorted((perm[u], perm[v])))]
                    for (u, v) in pairs
                ]
            )
        seen: set[int] = set()
        for mask in range(1 << len(pairs)):
            try:
                g = Graph(n, [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1])
            except GraphError:
                continue  # disconnected
            canon = mask
            for remap in remaps:
                relabeled = 0
                sub = mask
                while sub:
                    low = sub & -sub
                    relabeled |= 1 << remap[low.bit_length() - 1]
                    sub ^= low
                if relabeled < canon:
                    canon = relabeled
            if canon in seen:
                continue
            seen.add(canon)
            graphs.append(g)
    graphs.extend(Graph(6, edges) for edges in _SIX_VERTEX_EDGE_LISTS)
    return tuple(graphs)


def _pair_roster(count: int):
    """Deterministic list of (cat spec, mouse spec, seed) combinations."""
    cat_kinds = ("sweep", "stay", "rand:seed={s}", "sqrt", "fat:c=1.0")
    mouse_kinds = ("stationary:seed={s}", "rw:seed={s}", "greedy:seed={s}")
    out = []
    for k in range(count):
        cat = cat_kinds[k % len(cat_kinds)].format(s=k)
        mouse = mouse_kinds[k % len(mouse_kinds)].format(s=k + 7)
        out.append((cat, mouse))
    return out


def _seeded_mice(count: int) -> list[tuple[int, str]]:
    """Mice of criteria 2(b) and 3: rw, greedy, stationary in turn, seed s."""
    return [(s, ("rw", "greedy", "stationary")[s % 3] + f":seed={s}") for s in range(count)]


def _games(graph: str, cat: str, horizon: int, mice, **track):
    """Play `cat` against each (seed, mouse spec) of `mice`; yields
    (`<graph> vs <mouse spec>`, cat, mouse, transcript or exception)."""
    for seed, mouse in mice:
        cfg = ExperimentConfig(graph=graph, cat=cat, mouse=mouse, horizon=horizon, seeds=(seed,))
        for _, _, played_cat, played_mouse, tr in play(cfg, **track):
            yield f"{graph} vs {mouse}", played_cat, played_mouse, tr


# ---------------------------------------------------------------------------
# Criterion 1: engine belief DP == brute-force reachability, set for set.

def check_oracle_equivalence(quick: bool = False) -> tuple[bool, str]:
    from .solver import brute_force_beliefs

    horizon = 6
    pairs = _pair_roster(10 if quick else 50)
    catalog = small_connected_catalog()
    games = 0
    for g in catalog:
        oracle = DistanceOracle(g)
        for cat_spec, mouse_spec in pairs:
            cat = parse_cat_spec(cat_spec, g, oracle)
            mouse = parse_mouse_spec(mouse_spec)
            tr = run_game(
                g, cat, mouse, horizon,
                track_belief=True, track_radius=False, oracle=oracle,
            )
            reference = brute_force_beliefs(
                g, tr.c[1:], [tr.b[i] for i in range(2, horizon + 1)]
            )
            for i in range(1, horizon + 1):
                if tr.beliefs[i] != reference[i]:
                    return False, (
                        f"belief mismatch at step {i} on n={g.n} graph with "
                        f"cat={cat_spec} mouse={mouse_spec}"
                    )
            games += 1
    return True, f"{games} games on {len(catalog)} graphs agree exactly"


# ---------------------------------------------------------------------------
# Criterion 2: ball-cover elimination bound 4L + k.

def _star(n: int) -> Graph:
    """A star on n vertices around center 0; no graph spec names one."""
    return Graph(n, [(0, i) for i in range(1, n)])


_FAT_EXHAUSTIVE = (
    ("path:n=9", gen_path(9), (2, 6), 2),
    ("path:n=10", gen_path(10), (1, 4, 8), 2),
    ("cycle:n=8", gen_cycle(8), (0, 4), 2),
    ("star10", _star(10), (1, 2), 2),
    ("grid:3x3", gen_grid(3, 3), (0, 8), 2),
)


def _lazy_walks(g: Graph, length: int):
    def extend(prefix: list[int]):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        u = prefix[-1]
        for v in (u, *g.adjacency[u]):
            prefix.append(v)
            yield from extend(prefix)
            prefix.pop()

    for start in range(g.n):
        yield from extend([start])


def check_fat_bound(quick: bool = False) -> tuple[bool, str]:
    # (a) exhaustive over every lazy walk on five fixed small instances
    checked = 0
    for spec, g, centers, k in _FAT_EXHAUSTIVE:
        oracle = DistanceOracle(g)
        cover = BallCover(centers=tuple(centers), radius_k=k)
        cat = BallCoverCat(oracle, cover)
        L = cover.count
        bound = 4 * L + k
        for traj in _lazy_walks(g, 2 * L):
            clone = cat.clone()
            run_game(g, clone, ScriptedMouse(traj), len(traj), oracle=oracle)
            champ = clone.champion_vertex
            dist = oracle.distance(champ, traj[2 * L - 2])
            if dist > bound:
                return False, (
                    f"{spec}: trajectory {traj} puts the mouse {dist} > {bound} "
                    f"from champion {champ}"
                )
            checked += 1

    # (b) randomized mice at scale, plus the belief-radius consequence
    # c * sqrt(2000) rounds up to separations 127, 20 and 10
    corpus = (
        ("path:n=2000", "fat:c=2.83"),
        ("grid:40x50", "fat:c=0.44"),
        ("rt:n=2000,seed=5", "fat:c=0.22"),
    )
    mice = _seeded_mice(10 if quick else 100)
    for spec, cat_spec in corpus:
        g, oracle, _ = corpus_graph(spec)
        cover = parse_cat_spec(cat_spec, g, oracle).cover
        L, k = cover.count, cover.radius_k
        if L < 2:
            return False, f"{spec}: {cat_spec} degenerates to one ball"
        bound = 4 * L + k
        for game, cat, mouse, tr in _games(spec, cat_spec, 2 * L, mice, track_radius=False):
            if isinstance(tr, Exception):
                return False, f"{game}: raised {type(tr).__name__}: {tr}"
            target = tr.m[2 * L - 1]
            champ = cat.champion_vertex
            if oracle.distance(champ, target) > bound:
                return False, (
                    f"{spec}: mouse {mouse.spec} at {target} is "
                    f"{oracle.distance(champ, target)} > {bound} from champion"
                )
            members = tr.belief_members(2 * L - 1)
            worst = int(oracle.row(champ)[members].max())
            if worst > bound:
                return False, (
                    f"{spec}: belief radius witness {worst} > {bound} "
                    f"at step {2 * L - 1}"
                )
            checked += 1
    return True, f"{checked} trajectories/runs satisfy 4L+k"


# ---------------------------------------------------------------------------
# Criterion 3: sphere-walk guarantee and per-phase inequalities.

def _thin_phase_checks(oracle: DistanceOracle, cat: SphereWalkCat, tr, bound: int) -> str | None:
    """Returns an error string or None.  Checks the stop-boundary guarantee, the
    per-phase descent/cap inequalities, and the phase pair budget."""
    K = cat.K
    log = cat.phase_log

    def mouse_at(pairs: int) -> int:
        step = 2 * pairs - 1 if pairs >= 1 else 1
        return tr.m[step]

    def dist_at(entry) -> int:
        pairs, anchor = entry
        return oracle.distance(anchor, mouse_at(pairs))

    if len(log) == 1:
        # Held from the very start: the thin level's sphere was empty, so the
        # whole graph sits below it.
        if oracle.eccentricity(log[0][1]) > bound:
            return f"immediate hold but eccentricity exceeds {bound}"
        return None

    stop_entries = [e for e in log if e[0] >= cat.stop_pairs]
    if not stop_entries:
        return f"no phase boundary reached {cat.stop_pairs} pairs within the horizon"
    for entry in stop_entries:
        d = dist_at(entry)
        if d > bound:
            return (
                f"guarantee fails at boundary T={entry[0]}: d(anchor, mouse) = {d} > {bound}"
            )

    for (t_prev, v_prev), (t_next, v_next) in zip(log, log[1:]):
        level = int(cat.levels[v_prev])
        if not 4 * (t_next - t_prev) < level:
            return (
                f"phase budget violated: {t_next - t_prev} pairs at level {level}"
            )
        d_prev = dist_at((t_prev, v_prev))
        d_next = dist_at((t_next, v_next))
        if d_prev >= K:
            if not 2 * d_next <= 2 * d_prev - level:
                return (
                    f"descent fails: {d_prev} -> {d_next} with level {level} "
                    f"(K={K})"
                )
        else:
            if not 2 * d_next <= 3 * K:
                return f"cap fails: {d_next} > 3K/2 with K={K}"
    return None


def check_thin_bound(quick: bool = False) -> tuple[bool, str]:
    corpus = ("path:n=2000", "cycle:n=2000", "spider:t=44,extra=0")
    mice = _seeded_mice(10 if quick else 100)
    runs = 0
    for spec in corpus:
        g, oracle, _ = corpus_graph(spec)
        K = ceil_sqrt(9 * g.n)
        bound = (3 * K + 1) // 2
        D = oracle.diameter()
        horizon = 2 * ((D + 1) // 2) + 2 * K + 8
        games = _games(spec, f"thin:K={K}", horizon, mice, track_belief=False, track_radius=False)
        for game, cat, _, tr in games:
            if isinstance(tr, Exception):
                return False, f"{game}: raised {type(tr).__name__}: {tr}"
            err = _thin_phase_checks(oracle, cat, tr, bound)
            if err:
                return False, f"{game}: {err}"
            runs += 1
    return True, f"{runs} runs satisfy the (3/2)K guarantee and per-phase inequalities"


# ---------------------------------------------------------------------------
# Criteria 4 and 5: end-to-end localization bounds for the composed cats.

_REPRO_CORPUS = (
    "spider:t=12,extra=0",
    "path:n=2000",
    "grid:45x45",
    "rt:n=1000,seed=3",
)


def _mice_for(spec: str, seed: int) -> list[str]:
    kinds = [f"stationary:seed={seed}", f"rw:seed={seed}", f"greedy:seed={seed}"]
    if spec.startswith("spider:t=12"):
        kinds.append("spider:t=12")
    return kinds


def _failures(configs, opponent: str, missed) -> tuple[int, str | None]:
    """Run every config through `run_experiment`.  Returns the number of runs
    and, when any fails, a detail that counts the failures and describes the
    first: its note if the game raised, else `missed(row)`."""
    runs = [(cfg, row) for cfg in configs for row in run_experiment(cfg).rows]
    failed = [(cfg, row) for cfg, row in runs if not row.passed]
    if not failed:
        return len(runs), None
    cfg, row = failed[0]
    return len(runs), (
        f"{len(failed)} of {len(runs)} runs fail; first: {cfg.graph} vs "
        f"{getattr(cfg, opponent)}: {row.note or missed(row)}"
    )


def check_sqrt_reproduction(quick: bool = False) -> tuple[bool, str]:
    slack = 2
    deadline = {
        spec: ceil_sqrt(2 * corpus_graph(spec)[0].n) + slack for spec in _REPRO_CORPUS
    }
    configs = [
        ExperimentConfig(
            graph=spec, cat="sqrt", mouse=mouse_spec, horizon=deadline[spec],
            seeds=(seed,), bound_d="sqrt32n", bound_t=deadline[spec],
            bound_kind="upper",
        )
        for spec in _REPRO_CORPUS
        for seed in range(3 if quick else 20)
        for mouse_spec in _mice_for(spec, seed)
    ]
    runs, failure = _failures(configs, "mouse", lambda row: (
        f"no step within {row.bound_t} has radius <= {row.bound_d} "
        f"(min {row.min_radius})"
    ))
    if failure:
        return False, failure
    return True, (
        f"{runs} runs localize to ceil(sqrt(32n)) by ceil(sqrt(2n)) + {slack} slack"
    )


def check_thin_time_reproduction(quick: bool = False) -> tuple[bool, str]:
    seeds = range(3 if quick else 20)
    runs = 0
    for spec in _REPRO_CORPUS:
        g, oracle, _ = corpus_graph(spec)
        n = g.n
        K = ceil_sqrt(9 * n)
        bound_d = (ceil_sqrt(81 * n) + 1) // 2
        D = oracle.diameter()
        horizon = min(n, max(4, D + 2))
        mice = [(seed, mouse) for seed in seeds for mouse in _mice_for(spec, seed)]
        for game, cat, _, tr in _games(spec, f"thin:K={K}", horizon, mice, track_radius=False):
            if isinstance(tr, Exception):
                return False, f"{game}: raised {type(tr).__name__}: {tr}"
            # Each certificate is an anchor of the cat's own phase log:
            # max over M_step of d(anchor, .) bounds rad(M_step) above.
            certified = False
            for pairs, anchor in cat.phase_log:
                if 4 * pairs < 2 * D - 3 * K:
                    continue
                step = max(1, 2 * pairs - 1)
                if step > horizon:
                    break
                witness = int(oracle.row(anchor)[tr.belief_members(step)].max())
                if witness <= bound_d:
                    certified = True
                    break
            if not certified:
                return False, f"{game}: no certified step <= {n} with radius <= {bound_d}"
            runs += 1
    return True, f"{runs} runs localize to ceil(4.5*sqrt(n)) by time n"


# ---------------------------------------------------------------------------
# Criterion 6: the spider evader survives the implemented cat roster.

_LOWER_CONFIGS = ((12, 0), (12, 7), (24, 0))

_LOWER_CATS = (
    "sqrt",
    "thin:K=auto",
    "fat:c=0.5",
    "sweep",
    "rand:seed=101",
    "rand:seed=102",
    "rand:seed=103",
    "rand:seed=104",
    "rand:seed=105",
    "stay",
)


def check_lower_bound(quick: bool = False) -> tuple[bool, str]:
    configs = [
        ExperimentConfig(
            graph=f"spider:t={t},extra={extra}", cat=cat_spec,
            mouse=f"spider:t={t}", horizon=120 if quick else 300, seeds=(0,),
            bound_d="tOver12", bound_t=None, bound_kind="lower",
        )
        for t, extra in _LOWER_CONFIGS
        for cat_spec in (_LOWER_CATS[:4] if quick else _LOWER_CATS)
    ]
    runs, failure = _failures(configs, "cat", lambda row: (
        f"radius {row.min_radius} <= t/12 = {row.bound_d} at step {row.argmin_step}"
    ))
    if failure:
        return False, failure
    return True, (
        f"{runs} runs keep radius > t/12 at every step "
        f"(implemented roster only; the universal quantifier is covered by the "
        f"exhaustive solver on tiny instances)"
    )


# ---------------------------------------------------------------------------
# Criterion 7: solver value is consistent with engine play.

_TINY_GRAPHS = (
    ("path:n=3", gen_path(3)), ("path:n=4", gen_path(4)),
    ("cycle:n=4", gen_cycle(4)), ("star4", _star(4)),
)

_TINY_CATS = ("sweep", "stay", "rand:seed=11", "rand:seed=12", "sqrt", "fat:c=1.0")


def check_minimax_consistency(quick: bool = False) -> tuple[bool, str]:
    horizon = 6 if quick else 8
    distances = (0, 1) if quick else (0, 1, 2)
    solved = 0
    for spec, g in _TINY_GRAPHS:
        oracle = DistanceOracle(g)
        for d in distances:
            res = exhaustive_game_value(g, horizon, d)
            if res.winner == "mouse_wins":
                for cat_spec in _TINY_CATS:
                    cat = parse_cat_spec(cat_spec, g, oracle)
                    queries, bits = adversarial_record(res, cat, horizon)
                    traj = consistent_trajectory(g, queries, bits)
                    fresh = parse_cat_spec(cat_spec, g, oracle)
                    tr = run_game(
                        g, fresh, ScriptedMouse(traj), horizon,
                        track_belief=True, oracle=oracle,
                    )
                    loc = localization_report(tr, d)
                    if loc.first_success_step is not None:
                        return False, (
                            f"{spec} d={d}: solver says mouse wins but "
                            f"{cat_spec} localized at step {loc.first_success_step}"
                        )
            else:
                for queries, bits in winning_bit_paths(res):
                    traj = consistent_trajectory(g, queries, bits)
                    cat = res.extract_cat()
                    tr = run_game(
                        g, cat, ScriptedMouse(traj),
                        max(len(queries), 1),
                        track_belief=True, oracle=oracle,
                    )
                    loc = localization_report(tr, d)
                    if loc.first_success_step is None or loc.first_success_step > horizon:
                        return False, (
                            f"{spec} d={d}: extracted strategy failed to localize "
                            f"over bits {bits}"
                        )
            solved += 1
    return True, f"{solved} tiny instances consistent between solver and engine"


# ---------------------------------------------------------------------------
# Criterion 8: structural properties of the graph-core operations.

_STRUCTURE_CORPUS = (
    "path:n=9",
    "path:n=50",
    "path:n=313",
    "cycle:n=12",
    "cycle:n=100",
    "grid:5x5",
    "grid:9x13",
    "rt:n=40,seed=1",
    "rt:n=200,seed=2",
    "spider:t=4,extra=0",
    "spider:t=12,extra=0",
    "spider:t=12,extra=7",
)


def check_structural(quick: bool = False) -> tuple[bool, str]:
    checks = 0
    for spec in _STRUCTURE_CORPUS:
        g, oracle, _ = corpus_graph(spec)
        n = g.n
        # scattered covers: coverage, pairwise separation, size bound
        for separation in (1, 3, ceil_sqrt(n), 2 * ceil_sqrt(n)):
            cover = scattered_cover(oracle, separation)
            cover.validate(oracle)
            centers = cover.centers
            for i, u in enumerate(centers):
                row = oracle.row(u)
                for v in centers[i + 1 :]:
                    if row[v] < separation:
                        return False, (
                            f"{spec}: centers {u},{v} at distance {row[v]} "
                            f"< separation {separation}"
                        )
            if cover.count > max(1, (2 * n) // separation):
                return False, (
                    f"{spec}: {cover.count} centers exceeds 2n/s at "
                    f"separation {separation}"
                )
            checks += 1
        # thin level existence at K = ceil(3 sqrt n) for n >= 9
        if n >= 9:
            K = ceil_sqrt(9 * n)
            missing = np.flatnonzero(oracle.thin_levels(K) < 0)
            if missing.size:
                return False, f"{spec}: vertex {missing[0]} has no thin level below {K}"
            checks += 1
        # edge-list round trip
        if parse_graph(write_graph(g)) != g:
            return False, f"{spec}: parse/write round trip changed the graph"
        checks += 1
    # spider generator counts
    for t, extra in ((1, 0), (3, 2), (12, 0), (12, 7), (24, 0)):
        sp = SpiderSpec(t, extra)
        g = gen_spider(sp)
        if g.n != t * t + 1 + extra:
            return False, f"spider({t},{extra}): n = {g.n}"
        if g.edge_count != g.n - 1:
            return False, f"spider({t},{extra}): not a tree"
        for branch in range(1, t + 1):
            size = sum(1 for v in range(g.n) if sp.branch_of(v) == branch)
            if size != t:
                return False, f"spider({t},{extra}): branch {branch} has {size} vertices"
        checks += 1
    return True, f"{checks} structural properties hold across the corpus"


# ---------------------------------------------------------------------------
# Suite wiring.

@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    elapsed_s: float

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"{verdict} criterion {self.number} ({self.name}): {self.detail}"


CRITERIA = {
    1: ("belief-oracle equivalence", check_oracle_equivalence),
    2: ("ball-cover bound 4L+k", check_fat_bound),
    3: ("sphere-walk bound (3/2)K", check_thin_bound),
    4: ("sqrt(32n) by sqrt(2n)", check_sqrt_reproduction),
    5: ("(9/2)sqrt(n) by time n", check_thin_time_reproduction),
    6: ("spider evader survives t/12", check_lower_bound),
    7: ("minimax consistency", check_minimax_consistency),
    8: ("structural properties", check_structural),
}

SUITES = {
    "oracle": (1, 7),
    "fat": (2,),
    "thin": (3, 5),
    "sqrt": (4,),
    "lower": (6,),
    "structure": (8,),
    "all": tuple(range(1, 9)),
}


def verify_suite(name: str, quick: bool = False) -> list[CriterionResult]:
    """Run a named acceptance bundle; failures are reported, not raised.  A
    criterion that raises fails with the exception (traceback to stderr)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    results = []
    for number in SUITES[name]:
        title, fn = CRITERIA[number]
        corpus_graph.cache_clear()
        gen_spider.cache_clear()  # so a count of BFS rows is the same cold or warm
        start = time.perf_counter()
        try:
            ok, detail = fn(quick=quick)
        except Exception as exc:
            traceback.print_exc()
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        results.append(CriterionResult(number, title, ok, detail, elapsed))
    return results
