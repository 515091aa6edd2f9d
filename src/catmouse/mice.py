"""Mouse strategies: the adversarial spider evader plus simple baselines.

The spider evader runs a six-stage cycle on a spider tree: pick a branch the
cat will leave alone, drift toward the center while the feedback bits stay
ambiguous, dash to the center, leave along a fresh unwatched branch, and
re-anchor a shadow trajectory on yet another branch.  The shadow is a second
position the observed bits cannot distinguish from the real one; keeping the
two far apart keeps the belief radius large.

One forward model, `DepthPlan`, moves both trajectories: the live evader and
every lookahead advance it, and the evader adds only branch identities.  All
lookahead is done on clones of the cat, never the live instance.  The
feedback bits the evader's planned moves generate depend only on its depth
(distance from the center) as long as the cat stays off its branch, so the
lookahead simulates depths alone and ignores branch identities.  The free
branch each choice needs exists for every cat once t >= 24; at t = 12 a cat
can block all of them, and the game then fails with a GameError.
"""

from __future__ import annotations

import copy
import random

from .engine import GameError, GameView, MouseStrategy
from .graphs import GraphError, SpiderSpec, gen_spider, read_int, read_spec


class DepthPlan:
    """Branch-free forward model of the spider evader's cycle.

    Tracks the stage machine, the evader's depth `m_depth` and the shadow's
    depth `w_depth`.  `advance` consumes one cat query (as a distance to the
    center) and returns the feedback bit the planned move generates, which is
    what a lookahead feeds to a cat clone to learn its future queries.  On
    the step that closes the drift stage `event` is "s2_end", on the step
    that closes the cycle it is "cycle_end", and otherwise None.
    """

    S2_DRIFT, S3_RUN_IN, S5_RUN_OUT = 2, 3, 5

    __slots__ = ("t", "stage", "clock", "m_depth", "w_depth", "prev_dc", "event")

    def __init__(self, t: int) -> None:
        self.t = t
        self.stage = self.S2_DRIFT
        self.clock = t // 6
        self.m_depth = t // 4
        self.w_depth = t // 4
        self.prev_dc: int | None = None
        self.event: str | None = None

    def advance(self, dc: int) -> int | None:
        """Process one step given d(query, center); returns the generated bit
        (None on the placement step, which produces no bit)."""
        self.event = None
        if self.prev_dc is None:
            self.prev_dc = dc
            return None
        old_depth = self.m_depth
        self.clock -= 1
        if self.stage == self.S2_DRIFT:
            # Walk in while the cat does not move away; else hold, and the
            # shadow steps out so the bit reads the same for both.
            if dc <= self.prev_dc:
                self.m_depth -= 1
            else:
                self.w_depth += 1
            if self.clock == 0:
                self.stage, self.clock, self.event = self.S3_RUN_IN, self.m_depth, "s2_end"
        elif self.stage == self.S3_RUN_IN:
            self.m_depth -= 1
            self.w_depth -= 1
            if self.clock == 0:
                # The evader is at the center; the next step runs outward
                # along a branch chosen then.
                self.stage, self.clock = self.S5_RUN_OUT, self.t // 4
        else:
            self.m_depth += 1
            self.w_depth += 1
            if self.clock == 0:
                self.stage, self.clock, self.event = self.S2_DRIFT, self.t // 6, "cycle_end"
                self.w_depth = self.t // 4
        bit = 1 if dc + self.m_depth <= self.prev_dc + old_depth else 0
        self.prev_dc = dc
        return bit


def _simulate_queries(spider, clone, plan, first, count):
    """`count` queries of a cat clone, starting at `first`, the one it has
    just made; the clone is fed the bits the depth plan generates."""
    queries = [first]
    for _ in range(count - 1):
        queries.append(clone.next_query(plan.advance(spider.depth_of(queries[-1]))))
    return queries[:count]


def _free_branch(spider: SpiderSpec, queries, taken=(), *, step: int = 1) -> int:
    """Lowest main branch (1..t) that no query touches and that is not in
    `taken`; a GameError naming `step` when every one is blocked."""
    queried = {spider.branch_of(q) for q in queries}
    for b in range(1, spider.t + 1):
        if b not in queried and b not in taken:
            return b
    raise GameError(
        f"step {step}: spider evader has no free branch: all {spider.t} main "
        f"branches are blocked (queried {sorted(queried.difference({None}))}, "
        f"taken {sorted(taken)})"
    )


def _evader_t(t: int) -> int:
    """t itself when the spider evader can play with it (t >= 12 and 12 | t,
    so every stage length is an integer); a GraphError otherwise."""
    if t < 12 or t % 12 != 0:
        raise GraphError(f"spider evader needs t >= 12 divisible by 12, got {t}")
    return t


class SpiderMouse(MouseStrategy):
    """Six-stage adversarial evader for spider trees with parameter t.

    Requires 12 | t so all stage lengths are integers, and a game graph equal
    to the fixed-layout spider (an optional padding branch is tolerated and
    never entered).  Maintains a shadow trajectory on a second branch whose
    membership in the belief set witnesses a radius above t/12.  Each branch
    choice blocks at most 11t/12 + 1 branches, so a free one exists for every
    cat once t >= 24; at t = 12 a cat can block all twelve, and the game then
    fails with a GameError naming the step.
    """

    def __init__(self, t: int) -> None:
        self.t = _evader_t(t)
        self.spec = f"spider:t={t}"
        self.spider: SpiderSpec | None = None
        self.plan: DepthPlan | None = None
        self.m_branch = 0
        self.w_branch = 0
        self.shadow_trace: list[int | None] = [None]
        self.stage_events: list[tuple[int, str]] = []

    def next_move(self, view: GameView) -> int:
        i = view.step
        t = self.t
        if i == 1:
            # Placement: check the graph, then put the evader and its shadow
            # on two branches the cat leaves alone for the first 2t/3 steps.
            g = view.graph
            extra = g.n - t * t - 1
            if extra < 0 or gen_spider(SpiderSpec(t, extra)) != g:
                raise GraphError(f"game graph is not a spider with parameter t={t}")
            self.spider = SpiderSpec(t, extra)
            self.plan = DepthPlan(t)
            queries = _simulate_queries(
                self.spider, view.clone_cat(), DepthPlan(t), view.c[1], 2 * t // 3
            )
            self.m_branch = _free_branch(self.spider, queries)
            self.w_branch = _free_branch(self.spider, queries, (self.m_branch,))
            self.stage_events.append((1, "cycle_start"))
        plan = self.plan
        if plan.stage == DepthPlan.S5_RUN_OUT and plan.m_depth == 0:
            # Leaving the center: pick a branch the cat will not query for
            # the next 11t/12 steps, this one included, and distinct from
            # the shadow's branch.
            queries = _simulate_queries(
                self.spider, view.clone_cat(), copy.copy(plan), view.c[i], 11 * t // 12
            )
            self.m_branch = _free_branch(self.spider, queries, (self.w_branch,), step=i)
            self.stage_events.append((i, "branch_switch"))

        bit = plan.advance(self.spider.depth_of(view.c[i]))
        if plan.event == "cycle_end":
            # Fresh shadow branch: unqueried over the past t/4 steps (the
            # outward run, this one included) and the next 2t/3, and
            # distinct from the evader's branch.
            clone = view.clone_cat()
            future = _simulate_queries(
                self.spider, clone, copy.copy(plan), clone.next_query(bit), 2 * t // 3
            )
            self.w_branch = _free_branch(
                self.spider, view.c[i - t // 4 + 1 : i + 1] + future, (self.m_branch,), step=i
            )
        if plan.event:
            self.stage_events.append((i, plan.event))
        self.shadow_trace.append(self.spider.vertex_at(self.w_branch, plan.w_depth))
        return self.spider.vertex_at(self.m_branch, plan.m_depth)


class StationaryMouse(MouseStrategy):
    """Sits on vertex seed mod n forever."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = f"stationary:seed={seed}"

    def next_move(self, view: GameView) -> int:
        return self.seed % view.graph.n


class RandomWalkMouse(MouseStrategy):
    """Starts on a seeded uniform vertex, then makes a seeded uniform move
    over the closed neighborhood each step."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = f"rw:seed={seed}"
        self.rng = random.Random(seed)

    def next_move(self, view: GameView) -> int:
        if view.step == 1:
            return self.rng.randrange(view.graph.n)
        pos = view.m[-1]
        candidates = (pos, *view.graph.adjacency[pos])
        return candidates[self.rng.randrange(len(candidates))]


class GreedyAwayMouse(MouseStrategy):
    """Starts on vertex seed mod n, then moves to the closed-neighborhood
    vertex farthest from the cat's query of the step before, c_{i-1} (not
    c_i, though the view holds it), lowest id on ties."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = f"greedy:seed={seed}"

    def next_move(self, view: GameView) -> int:
        if view.step == 1:
            return self.seed % view.graph.n
        pos = view.m[-1]
        row = view.oracle.row(view.c[view.step - 1])
        best = pos
        best_d = int(row[pos])
        for v in view.graph.adjacency[pos]:
            dv = int(row[v])
            if dv > best_d or (dv == best_d and v < best):
                best, best_d = v, dv
        return best


class ScriptedMouse(MouseStrategy):
    """Replays a fixed trajectory m_1, m_2, ... (must be a lazy walk)."""

    def __init__(self, path) -> None:
        self.path = tuple(path)
        if not self.path:
            raise GraphError("scripted mouse needs a non-empty trajectory")
        self.spec = "scripted"

    def next_move(self, view: GameView) -> int:
        idx = min(view.step - 1, len(self.path) - 1)
        return self.path[idx]


def parse_mouse_spec(spec: str, default_seed: int = 0) -> MouseStrategy:
    """Build a mouse from its CLI spec string.

    Forms: "spider:t=12", "stationary:seed=1", "rw:seed=2", "greedy",
    "greedy:seed=3".  Seedable kinds without an explicit seed use
    `default_seed`.
    """
    seed = {"seed": (read_int, default_seed)}
    spider = {"t": (lambda text: _evader_t(read_int(text)), None)}
    kind, values = read_spec(
        spec, {"spider": spider, "stationary": seed, "rw": seed, "greedy": seed}
    )
    return {
        "spider": SpiderMouse,
        "stationary": StationaryMouse,
        "rw": RandomWalkMouse,
        "greedy": GreedyAwayMouse,
    }[kind](**values)
