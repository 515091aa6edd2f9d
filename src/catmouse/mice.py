"""Mouse strategies: the adversarial spider evader plus simple baselines.

The spider evader runs a six-stage cycle on a spider tree: pick a branch the
cat will leave alone, drift toward the center while the feedback bits stay
ambiguous, dash to the center, leave along a fresh unwatched branch, and
re-anchor a shadow trajectory on yet another branch.  The shadow is a second
position the observed bits cannot distinguish from the real one; keeping the
two far apart keeps the belief radius large.

All lookahead is done on clones of the cat, never the live instance.  The
feedback bits the evader's planned moves generate depend only on its depth
(distance from the center) as long as the cat stays off its branch, so the
lookahead simulates depths alone and ignores branch identities.
"""

from __future__ import annotations

import copy
import random

from .engine import GameView, MouseStrategy
from .graphs import GraphError, SpiderSpec, gen_spider, parse_spec_fields


class DepthPlan:
    """Branch-free forward model of the spider evader.

    Tracks the stage machine and the evader's depth only.  `advance` consumes
    one cat query (as a distance to the center) and returns the feedback bit
    the planned move generates, which is what a lookahead feeds to a cat
    clone to learn its future queries.
    """

    S2_DRIFT, S3_RUN_IN, S5_RUN_OUT = 2, 3, 5

    __slots__ = (
        "t",
        "stage",
        "clock",
        "m_depth",
        "step",
        "prev_dc",
        "d_snapshot",
        "w_action",
        "s2_just_ended",
    )

    def __init__(self, t: int) -> None:
        self.t = t
        self.stage = self.S2_DRIFT
        self.clock = t // 6
        self.m_depth = t // 4
        self.step = 0
        self.prev_dc: int | None = None
        self.d_snapshot: int | None = None
        self.w_action: str | None = None
        self.s2_just_ended = False

    def advance(self, dc: int) -> int | None:
        """Process one step given d(query, center); returns the generated bit
        (None on the placement step, which produces no bit)."""
        self.step += 1
        self.s2_just_ended = False
        if self.step == 1:
            self.prev_dc = dc
            self.w_action = None
            return None
        old_depth = self.m_depth
        if self.stage == self.S2_DRIFT:
            if dc <= self.prev_dc:
                self.m_depth -= 1
                self.w_action = "hold"
            else:
                self.w_action = "out"
            self.clock -= 1
            if self.clock == 0:
                self.d_snapshot = self.m_depth
                self.stage = self.S3_RUN_IN
                self.clock = self.d_snapshot
                self.s2_just_ended = True
        elif self.stage == self.S3_RUN_IN:
            self.m_depth -= 1
            self.w_action = "in"
            self.clock -= 1
            if self.clock == 0:
                # The evader is at the center; the next step runs outward
                # along a branch chosen then.
                self.stage = self.S5_RUN_OUT
                self.clock = self.t // 4
        else:
            self.m_depth += 1
            self.w_action = "out"
            self.clock -= 1
            if self.clock == 0:
                self.w_action = "reanchor"
                self.stage = self.S2_DRIFT
                self.clock = self.t // 6
        bit = 1 if dc + self.m_depth <= self.prev_dc + old_depth else 0
        self.prev_dc = dc
        return bit


def _simulate_queries(spider, clone, plan, count, entry_bit, at_game_start):
    """Drive a cat clone `count` queries forward, feeding it the bits the
    depth plan generates; returns the queried vertices."""
    out = []
    bit = entry_bit
    for k in range(count):
        if at_game_start and k == 0:
            q = clone.first_query()
        else:
            q = clone.next_query(bit)
        out.append(q)
        bit = plan.advance(spider.depth_of(q))
    return out


def _queried_branches(spider, queries) -> set[int]:
    out = set()
    for q in queries:
        b = spider.branch_of(q)
        if b is not None:
            out.add(b)
    return out


class SpiderMouse(MouseStrategy):
    """Six-stage adversarial evader for spider trees with parameter t.

    Requires 12 | t so all stage lengths are integers, and a game graph equal
    to the fixed-layout spider (an optional padding branch is tolerated and
    never entered).  Maintains a shadow trajectory on a second branch whose
    membership in the belief set witnesses a radius above t/12.
    """

    def __init__(self, t: int) -> None:
        if t < 12 or t % 12 != 0:
            raise GraphError(f"spider evader needs t >= 12 divisible by 12, got {t}")
        self.t = t
        self.spec = f"spider:t={t}"
        self.spider: SpiderSpec | None = None
        self.plan: DepthPlan | None = None
        self.m_branch = 0
        self.w_branch = 0
        self.w_depth = 0
        self.shadow_trace: list[int | None] = [None]
        self.stage_events: list[tuple[int, str]] = []

    def _require_spider(self, g) -> None:
        t = self.t
        extra = g.n - t * t - 1
        if extra < 0 or gen_spider(SpiderSpec(t, extra)) != g:
            raise GraphError(f"game graph is not a spider with parameter t={t}")
        self.spider = SpiderSpec(t, extra)

    def _lowest_free(self, blocked) -> int:
        for b in range(1, self.t + 1):
            if b not in blocked:
                return b
        raise AssertionError(
            f"no safe branch: {len(blocked)} of {self.t} branches blocked"
        )

    def _m_vertex(self) -> int:
        depth = self.plan.m_depth
        return self.spider.vertex_at(self.m_branch, depth) if depth else 0

    def first_position(self, view: GameView) -> int:
        self._require_spider(view.graph)
        t = self.t
        self.plan = DepthPlan(t)
        window = 2 * t // 3
        queries = _simulate_queries(
            self.spider, view.clone_cat(), DepthPlan(t), window, None, True
        )
        blocked = _queried_branches(self.spider, queries)
        self.m_branch = self._lowest_free(blocked)
        self.w_branch = self._lowest_free(blocked | {self.m_branch})
        self.w_depth = t // 4
        # Consume the placement step with the predicted first query.
        self.plan.advance(self.spider.depth_of(queries[0]))
        self.stage_events.append((1, "cycle_start"))
        self.shadow_trace.append(self.spider.vertex_at(self.w_branch, self.w_depth))
        return self._m_vertex()

    def next_move(self, view: GameView) -> int:
        i = view.step
        t = self.t
        entry_bit = view.b[i - 1] if i >= 3 else None
        clone = view.clone_cat()
        predicted = clone.next_query(entry_bit)
        dc = self.spider.depth_of(predicted)

        if self.plan.stage == DepthPlan.S5_RUN_OUT and self.plan.m_depth == 0:
            # Leaving the center: pick a branch the cat will not query for
            # the next 11t/12 steps, this one included, and distinct from
            # the shadow's branch.
            queries = _simulate_queries(
                self.spider,
                view.clone_cat(),
                copy.copy(self.plan),
                11 * t // 12,
                entry_bit,
                False,
            )
            blocked = _queried_branches(self.spider, queries) | {self.w_branch}
            self.m_branch = self._lowest_free(blocked)
            self.stage_events.append((i, "branch_switch"))

        bit = self.plan.advance(dc)
        action = self.plan.w_action
        if action == "out":
            self.w_depth += 1
        elif action == "in":
            self.w_depth -= 1
        elif action == "reanchor":
            # Fresh shadow branch: unqueried over the past t/4 steps (the
            # outward run, this step's predicted query included) and the
            # next 2t/3, and distinct from the evader's branch.
            lookback = {predicted}
            for j in range(max(1, i - t // 4 + 1), i):
                lookback.add(view.c[j])
            future = _simulate_queries(
                self.spider, clone, copy.copy(self.plan), 2 * t // 3, bit, False
            )
            blocked = (
                _queried_branches(self.spider, lookback)
                | _queried_branches(self.spider, future)
                | {self.m_branch}
            )
            self.w_branch = self._lowest_free(blocked)
            self.w_depth = t // 4
            self.stage_events.append((i, "cycle_end"))
        if self.plan.s2_just_ended:
            self.stage_events.append((i, "s2_end"))

        self.shadow_trace.append(self.spider.vertex_at(self.w_branch, self.w_depth))
        return self._m_vertex()


class StationaryMouse(MouseStrategy):
    """Sits on a seed-derived vertex forever."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = f"stationary:seed={seed}"
        self.pos = 0

    def first_position(self, view: GameView) -> int:
        self.pos = self.seed % view.graph.n
        return self.pos

    def next_move(self, view: GameView) -> int:
        return self.pos


class RandomWalkMouse(MouseStrategy):
    """Uniform seeded move over the closed neighborhood each step."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = f"rw:seed={seed}"
        self.rng = random.Random(seed)
        self.pos = 0

    def first_position(self, view: GameView) -> int:
        self.pos = self.rng.randrange(view.graph.n)
        return self.pos

    def next_move(self, view: GameView) -> int:
        candidates = (self.pos, *view.graph.adjacency[self.pos])
        self.pos = candidates[self.rng.randrange(len(candidates))]
        return self.pos


class GreedyAwayMouse(MouseStrategy):
    """Moves to the closed-neighborhood vertex farthest from the cat's last
    query, lowest id on ties."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = f"greedy:seed={seed}"
        self.pos = 0

    def first_position(self, view: GameView) -> int:
        self.pos = self.seed % view.graph.n
        return self.pos

    def next_move(self, view: GameView) -> int:
        last_query = view.c[view.step - 1]
        row = view.oracle.row(last_query)
        best = self.pos
        best_d = int(row[self.pos])
        for v in view.graph.adjacency[self.pos]:
            dv = int(row[v])
            if dv > best_d or (dv == best_d and v < best):
                best, best_d = v, dv
        self.pos = best
        return best


class ScriptedMouse(MouseStrategy):
    """Replays a fixed trajectory m_1, m_2, ... (must be a lazy walk)."""

    def __init__(self, path) -> None:
        self.path = tuple(path)
        if not self.path:
            raise GraphError("scripted mouse needs a non-empty trajectory")
        self.spec = "scripted"

    def first_position(self, view: GameView) -> int:
        return self.path[0]

    def next_move(self, view: GameView) -> int:
        idx = min(view.step - 1, len(self.path) - 1)
        return self.path[idx]


def parse_mouse_spec(spec: str, default_seed: int = 0) -> MouseStrategy:
    """Build a mouse from its CLI spec string.

    Forms: "spider:t=12", "stationary:seed=1", "rw:seed=2", "greedy",
    "greedy:seed=3".  Seedable kinds without an explicit seed use
    `default_seed`.
    """
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind == "spider":
        return SpiderMouse(parse_spec_fields(spec, rest, {"t": (int, None)})["t"])
    seeded = {
        "stationary": StationaryMouse,
        "rw": RandomWalkMouse,
        "greedy": GreedyAwayMouse,
    }.get(kind)
    if seeded is None:
        raise GraphError(f"unknown mouse spec {spec!r}")
    return seeded(parse_spec_fields(spec, rest, {"seed": (int, default_seed)})["seed"])
