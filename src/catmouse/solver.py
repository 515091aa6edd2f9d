"""Independent oracles: brute-force belief tracking and an exhaustive
belief-state game solver for tiny instances.

Both are deliberately written against their own BFS and their own set-based
update so that agreement with the engine's incremental numpy kernel is a
meaningful check rather than a tautology.
"""

from __future__ import annotations

from collections import deque

from .engine import CatStrategy, IllegalFeedbackError
from .graphs import Graph, GraphError


class SizeGuardError(GraphError):
    """The requested instance exceeds the oracle's exhaustive-search guard."""


def _bfs_map(g: Graph, source: int) -> list[int]:
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


class _DistCache:
    def __init__(self, g: Graph) -> None:
        self.g = g
        self.rows: dict[int, list[int]] = {}

    def row(self, v: int) -> list[int]:
        row = self.rows.get(v)
        if row is None:
            row = _bfs_map(self.g, v)
            self.rows[v] = row
        return row


def _step_sets(g: Graph, dists: _DistCache, members, c_prev: int, c_cur: int, bit: int) -> dict[int, int]:
    """One layered-reachability step over consistent lazy walks.

    Maps each vertex of the new belief set to the first believed vertex it
    was reached from; the keys are the new belief set.
    """
    row_prev = dists.row(c_prev)
    row_cur = dists.row(c_cur)
    want = bit == 1
    out: dict[int, int] = {}
    for u in members:
        du = row_prev[u]
        for v in (u, *g.adjacency[u]):
            if v not in out and (row_cur[v] <= du) == want:
                out[v] = u
    return out


def _forward(g: Graph, queries, bits) -> list[dict[int, int]]:
    """The parent maps of `_step_sets` for steps 2..h of a query/bit record,
    from the whole graph at step 1.  Guarded against instances too large to
    enumerate."""
    h = len(queries)
    if len(bits) != h - 1:
        raise GraphError(
            f"need one bit per step after the first: got {len(bits)} bits "
            f"for {h} queries"
        )
    if g.n * h > 2_000_000:
        raise SizeGuardError(f"brute force refused: n*h = {g.n * h} too large")
    dists = _DistCache(g)
    members = range(g.n)
    out: list[dict[int, int]] = []
    for j in range(1, h):
        members = _step_sets(g, dists, members, queries[j - 1], queries[j], bits[j - 1])
        if not members:
            raise IllegalFeedbackError(f"no consistent lazy walk: belief emptied at step {j + 1}")
        out.append(members)
    return out


def brute_force_beliefs(g: Graph, queries, bits) -> list:
    """Exact belief sequence from a query/bit record, by forward reachability
    over the layered graph of (step, vertex) states.

    `queries` lists c_1..c_h; `bits` lists b_2..b_h.  Returns the 1-based
    list [None, M_1, ..., M_h] of vertex bitmasks (bit v set iff v is
    believed), the layout of `Transcript.beliefs`.
    """
    steps = _forward(g, queries, bits)
    return [None, (1 << g.n) - 1, *(sum(1 << v for v in par) for par in steps)]


def consistent_trajectory(g: Graph, queries, bits) -> list[int]:
    """A lazy walk m_1..m_h consistent with every bit, ending at the lowest
    vertex in the final belief set."""
    steps = _forward(g, queries, bits)
    path = [min(steps[-1]) if steps else 0]
    for par in reversed(steps):
        path.append(par[path[-1]])
    path.reverse()
    return path


def _radius_of(g: Graph, dists: _DistCache, members) -> int:
    best = None
    for v in range(g.n):
        row = dists.row(v)
        worst = max(row[w] for w in members)
        if best is None or worst < best:
            best = worst
    return best


class GameSolver:
    """Memoized alternating search over (belief set, previous query) states.

    The cat picks the next query; the adversary answers with any feedback
    bit whose update is non-empty (each such bit is realized by an actual
    lazy walk, so legal bits and real mice quantify over the same set).
    The cat wins when it can force the belief radius down to d within the
    horizon.  `solve` fills in `winner` ("cat_wins" | "mouse_wins") and
    `root_query`; `policy` maps each won (mask, previous query, steps used)
    state to the cat's next query.
    """

    MAX_N = 10
    MAX_HORIZON = 8

    def __init__(self, g: Graph, d: int, horizon: int) -> None:
        if g.n > self.MAX_N or horizon > self.MAX_HORIZON:
            raise SizeGuardError(
                f"exhaustive solver refused: n={g.n} (max {self.MAX_N}), "
                f"horizon={horizon} (max {self.MAX_HORIZON})"
            )
        if horizon < 1:
            raise GraphError(f"horizon must be >= 1, got {horizon}")
        self.g = g
        self.d = d
        self.horizon = horizon
        self.dists = _DistCache(g)
        self.full_mask = (1 << g.n) - 1
        self._rad: dict[int, int] = {}
        self._step: dict[tuple[int, int, int, int], int] = {}
        self._win: dict[tuple[int, int, int], bool] = {}
        self.policy: dict[tuple[int, int, int], int] = {}
        self.winner: str | None = None
        self.root_query: int | None = None

    def members(self, mask: int) -> list[int]:
        return [v for v in range(self.g.n) if (mask >> v) & 1]

    def radius(self, mask: int) -> int:
        r = self._rad.get(mask)
        if r is None:
            r = _radius_of(self.g, self.dists, self.members(mask))
            self._rad[mask] = r
        return r

    def update(self, mask: int, c_prev: int, c_cur: int, bit: int) -> int:
        key = (mask, c_prev, c_cur, bit)
        out = self._step.get(key)
        if out is None:
            step = _step_sets(self.g, self.dists, self.members(mask), c_prev, c_cur, bit)
            out = self._step[key] = sum(1 << v for v in step)
        return out

    def win(self, mask: int, prev: int, used: int) -> bool:
        """Can the cat force success at some step in (used, horizon]?"""
        if used >= self.horizon:
            return False
        key = (mask, prev, used)
        cached = self._win.get(key)
        if cached is not None:
            return cached
        result = False
        for cur in range(self.g.n):
            any_legal = False
            all_good = True
            for bit in (0, 1):
                nm = self.update(mask, prev, cur, bit)
                if nm == 0:
                    continue
                any_legal = True
                if self.radius(nm) <= self.d:
                    continue
                if not self.win(nm, cur, used + 1):
                    all_good = False
                    break
            if any_legal and all_good:
                self.policy[key] = cur
                result = True
                break
        self._win[key] = result
        return result

    def refuting_bit(self, mask: int, prev: int, used: int, cur: int) -> tuple[int, int]:
        """A legal bit that keeps the mouse winning against query `cur`."""
        for bit in (0, 1):
            nm = self.update(mask, prev, cur, bit)
            if nm == 0:
                continue
            if self.radius(nm) <= self.d:
                continue
            if not self.win(nm, cur, used + 1):
                return bit, nm
        raise AssertionError("no refuting bit from a mouse-winning state")

    def solve(self) -> "GameSolver":
        self.winner = "cat_wins"
        if self.radius(self.full_mask) <= self.d:
            return self  # localized before any information: success at step 1
        for c1 in range(self.g.n):
            if self.win(self.full_mask, c1, 1):
                self.root_query = c1
                return self
        self.winner = "mouse_wins"
        return self

    def extract_cat(self) -> "SolverCat":
        if self.winner != "cat_wins":
            raise GraphError("no cat strategy to extract: the mouse wins")
        return SolverCat(self)


def exhaustive_game_value(g: Graph, horizon: int, d: int) -> GameSolver:
    """Value of the localization game on a tiny instance; see GameSolver."""
    return GameSolver(g, d, horizon).solve()


class SolverCat(CatStrategy):
    """Replays a winning policy extracted from the exhaustive solver; its
    first `next_query` call plays the root query."""

    def __init__(self, solver: GameSolver) -> None:
        self.solver = solver
        self.spec = "solver"
        self._mask = solver.full_mask
        self._prev = 0
        self._used = 0
        self._last = 0

    def next_query(self, bit: int | None) -> int:
        if self._used == 0:
            q = self.solver.root_query if self.solver.root_query is not None else 0
            self._prev = self._last = q
            self._used = 1
            return q
        if bit is not None:
            nm = self.solver.update(self._mask, self._prev, self._last, bit)
            if nm:
                self._mask = nm
            self._used += 1
            self._prev = self._last
        if self.solver.radius(self._mask) <= self.solver.d:
            q = self._prev  # already localized; hold
        else:
            q = self.solver.policy.get((self._mask, self._prev, self._used), self._prev)
        self._last = q
        return q


def winning_bit_paths(solver: GameSolver) -> list[tuple[list[int], list[int]]]:
    """All (queries, bits) records that can occur when the winning cat plays
    its policy, one per leaf of the won subtree (success reached)."""
    if solver.winner != "cat_wins":
        raise GraphError("the cat does not win this instance")
    if solver.root_query is None:
        return [([0], [])]  # localized at step 1; any single query does
    out: list[tuple[list[int], list[int]]] = []

    def walk(mask: int, prev: int, used: int, queries: list[int], bits: list[int]) -> None:
        cur = solver.policy[(mask, prev, used)]
        for bit in (0, 1):
            nm = solver.update(mask, prev, cur, bit)
            if nm == 0:
                continue
            q2, b2 = queries + [cur], bits + [bit]
            if solver.radius(nm) <= solver.d:
                out.append((q2, b2))
            else:
                walk(nm, cur, used + 1, q2, b2)

    walk(solver.full_mask, solver.root_query, 1, [solver.root_query], [])
    return out


def adversarial_record(solver: GameSolver, cat: CatStrategy, horizon: int) -> tuple[list[int], list[int]]:
    """Queries and bits produced when the given cat plays against the
    solver's bit adversary from a mouse-winning root."""
    if solver.winner != "mouse_wins":
        raise GraphError("the mouse does not win this instance")
    clone = cat.clone()
    queries = [clone.next_query(None)]
    bits: list[int] = []
    mask, prev, used = solver.full_mask, queries[0], 1
    for _ in range(2, horizon + 1):
        cur = clone.next_query(bits[-1] if bits else None)
        bit, mask = solver.refuting_bit(mask, prev, used, cur)
        queries.append(cur)
        bits.append(bit)
        prev = cur
        used += 1
    return queries, bits
