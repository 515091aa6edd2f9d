"""Game engine: turn order, feedback bits, exact belief tracking, transcripts.

Time is 1-based.  A step consists of the cat querying a vertex c_i, then
the mouse moving with c_i in view; its move at step 1 places it on any
vertex, and each later move stays in the closed neighborhood of the last
one.  At the end of step i >= 2 the bit b_i is
computed; it is delivered to the cat with its next query (so the cat's first
two queries are made with no information).  c_i depends only on b_2..b_{i-1},
and the mouse knows the cat's strategy, so showing it c_i plays the same
games as hiding it.  The belief set M_i is the exact set of vertices
consistent with the observed bits; M_1 is all of V.
"""

from __future__ import annotations

import copy
import itertools
import json
import operator
import weakref
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .graphs import DistanceOracle, Graph


TRANSCRIPT_VERSION = "1"


class GameError(Exception):
    """Base class for engine failures."""


class RuleViolationError(GameError):
    """A strategy broke the movement or query rules; names the step."""


class IllegalFeedbackError(GameError):
    """A belief update emptied out, which only a corrupted transcript or a
    non-lazy-walk mouse can cause."""


def feedback_bit(d_prev: int, d_cur: int) -> int:
    """1 when the cat's distance to the mouse did not increase, else 0."""
    return 1 if d_cur <= d_prev else 0


def _vertex_id(step: int, what: str, value) -> int:
    """`value` as a Python int; a float or any other non-integer is a rule
    violation, even one that compares equal to a vertex id."""
    try:
        return operator.index(value)
    except TypeError:
        raise RuleViolationError(f"step {step}: {what} {value!r} is not an integer") from None


def _mask_from_bool(arr: np.ndarray) -> int:
    return int.from_bytes(np.packbits(arr, bitorder="little").tobytes(), "little")


def _bool_from_mask(mask: int, n: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n].astype(bool)


class BeliefKernel:
    """Incremental one-step belief update over closed neighborhoods.

    v survives a bit-1 update iff some believed u in N[v] has
    d(c_prev, u) >= d(c_cur, v); a bit-0 update flips the comparison to
    strict less-than.  The caller passes the two distance rows, from c_prev
    and from c_cur.  The kernel owns the graph's neighborhood layout: the 2m
    arcs u -> v, and a padded table whose row v holds N[v], W columns wide
    (W the largest closed degree), padded with v itself.  A small believed
    set M takes the sparse step, one gather of M's table rows, which costs
    O(n + |M| W); a large one takes the dense step, which scatters along the
    arcs and costs O(n + 2m) in a few whole-array numpy calls.  A graph with
    no table (one hub makes it too wide) always takes the dense step.  A
    kernel holds only n and read-only arrays, never its oracle.
    """

    _NONE_MAX = np.int32(-1)
    _NONE_MIN = np.int32(2**30)
    # The table's n * W entries are built only while they stay within
    # TABLE_BOUND times the n + 2m entries of the closed neighborhoods: one
    # hub makes the table n x n (a star of 10^6 vertices passes
    # MAX_VERTICES).  Paths, grids and random trees sit at 1-4, spider:t=12
    # at 4.4-4.7; spider:t=24 (8.3) and stars have no table and go dense.
    # With a table, M is sparse when SPARSE_FACTOR * |M| < (n + 2m) // W:
    # the two steps' work, |M| W table entries against n + 2m scatter
    # entries; past TABLE_BOUND that cut would be below
    # n / (TABLE_BOUND * SPARSE_FACTOR) anyway.  A cut on |M| alone costs one
    # count per step; a cut on M's degree sum needs a nonzero on every step
    # and made the dense-side spider games 1.45-1.50x slower.  Timed per call
    # on random and ball-shaped masks (2 shared cores, numpy 2.4), the padded
    # step stops beating the arc scatter near |M| = 275 on path:n=2000, 480
    # on grid:45x45, 120 on rt:n=1000,seed=3, 10 on spider:t=12,extra=0 and
    # 30 on spider:t=24,extra=0 (whose table TABLE_BOUND drops): factors of
    # 7.3, 4, 2.8, 3.3 and 2.3.  At 8 the cut sits below every one of them.
    TABLE_BOUND = 8
    SPARSE_FACTOR = 8

    def __init__(self, oracle: DistanceOracle) -> None:
        g = oracle.graph
        n = g.n
        degrees = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=n)
        # arcs grouped by v with u ascending: the table fill below relies on it
        dst = np.repeat(np.arange(n, dtype=np.intp), degrees)
        src = np.fromiter(itertools.chain.from_iterable(g.adjacency), dtype=np.intp, count=dst.size)
        src.flags.writeable = False
        dst.flags.writeable = False
        width = int(degrees.max()) + 1
        table = None
        work = 0
        if n * width <= self.TABLE_BOUND * (n + src.size):
            table = np.repeat(np.arange(n, dtype=np.intp), width).reshape(n, width)
            firsts = np.cumsum(degrees) - degrees
            table[dst, 1 + np.arange(src.size) - firsts[dst]] = src
            table.flags.writeable = False
            work = (n + src.size) // width
        self._n, self._src, self._dst, self._table = n, src, dst, table
        self._cut = -(-work // self.SPARSE_FACTOR)  # the least |M| that goes dense

    def update_bool(
        self, members: np.ndarray, row_prev: np.ndarray, row_cur: np.ndarray, bit: int
    ) -> np.ndarray:
        if np.count_nonzero(members) < self._cut:
            return self._sparse_step(members, row_prev, row_cur, bit)
        return self._dense_step(members, row_prev, row_cur, bit)

    def _sparse_step(self, members, row_prev, row_cur, bit):
        """Pair each member u with every v in N[u] (closed neighborhoods are
        symmetric) and keep the v whose comparison holds.  A padded slot
        repeats the pair (u, u), the self term, and setting True twice is
        harmless, so no unbuffered scatter is needed."""
        idx = members.nonzero()[0]
        v = self._table[idx]
        d_prev = row_prev[idx][:, None]
        keep = d_prev >= row_cur[v] if bit == 1 else d_prev < row_cur[v]
        out = np.zeros(self._n, dtype=bool)
        out[v[keep]] = True
        return out

    def _dense_step(self, members, row_prev, row_cur, bit):
        """Mask row_prev to M, then push each arc's u value into its v.

        Each v's own entry is its self term, so the reduction covers N[v].
        The values are gathered before the scatter, and `ufunc.at` is
        unbuffered, so a v that receives many arcs keeps their max (min)."""
        if bit == 1:
            vals = np.where(members, row_prev, self._NONE_MAX)
            np.maximum.at(vals, self._dst, vals[self._src])
            return vals >= row_cur
        vals = np.where(members, row_prev, self._NONE_MIN)
        np.minimum.at(vals, self._dst, vals[self._src])
        return vals < row_cur


class CatStrategy(ABC):
    """Deterministic cat decision interface.

    A cat sees only the feedback bits.  `next_query` is its one method: the
    call for query c_i receives b_{i-1}, which is None for the first two
    queries (both are made with no information).  Identical bit histories
    must yield identical query sequences; seeded baselines derive every
    choice from their seed.

    A strategy rebinds its attributes and never mutates them in place, so a
    shallow copy is an independent cat; subclasses must not override `clone`.
    """

    spec = "cat"

    @abstractmethod
    def next_query(self, bit: int | None) -> int: ...

    def clone(self) -> "CatStrategy":
        """Independent copy at the current state; see the class docstring."""
        return copy.copy(self)


class MouseStrategy(ABC):
    """Mouse decision interface.

    `next_move` is the mouse's one method: the call at `view.step` i returns
    m_i.  The mouse sees everything: the graph, the full history so far
    including this step's query (`view.c[view.step]` is c_i), and a
    simulatable copy of the cat (via GameView.clone_cat).  At step 1 the
    move is the placement and may be any vertex; after that its position is
    `view.m[-1]`, and every move must be that vertex or one of its neighbors.
    """

    spec = "mouse"

    @abstractmethod
    def next_move(self, view: "GameView") -> int: ...


class GameView:
    """What the mouse is allowed to look at while deciding its move at step
    i = `step`: the queries c_1..c_i, its own moves m_1..m_{i-1} and the bits
    b_2..b_{i-1}, all 1-based, so `len(m) == step` and `m[-1]` is the mouse's
    position (the None sentinel at step 1, before its placement)."""

    __slots__ = ("graph", "oracle", "step", "c", "m", "b", "_cat")

    def __init__(self, oracle: DistanceOracle, cat: CatStrategy) -> None:
        self.graph = oracle.graph
        self.oracle = oracle
        self.step = 1
        self.c: list[int | None] = [None]
        self.m: list[int | None] = [None]
        self.b: list[int | None] = [None, None]
        self._cat = cat

    def clone_cat(self) -> CatStrategy:
        """Independent copy of the cat at its current state, just after its
        query c_i; its next query is c_{i+1}.  Simulating on it never affects
        the live game."""
        return self._cat.clone()


@dataclass
class Transcript:
    """Full game record.  All sequences are 1-based with a None sentinel at
    index 0; bits exist for steps >= 2."""

    graph_spec: str
    n: int
    horizon: int
    c: list
    m: list
    b: list
    beliefs: list | None = None
    belief_radius: list | None = None
    belief_center: list | None = None
    meta: dict = field(default_factory=dict)

    def belief_members(self, i: int) -> np.ndarray:
        """M_i as a bool array over the vertices."""
        if self.beliefs is None:
            raise GameError("transcript did not track beliefs")
        if not (1 <= i <= self.horizon):
            raise GameError(f"step {i} out of range 1..{self.horizon}")
        return _bool_from_mask(self.beliefs[i], self.n)

    def to_dict(self) -> dict:
        return {
            "graph_spec": self.graph_spec,
            "n": self.n,
            "horizon": self.horizon,
            "c": self.c,
            "m": self.m,
            "b": self.b,
            "belief_radius": self.belief_radius,
            "belief_center": self.belief_center,
            "meta": self.meta,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def mask_radius(oracle: DistanceOracle, members: np.ndarray) -> tuple[int, int]:
    """Exact radius and lowest-id center of a non-empty believed set given as
    a bool mask of shape (n,) (`DistanceOracle.set_radius`); rows come from
    the oracle's cache, or from its matrix when a caller built one."""
    return oracle.set_radius(members)


# One kernel per oracle, built by its first belief-tracking game; a weak key
# frees the kernel with its oracle, which the kernel does not reference.
_kernels: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kernel_for(oracle: DistanceOracle) -> BeliefKernel:
    # Two threads may both build one oracle's kernel; either is right, since
    # a kernel is read-only and update_bool is pure.
    kernel = _kernels.get(oracle)
    if kernel is None:
        kernel = _kernels[oracle] = BeliefKernel(oracle)
    return kernel


def run_game(
    g: Graph,
    cat: CatStrategy,
    mouse: MouseStrategy,
    horizon: int,
    *,
    track_belief: bool = False,
    track_radius: bool | None = None,
    oracle: DistanceOracle,
    graph_spec: str | None = None,
    meta: dict | None = None,
) -> Transcript:
    """Run one game for `horizon` steps and record the transcript.

    Each step, step 1 included, is one pass of the loop: the cat's
    `next_query(b[i - 1])` comes first; the mouse's `next_move(view)` then
    moves with c_i in `view.c[i]` and may simulate the cat through the view.
    Queries and moves must be integers (numpy integers are stored as Python
    ints); the move is checked against the range at step 1 and against the
    closed neighborhood after.  With
    track_belief the exact belief mask is recorded per step (M_1 = V);
    track_radius (default: same as track_belief) additionally records
    rad_G(M_i) and its center by `mask_radius`, and requires track_belief.
    `oracle` must be g's own: every bit reads its distances.
    """
    if horizon < 1:
        raise GameError(f"horizon must be >= 1, got {horizon}")
    if track_radius is None:
        track_radius = track_belief
    if track_radius and not track_belief:
        raise GameError("track_radius=True needs track_belief=True")
    oracle.check_graph(g)
    view = GameView(oracle, cat)

    kernel = _kernel_for(oracle) if track_belief else None
    beliefs: list | None = [None] if track_belief else None
    radii: list | None = [None] if track_radius else None
    centers: list | None = [None] if track_radius else None

    c = view.c
    m = view.m
    b = view.b
    members = np.ones(g.n, dtype=bool) if track_belief else None

    for i in range(1, horizon + 1):
        view.step = i
        ci = cat.next_query(b[i - 1])  # b[0] and b[1] are None: no bit before step 2
        if type(ci) is not int:  # the common case skips a call per step
            ci = _vertex_id(i, "cat query", ci)
        if not (0 <= ci < g.n):
            raise RuleViolationError(f"step {i}: cat query {ci} out of range")
        c.append(ci)
        mi = mouse.next_move(view)
        if type(mi) is not int:
            mi = _vertex_id(i, "mouse move", mi)
        prev_m = m[i - 1]
        if i == 1:
            if not (0 <= mi < g.n):
                raise RuleViolationError(f"step 1: mouse start {mi} out of range")
        elif mi != prev_m and mi not in g.adjacency[prev_m]:
            raise RuleViolationError(
                f"step {i}: mouse moved {prev_m} -> {mi}, not in closed neighborhood"
            )
        m.append(mi)
        row_cur = oracle.row(ci)  # the one row read of this step
        if i >= 2:
            bit = feedback_bit(int(row_prev[prev_m]), int(row_cur[mi]))
            b.append(bit)
            if track_belief:
                members = kernel.update_bool(members, row_prev, row_cur, bit)
                if not members[mi]:
                    if not members.any():
                        raise IllegalFeedbackError(f"belief set emptied at step {i}")
                    raise GameError(
                        f"step {i}: true mouse position {mi} fell out of the belief set"
                    )
        row_prev = row_cur

        if track_belief:
            beliefs.append(_mask_from_bool(members))
            if track_radius:
                r, ctr = mask_radius(oracle, members)
                radii.append(r)
                centers.append(ctr)

    full_meta = dict(meta or {})
    full_meta.setdefault("version", TRANSCRIPT_VERSION)
    return Transcript(
        graph_spec=graph_spec or f"custom:n={g.n}",
        n=g.n,
        horizon=horizon,
        c=c,
        m=m,
        b=b,
        beliefs=beliefs,
        belief_radius=radii,
        belief_center=centers,
        meta=full_meta,
    )


@dataclass(frozen=True)
class LocalizationReport:
    first_success_step: int | None
    min_radius: int
    argmin_step: int


def localization_report(tr: Transcript, d: int) -> LocalizationReport:
    """First step whose belief radius is <= d, plus the overall minimum.

    Requires a transcript with tracked belief radii.
    """
    if tr.belief_radius is None:
        raise GameError("localization_report needs a transcript with tracked beliefs")
    first = None
    best = None
    best_step = None
    for i in range(1, tr.horizon + 1):
        r = tr.belief_radius[i]
        if first is None and r <= d:
            first = i
        if best is None or r < best:
            best = r
            best_step = i
    return LocalizationReport(first, best, best_step)

