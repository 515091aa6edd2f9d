"""Cat strategies: ball-cover elimination, sphere-walk descent, their sqrt-n
composition, and deterministic baselines.

Both core strategies are `EliminationCat`, the one pair machine: they query
in pairs (odd step, even step) and decide from the bit that compares the
pair's two queries; the cross-pair bit delivered before an even query
carries no information for them and is ignored.  They differ only in where
the challengers come from.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np

from .engine import CatStrategy
from .graphs import (
    BallCover,
    DistanceOracle,
    Graph,
    GraphError,
    ceil_sqrt,
    read_int,
    read_spec,
    scattered_cover,
    sphere,
)


class EliminationCat(CatStrategy):
    """The one pair machine behind both core cats: champion elimination.

    Pair j (steps 2j-1, 2j) queries the champion, then the round's next
    challenger; a bit of 1 before the next odd step promotes the
    challenger.  Once a round's challengers are used up, `_next_round` gives
    the next round's, and () holds the champion forever.  `_next_round` is
    a method, never a callable stored on the instance: `clone` is a shallow
    copy, so a stored bound method would drive the live cat from a clone.
    """

    def __init__(self, champion: int, challengers: tuple[int, ...]) -> None:
        self._champ = champion
        self._U = challengers
        self._u_pos = 0
        self._pairs = 0
        self._emitted = 0
        self._pending: int | None = None  # challenger of the open pair

    def _next_round(self) -> tuple[int, ...]:
        return ()

    def next_query(self, bit: int | None) -> int:
        t = self._emitted + 1
        self._emitted = t
        if t % 2 == 0:
            if self._u_pos < len(self._U):
                self._pending = self._U[self._u_pos]
                self._u_pos += 1
                self._pairs += 1
                return self._pending
        elif self._pending is not None:
            if bit == 1:
                self._champ = self._pending
            self._pending = None
            if self._u_pos >= len(self._U):
                self._U, self._u_pos = self._next_round(), 0
        return self._champ


class BallCoverCat(EliminationCat):
    """Pairwise elimination over the centers of a ball cover.

    Round i (steps 2i-1, 2i) queries the current champion, then center i+1.
    After round L-1 the final champion is queried forever, which keeps the
    belief radius bounded on longer horizons.  For every legal mouse the
    champion ends within 4L + k of the mouse's position at step 2L-1.
    """

    def __init__(self, oracle: DistanceOracle, cover: BallCover) -> None:
        cover.validate(oracle)
        self.cover = cover
        self.spec = f"fat:L={cover.count},k={cover.radius_k}"
        super().__init__(cover.centers[0], cover.centers[1:])

    @property
    def champion_vertex(self) -> int:
        return self._champ

    @property
    def guarantee(self) -> int:
        """Distance bound the final champion satisfies: 4L + k."""
        return 4 * self.cover.count + self.cover.radius_k


class SphereWalkCat(EliminationCat):
    """Anchor descent through thin sphere levels.

    Each phase fixes an anchor v and eliminates over the sphere at its thin
    level in ascending id order; the phase's winner becomes the next anchor.
    Phases stop once ceil(D/2) pairs have been played (or a sphere comes up
    empty, which certifies that everything is within the thin level
    already) and the anchor is then held forever.
    """

    def __init__(self, oracle: DistanceOracle, K: int) -> None:
        self.oracle = oracle
        self.K = K
        levels = oracle.thin_levels(K)
        missing = np.flatnonzero(levels < 0)
        if missing.size:
            raise GraphError(
                f"vertex {missing[0]} has no sphere of size < l/4 below K={K}; "
                "raise K"
            )
        self.levels = levels
        self.D = oracle.diameter()
        self.stop_pairs = (self.D + 1) // 2
        self.spec = f"thin:K={K}"
        # Newest-first chain ((pairs, anchor), older): O(1) to extend and
        # never mutated, so a clone shares it safely.
        self._phase_log: tuple = ((0, 0), None)
        super().__init__(0, sphere(oracle, 0, int(levels[0])))

    @property
    def phase_log(self) -> tuple[tuple[int, int], ...]:
        """Boundaries as (pairs played, anchor) tuples, first entry (0, v1)."""
        out, node = [], self._phase_log
        while node is not None:
            entry, node = node
            out.append(entry)
        return tuple(reversed(out))

    def _next_round(self) -> tuple[int, ...]:
        self._phase_log = ((self._pairs, self._champ), self._phase_log)
        if self._pairs >= self.stop_pairs:
            return ()
        # An empty sphere at the thin level puts every vertex closer than the
        # level, so holding the anchor already localizes.
        return sphere(self.oracle, self._champ, int(self.levels[self._champ]))


class SweepCat(CatStrategy):
    """Queries 0, 1, ..., n-1 cyclically, ignoring all bits."""

    def __init__(self, g: Graph) -> None:
        self.n = g.n
        self.spec = "sweep"
        self._emitted = 0

    def next_query(self, bit: int | None) -> int:
        self._emitted += 1
        return (self._emitted - 1) % self.n


class StayCat(CatStrategy):
    """Queries vertex 0 forever."""

    def __init__(self, g: Graph) -> None:
        self.spec = "stay"

    def next_query(self, bit: int | None) -> int:
        return 0


class SeededRandomCat(CatStrategy):
    """Pseudo-random queries derived from a seed and the bit history.

    Every query is a pure function of (seed, bits so far), which keeps the
    strategy inside the deterministic-strategy rule while looking random.
    """

    def __init__(self, g: Graph, seed: int) -> None:
        self.n = g.n
        self.seed = seed
        self.spec = f"rand:seed={seed}"
        self._emitted = 0
        self._bits = ""  # the bit history as digits, so a query hashes it as is

    def _derive(self, t: int) -> int:
        payload = f"{self.seed}|{t}|{self._bits}"
        digest = hashlib.sha256(payload.encode()).digest()
        return int.from_bytes(digest[:8], "big") % self.n

    def next_query(self, bit: int | None) -> int:
        if bit is not None:
            self._bits += str(bit)
        self._emitted += 1
        return self._derive(self._emitted)


class ScriptedCat(CatStrategy):
    """Plays a fixed query list, repeating the last entry when exhausted."""

    def __init__(self, queries) -> None:
        self.queries = tuple(queries)
        if not self.queries:
            raise GraphError("scripted cat needs at least one query")
        self.spec = "scripted"
        self._emitted = 0

    def next_query(self, bit: int | None) -> int:
        self._emitted += 1
        return self.queries[min(self._emitted, len(self.queries)) - 1]


def auto_thin_K(g: Graph, oracle: DistanceOracle) -> int:
    """Smallest K of the form max(ceil(3*sqrt(n)), minimal valid) so the
    sphere-walk cat is always constructible; `oracle` must be g's own."""
    oracle.check_graph(g)
    K = ceil_sqrt(9 * g.n)
    cap = g.n + 2
    levels = oracle.thin_levels(cap)
    needed = int(levels.max()) + 1
    return max(K, needed)


def sqrt_cat(oracle: DistanceOracle) -> BallCoverCat:
    """Composed strategy: scattered cover at separation ceil(sqrt(8n)), then
    ball-cover elimination.

    Localizes to distance at most ceil(sqrt(32n)) within ceil(sqrt(2n))
    steps on any connected graph.
    """
    n = oracle.graph.n
    if n < 2:
        raise GraphError("sqrt cat needs n >= 2")
    cat = BallCoverCat(oracle, scattered_cover(oracle, ceil_sqrt(8 * n)))
    cat.spec = "sqrt"
    return cat


_DECIMAL = re.compile(r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?", re.ASCII)


def _fat_c(val: str) -> str:
    """The fat cat's c: plain ASCII decimal text, finite and positive, kept
    as written because the cat's spec string repeats it verbatim."""
    if not (_DECIMAL.fullmatch(val) and 0 < float(val) < math.inf):
        raise ValueError(val)
    return val


def parse_cat_spec(
    spec: str,
    g: Graph,
    oracle: DistanceOracle,
    default_seed: int = 0,
) -> CatStrategy:
    """Build a cat from its CLI spec string; `oracle` must be g's own.

    Forms: "sqrt", "sweep", "stay", "rand" / "rand:seed=7", "fat:c=2.83",
    "thin:K=auto" / "thin:K=12".  A bare "rand" uses `default_seed`.
    """
    oracle.check_graph(g)
    kind, v = read_spec(spec, {
        "sqrt": {},
        "sweep": {},
        "stay": {},
        "rand": {"seed": (read_int, default_seed)},
        "fat": {"c": (_fat_c, None)},
        "thin": {"K": (lambda text: text if text == "auto" else read_int(text, 1), None)},
    })
    if kind == "sqrt":
        return sqrt_cat(oracle)
    plain = {"sweep": SweepCat, "stay": StayCat, "rand": SeededRandomCat}.get(kind)
    if plain:
        return plain(g, **v)
    if kind == "fat":
        scaled = float(v["c"]) * math.sqrt(g.n)
        if not math.isfinite(scaled):
            raise GraphError(f"spec {spec!r}: bad value {v['c']!r} for field 'c'")
        cat = BallCoverCat(oracle, scattered_cover(oracle, max(1, math.ceil(scaled))))
        cat.spec = f"fat:c={v['c']}"
        return cat
    K = v["K"]
    cat = SphereWalkCat(oracle, auto_thin_K(g, oracle) if K == "auto" else K)
    cat.spec = f"thin:K={K}"
    return cat
