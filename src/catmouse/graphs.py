"""Immutable graphs, shortest-path metric, ball covers, thin levels and generators.

Vertices are always the integers 0..n-1.  All graphs are simple, undirected
and connected; the constructor enforces this so every other module can rely
on it.  Distances come from a BFS oracle that keeps its rows in one store
under a byte budget; a caller may also have it build the all-pairs matrix.
The oracle's set-up tables read fewer rows: the thin-level table grows every
ball at once as a bitset and reads none, and the diameter prunes by
eccentricity bounds.  A function that reads distances takes the oracle,
whose `graph` is the graph.
"""

from __future__ import annotations

import math
import random
import threading
from collections import deque
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_

import numpy as np


class GraphError(ValueError):
    """Invalid graph structure or graph operation input."""


class ParseError(GraphError):
    """Malformed edge-list text; the message names the offending line."""


def ceil_sqrt(x: int) -> int:
    """Smallest integer >= sqrt(x), computed exactly."""
    if x < 0:
        raise ValueError("ceil_sqrt of negative number")
    r = math.isqrt(x)
    return r if r * r == x else r + 1


class Graph:
    """Simple undirected connected graph over vertex ids 0..n-1.

    Adjacency lists are sorted ascending so iteration order is deterministic.
    Instances are immutable once constructed and safe to share across threads.
    """

    __slots__ = ("n", "adjacency", "edge_count")

    def __init__(self, n: int, edges) -> None:
        if n < 1:
            raise GraphError(f"graph needs at least one vertex, got n={n}")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge ({u},{v})")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self.n = n
        self.edge_count = len(seen)
        reached = int(np.count_nonzero(bfs_distances(self, 0) >= 0))
        if reached != n:
            raise GraphError(f"graph is disconnected ({reached} of {n} reachable)")

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min, max) pairs, sorted."""
        out = []
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    out.append((u, v))
        return sorted(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Distances from source to every vertex, as an int32 array.

    Entry `source` is 0.  Every entry is finite because the graph is
    connected; `Graph` checks that by counting the entries that are not -1.
    """
    if not (0 <= source < g.n):
        raise GraphError(f"source {source} out of range for n={g.n}")
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    adjacency = g.adjacency
    while queue:
        u = queue.popleft()
        du = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = du
                queue.append(v)
    row = np.array(dist, dtype=np.int32)
    row.flags.writeable = False
    return row


class DistanceOracle:
    """Caching distance oracle over a fixed graph.

    Every row lives in one dict, bounded by `row_bytes`: a miss runs a BFS
    and evicts the oldest rows while over budget; a hit changes nothing.
    `full_matrix` (when n rows fit the budget) fills the dict with its row
    views.  Fills, evictions and the matrix build take a lock and reads take
    none, so concurrent readers always observe correct distances.  The
    cached whole-graph tables cost less than n rows: `thin_levels` reads no
    row, and `diameter` reads a few on most graphs.
    """

    # 64 MiB: every row of any graph up to n = 4096, and 838 rows of
    # path:n=20000, where a cap of 4096 rows held 330 MB.
    row_bytes = 4096 * 4096 * 4
    radius_eval_budget = 64

    def __init__(self, g: Graph) -> None:
        self.graph = g
        self._rows: dict[int, np.ndarray] = {}  # insertion order is age
        self._matrix: np.ndarray | None = None
        self._diameter: int | None = None
        self._radius: tuple[int, int] | None = None
        self._lock = threading.Lock()
        self._thin_table: np.ndarray | None = None

    def check_graph(self, g: Graph) -> None:
        """Raise unless this oracle was built on g itself, not on a copy."""
        if self.graph is not g:
            raise GraphError(f"oracle is over {self.graph!r}, not the given {g!r}")

    def row(self, v: int) -> np.ndarray:
        """Distance row from v (read-only).  Only ids 0..n-1 are keys."""
        cached = self._rows.get(v)
        if cached is not None:
            return cached
        if not (0 <= v < self.graph.n):
            raise GraphError(f"source {v} out of range for n={self.graph.n}")
        computed = bfs_distances(self.graph, v)
        with self._lock:
            self._rows[v] = computed
            while len(self._rows) * computed.nbytes > self.row_bytes:
                del self._rows[next(iter(self._rows))]
        return computed

    def distance(self, u: int, v: int) -> int:
        row = self.row(u)
        if not (0 <= v < self.graph.n):
            raise GraphError(f"target {v} out of range for n={self.graph.n}")
        return int(row[v])

    def full_matrix(self) -> np.ndarray:
        """All-pairs distance matrix (read-only), n x n int32; its rows then
        serve every `row` read."""
        if self._matrix is None:
            n = self.graph.n
            if 4 * n * n > self.row_bytes:
                raise GraphError(
                    f"full matrix refused: n={n} needs {4 * n * n} bytes, over "
                    f"the threshold row_bytes={self.row_bytes}"
                )
            with self._lock:
                if self._matrix is None:
                    mat = np.empty((n, n), dtype=np.int32)
                    for v in range(n):
                        row = self._rows.get(v)
                        mat[v] = row if row is not None else bfs_distances(
                            self.graph, v
                        )
                    mat.flags.writeable = False
                    self._matrix = mat
                    self._rows = dict(enumerate(mat))
        return self._matrix

    def eccentricity(self, v: int) -> int:
        return int(self.row(v).max())

    def diameter(self) -> int:
        """Largest eccentricity, cached.  Bounding diameters (Takes & Kosters
        2013) over oracle rows: an evaluated vertex w, with e = ecc(w) and
        d = d(w, v), bounds every ecc(v) by lb(v) = max(d, e - d) from below
        and ub(v) = e + d from above.  Vertices are evaluated in turn, the
        live one with the least lb, then the one with the greatest ub (lowest
        id on ties), and every vertex whose ub is at most the best
        eccentricity so far is dropped, until none is left.  The result is
        exact for any choice order; this one reads 2 to 5 rows on paths,
        grids and spiders, and n on a cycle, where every vertex is
        peripheral."""
        if self._diameter is None:
            n = self.graph.n
            lb = np.zeros(n, dtype=np.int32)
            ub = np.full(n, 2 * n, dtype=np.int32)  # above every e + d
            live = np.ones(n, dtype=bool)
            best, low = 0, True
            while live.any():
                if low:
                    v = int(np.where(live, lb, n).argmin())
                else:
                    v = int(np.where(live, ub, -1).argmax())
                low = not low
                row = self.row(v)
                e = int(row.max())
                best = max(best, e)
                np.maximum(lb, np.maximum(row, e - row), out=lb)
                np.minimum(ub, e + row, out=ub)
                live &= ub > best
            self._diameter = best
        return self._diameter

    def set_radius(self, members: np.ndarray) -> tuple[int, int]:
        """Exact radius and lowest-id center of a non-empty vertex set M,
        given as a bool mask of shape (n,): the least ecc_M(v) = max over w
        in M of d(v, w), over all v.

        Eccentricity-bound pruning (Takes & Kosters 2013): lb(v) is the max
        of d(x, v) over some members x, so lb(v) <= ecc_M(v).  It starts from
        a double sweep, members a (the lowest id), b (farthest from a in M)
        and c (farthest from b), and takes in the member farthest from each
        evaluated vertex whose bound fell short.  Vertices are evaluated in
        (lb, id) order until the next cannot beat the best (ecc, id) so far,
        so the center is the lowest id; an evaluated vertex whose ecc equals
        its lb ends the search at once, since it was the least (lb, id) and
        raised no bound.  Where the bound cannot cut, after
        `radius_eval_budget` evaluations, the elementwise max of the members'
        rows gives every ecc_M at once (distance is symmetric).  The result
        for M = V is cached.
        """
        n = self.graph.n
        if members.dtype != bool or members.shape != (n,):
            raise GraphError(
                f"set radius needs a bool mask of shape ({n},), "
                f"got {members.dtype} of shape {members.shape}"
            )
        ids = members.nonzero()[0]
        if ids.size == 0:
            raise GraphError(f"set radius needs a non-empty bool mask of shape ({n},)")
        whole = ids.size == n
        if whole and self._radius is not None:
            return self._radius
        row_a = self.row(int(ids[0]))
        row_b = self.row(int(ids[row_a[ids].argmax()]))
        row_c = self.row(int(ids[row_b[ids].argmax()]))
        lb = np.maximum(row_a, row_b)
        np.maximum(lb, row_c, out=lb)
        best, center = n, n
        for _ in range(self.radius_eval_budget):
            v = int(lb.argmin())
            bound = int(lb[v])
            if bound > best or (bound == best and v > center):
                break
            far = self.row(v)[ids]
            e = int(far.max())
            if e < best or (e == best and v < center):
                best, center = e, v
            if e == bound:
                break
            np.maximum(lb, self.row(int(ids[far.argmax()])), out=lb)
            lb[v] = n  # above every distance: marks v evaluated
        else:
            ecc = np.zeros(n, dtype=np.int32)
            for w in ids.tolist():
                np.maximum(ecc, self.row(w), out=ecc)
            center = int(ecc.argmin())
            best = int(ecc[center])
        if whole:
            self._radius = (best, center)
        return best, center

    def thin_levels(self, K: int) -> np.ndarray:
        """Per-vertex thin level below K (-1 if none), read-only.  The thin
        level of v is the smallest l >= 1 whose sphere around v has fewer
        than l/4 vertices, by the exact test 4*|sphere| < l.  One table of
        levels without a cap is built once and masked by K; every vertex has
        a level at most ecc(v) + 1, where the sphere is empty.

        The table reads no BFS row: every vertex's ball grows at once, as a
        Python-int bitset.  B_0[v] = {v}, B_l[v] is the union of B_{l-1}[u]
        over u in N[v], and |S_l(v)| = |B_l[v]| - |B_{l-1}[v]|.  A level
        costs n + 2m ORs of n-bit ints, the sweep stops at the largest thin
        level, and the two live lists of balls take about n^2/4 bytes."""
        if K < 1:
            raise GraphError(f"K must be >= 1, got {K}")
        if self._thin_table is None:
            n = self.graph.n
            closed = [(v, *nbrs) for v, nbrs in enumerate(self.graph.adjacency)]
            balls = [1 << v for v in range(n)]
            sizes = [1] * n
            table = np.empty(n, dtype=np.int32)
            pending = range(n)
            level = 0
            while pending:
                level += 1
                get = balls.__getitem__
                balls = [reduce(or_, map(get, nbrs)) for nbrs in closed]
                left = []
                for v in pending:
                    size = balls[v].bit_count()
                    if 4 * (size - sizes[v]) < level:
                        table[v] = level
                    else:
                        sizes[v] = size
                        left.append(v)
                pending = left
            self._thin_table = table
        out = np.where(self._thin_table < K, self._thin_table, -1)
        out.flags.writeable = False
        return out


def sphere(oracle: DistanceOracle, v: int, level: int) -> tuple[int, ...]:
    """Vertices at distance exactly `level` from v, ascending ids.

    Empty beyond the eccentricity of v; level 0 yields (v,).
    """
    if level < 0:
        raise GraphError(f"sphere level must be >= 0, got {level}")
    row = oracle.row(v)
    return tuple(np.flatnonzero(row == level).tolist())


@dataclass(frozen=True)
class BallCover:
    """Centers u_1..u_L with a radius k such that the k-balls cover V."""

    centers: tuple[int, ...]
    radius_k: int

    @property
    def count(self) -> int:
        return len(self.centers)

    def validate(self, oracle: DistanceOracle) -> None:
        """Raise unless every vertex lies within radius_k of some center."""
        if not self.centers:
            raise GraphError("ball cover has no centers")
        nearest = oracle.row(self.centers[0]).copy()
        for c in self.centers[1:]:
            np.minimum(nearest, oracle.row(c), out=nearest)
        far = int(nearest.max())
        if far > self.radius_k:
            bad = int(nearest.argmax())
            raise GraphError(
                f"vertex {bad} at distance {far} > radius {self.radius_k} "
                "from every center"
            )


def scattered_cover(oracle: DistanceOracle, separation: int) -> BallCover:
    """Greedy maximal scattered set, returned as a ball cover.

    Scans vertices in ascending id and keeps v when it is at distance >=
    separation from every center chosen so far.  Maximality puts every vertex
    within separation - 1 of some center, so radius_k = separation - 1.  The
    scan is one compare over the ids after the last center, which finds the
    next, and one row read per center.
    """
    if separation < 1:
        raise GraphError(f"separation must be >= 1, got {separation}")
    nearest = oracle.row(0).copy()
    centers = [0]
    v = 0
    while v + 1 < oracle.graph.n:
        far = nearest[v + 1 :] >= separation
        step = int(far.argmax())
        if not far[step]:
            break
        v += 1 + step
        centers.append(v)
        np.minimum(nearest, oracle.row(v), out=nearest)
    return BallCover(centers=tuple(centers), radius_k=separation - 1)


@dataclass(frozen=True)
class SpiderSpec:
    """Spider tree parameters: t branches of t vertices each, plus an
    optional padding branch of `extra` vertices."""

    t: int
    extra: int = 0

    def __post_init__(self) -> None:
        if self.t < 1:
            raise GraphError(f"spider needs t >= 1, got {self.t}")
        if self.extra < 0:
            raise GraphError(f"spider extra must be >= 0, got {self.extra}")

    @property
    def n(self) -> int:
        return self.t * self.t + 1 + self.extra

    def branch_of(self, v: int) -> int | None:
        """Branch id of vertex v: 1..t for main branches, t+1 for the padding
        branch, None for the center."""
        if v == 0:
            return None
        if v <= self.t * self.t:
            return (v - 1) // self.t + 1
        return self.t + 1

    def depth_of(self, v: int) -> int:
        """Distance from the center under the fixed id layout."""
        if v == 0:
            return 0
        if v <= self.t * self.t:
            return (v - 1) % self.t + 1
        return v - self.t * self.t

    def vertex_at(self, branch: int, depth: int) -> int:
        """Vertex id at the given depth (1-based) of a main branch; depth 0 is
        the center regardless of branch."""
        if depth == 0:
            return 0
        if not (1 <= branch <= self.t and 1 <= depth <= self.t):
            raise GraphError(f"no spider vertex at branch {branch}, depth {depth}")
        return 1 + (branch - 1) * self.t + (depth - 1)


@lru_cache(maxsize=16)
def gen_spider(spec: SpiderSpec) -> Graph:
    """Spider tree: center 0 with t branches of t vertices laid out
    contiguously, then the padding branch.  Graphs are immutable, so one
    graph per spec is shared: the spider evader checks its game graph
    against this one on every game."""
    t, extra = spec.t, spec.extra
    edges = []
    for b in range(t):
        first = 1 + b * t
        edges.append((0, first))
        for k in range(t - 1):
            edges.append((first + k, first + k + 1))
    base = t * t
    if extra > 0:
        edges.append((0, base + 1))
        for k in range(extra - 1):
            edges.append((base + 1 + k, base + 2 + k))
    return Graph(spec.n, edges)


def gen_path(n: int) -> Graph:
    if n < 2:
        raise GraphError(f"path needs n >= 2, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_grid(rows: int, cols: int) -> Graph:
    """Grid graph in row-major vertex order."""
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise GraphError(f"grid needs rows,cols >= 1 and n >= 2, got {rows}x{cols}")
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random attachment tree: vertex v attaches to a uniformly
    chosen earlier vertex under the seeded generator."""
    if n < 2:
        raise GraphError(f"random tree needs n >= 2, got {n}")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def read_int(text: str, low: int | None = None, high: int | None = None) -> int:
    """The integer that `text` spells in ASCII digits after an optional '-'
    (no '+', '_', space or other digit); ValueError otherwise, below `low` or
    above `high`."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    value = int(text)
    if low is not None and value < low:
        raise ValueError(f"must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"must be <= {high}, got {value}")
    return value


def read_fields(items, fields: dict) -> tuple[dict, list[str]]:
    """Values and problems for `(where, key, raw value)` items.

    `fields` maps each allowed key to (converter, default); a default of None
    makes the key required, and an empty map means no field is allowed.  A
    converter takes the raw value and raises ValueError on one it rejects.
    An item whose key is None carries a problem its caller found while
    splitting.  Each key gets at most one problem: unknown, given twice,
    empty, bad value or missing.  Each problem starts with its item's
    `where`; a missing field has none.
    """
    values, problems, seen, faulty = {}, [], set(), set()
    for where, key, raw in items:
        if key is None:
            problems.append(where + raw)
            continue
        if key in faulty:
            continue
        problem = None
        if key in seen:
            problem = f"field {key!r} given twice"
        elif key not in fields:
            allowed = ", ".join(fields) or "no fields"
            problem = f"unknown field {key!r} (allowed: {allowed})"
        elif not raw.strip():
            problem = f"field {key!r} is empty"
        else:
            try:
                values[key] = fields[key][0](raw)
            except ValueError:
                problem = f"bad value {raw!r} for field {key!r}"
        seen.add(key)
        if problem:
            faulty.add(key)
            problems.append(where + problem)
    for key, (_, default) in fields.items():
        if key not in seen:
            if default is None:
                problems.append(f"missing field {key!r}")
            else:
                values[key] = default
    return values, problems


def read_spec(spec: str, kinds: dict) -> tuple[str, dict]:
    """The kind and field values of a `kind[:key=value,...]` spec.  `kinds`
    maps each allowed kind to its field table for `read_fields`.  Keys and
    values are stripped once; a bare value (no '=') fills the kind's first
    field.  An unknown kind, or the first field problem, raises GraphError."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    if kind not in kinds:
        raise GraphError(
            f"spec {spec!r}: unknown kind {kind!r} (allowed: {', '.join(kinds)})"
        )
    fields = kinds[kind]
    first = next(iter(fields), None)
    items = []
    rest = rest.strip()
    for part in rest.split(",") if rest else ():
        key, sep, val = part.partition("=")
        if sep:
            items.append(("", key.strip(), val.strip()))
        elif part.strip() and first is not None:
            items.append(("", first, part.strip()))
        else:
            items.append(("", None, f"field {part.strip()!r} is not key=value"))
    values, problems = read_fields(items, fields)
    if problems:
        raise GraphError(f"spec {spec!r}: {problems[0]}")
    return kind, values


# The ceiling on a spec's vertices: path:n=1000000 builds in 2.9 s of CPU
# and adds 434 MB of RSS, so a larger graph is a usage error, not a run out
# of memory.  A file: graph is bounded by its file.
MAX_VERTICES = 1_000_000


def _grid_shape(text: str) -> tuple[int, int]:
    rows, cols = text.split("x")  # ValueError unless exactly one 'x'
    rows, cols = read_int(rows, 1), read_int(cols, 1)
    if not 2 <= rows * cols <= MAX_VERTICES:
        raise ValueError(f"grid needs 2 <= n <= {MAX_VERTICES}, got {rows}x{cols}")
    return rows, cols


# The floors repeat the generators' own checks, which stay for callers in
# code; here they and the ceiling let `read_spec` name the spec and the
# field.  The spider's ceiling needs both fields, so `parse_graph_spec`
# checks it.
GRAPH_KINDS = {
    "path": {"n": (lambda text: read_int(text, 2, MAX_VERTICES), None)},
    "cycle": {"n": (lambda text: read_int(text, 3, MAX_VERTICES), None)},
    "grid": {"shape": (_grid_shape, None)},
    "rt": {"n": (lambda text: read_int(text, 2, MAX_VERTICES), None), "seed": (read_int, 0)},
    "spider": {
        "t": (lambda text: read_int(text, 1), None),
        "extra": (lambda text: read_int(text, 0), 0),
    },
    "file": {"path": (str, None)},  # parse_graph_spec reads PATH verbatim
}


def parse_graph_spec(spec: str) -> tuple[Graph, str]:
    """(graph, canonical spec) for a spec of GRAPH_KINDS, such as "path:n=5",
    "grid:3x4" or "spider:t=12,extra=0"; "file:PATH" takes PATH verbatim,
    since a path may hold ',' or '='."""
    kind, _, path = spec.partition(":")
    if kind.strip() == "file":
        return parse_graph(read_text(path.strip())), spec
    kind, v = read_spec(spec, GRAPH_KINDS)
    if kind == "grid":
        rows, cols = v["shape"]
        return gen_grid(rows, cols), f"grid:{rows}x{cols}"
    if kind == "spider" and (n := SpiderSpec(**v).n) > MAX_VERTICES:
        raise GraphError(
            f"spec {spec!r}: fields 't' and 'extra' make t*t + 1 + extra = {n} "
            f"vertices, more than {MAX_VERTICES}"
        )
    build = {"path": gen_path, "cycle": gen_cycle, "rt": gen_random_tree}.get(kind)
    g = build(**v) if build else gen_spider(SpiderSpec(**v))
    return g, f"{kind}:" + ",".join(f"{key}={v[key]}" for key in GRAPH_KINDS[kind])


def read_text(path: str) -> str:
    """A UTF-8 text file's contents; GraphError (naming it) if not UTF-8."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise GraphError(f"{path!r} is not UTF-8 text: {exc}") from None


def parse_graph(text: str) -> Graph:
    """Parse the edge-list text format: header "n m", then m lines "u v".

    Lines starting with '#' are ignored.  A malformed line, a header no
    connected graph can match and an edge `Graph` rejects raise ParseError
    naming the line; a disconnected graph names the header line.
    """
    header = None
    edges = []
    header_line = 0
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            a, b = map(read_int, line.split())  # ValueError unless two integers
        except ValueError:
            raise ParseError(f"line {idx}: expected two integers, got {raw!r}") from None
        if header is None:
            header = (a, b)
            header_line = idx
        else:
            edges.append((idx, a, b))
    if header is None:
        raise ParseError("line 1: missing header 'n m'")
    n, m = header
    if n < 1 or m < 0:
        raise ParseError(f"line {header_line}: invalid header n={n} m={m}")
    if m < n - 1:
        raise ParseError(
            f"line {header_line}: header declares {m} edges, and a graph on "
            f"{n} vertices with fewer than {n - 1} edges is disconnected"
        )
    if len(edges) != m:
        raise ParseError(
            f"line {header_line}: header declares {m} edges, found {len(edges)}"
        )
    at = header_line

    def pairs():  # `at` follows the edge Graph is reading, then the header
        nonlocal at
        for at, u, v in edges:
            yield u, v
        at = header_line

    try:
        return Graph(n, pairs())
    except GraphError as exc:
        raise ParseError(f"line {at}: {exc}") from None


def write_graph(g: Graph) -> str:
    """Edge-list text for g; round-trips through parse_graph.

    Edges are emitted sorted by (min endpoint, max endpoint).
    """
    out = [f"{g.n} {g.edge_count}"]
    out.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(out) + "\n"
