"""Checks of game transcripts against the benchmark's own arithmetic.

Nothing here calls into catmouse.  Distances come from the layout of the
two graphs the workloads use: on a path, d(u, v) = |u - v|; on a spider with
t branches of t vertices (centre 0, branch b holding ids 1+(b-1)t ..
bt in order of depth), d(u, v) is |depth difference| on one branch and the
depth sum across branches.  From these the checks recompute every bit, judge
every mouse move, rebuild every belief set by forward reachability, and take
radii with the tree identity rad(M) = ceil(diam(M) / 2).

`check_game` returns None for a transcript that passes, or a one-line
reason naming the step and what is wrong.
"""

from __future__ import annotations

import numpy as np


class PathMetric:
    """Path 0 - 1 - ... - n-1.  A belief set is an int with bit v for vertex v."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.full = (1 << n) - 1

    def dist(self, u: int, v: int) -> int:
        return abs(u - v)

    def start(self) -> int:
        return self.full

    def _no_farther(self, a: int, b: int) -> int:
        """Vertices v with |v - a| <= |v - b|: a half-line, or all if a == b."""
        if a == b:
            return self.full
        if a < b:
            return self.full & ((1 << ((a + b) // 2 + 1)) - 1)
        return self.full & ~((1 << max(0, -(-(a + b) // 2))) - 1)

    def step(self, mask: int, c_prev: int, c_cur: int, bit: int) -> int:
        """Moves u -> v = u + s for s in (-1, 0, 1) give bit 1 iff
        |c_cur - v| <= |c_prev - (v - s)|; keep the v whose bit matches."""
        out = 0
        for s, moved in ((-1, mask >> 1), (0, mask), (1, mask << 1)):
            near = self._no_farther(c_cur, c_prev + s)
            out |= moved & (near if bit else ~near)
        return out & self.full

    def mask(self, mask: int) -> int:
        return mask

    def radius(self, mask: int) -> tuple[int, int | None]:
        """Radius and lowest-id centre: the midpoint of the extremes."""
        lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        return (hi - lo + 1) // 2, (lo + hi) // 2


class SpiderMetric:
    """Spider with t branches of t vertices and no padding branch.  A belief
    set is a bool array over the vertices."""

    def __init__(self, t: int) -> None:
        self.t = t
        self.n = t * t + 1
        ids = np.arange(self.n)
        depth = np.where(ids == 0, 0, (ids - 1) % t + 1)
        branch = np.where(ids == 0, 0, (ids - 1) // t + 1)
        one_arm = (branch[:, None] == branch[None, :]) | (ids[:, None] == 0) | (ids[None, :] == 0)
        self._d = np.where(
            one_arm, np.abs(depth[:, None] - depth[None, :]), depth[:, None] + depth[None, :]
        ).astype(np.int16)
        # Directed pairs (u, v) with v in the closed neighbourhood of u.
        self._src, self._dst = np.nonzero(self._d <= 1)

    def dist(self, u: int, v: int) -> int:
        return int(self._d[u, v])

    def start(self) -> np.ndarray:
        return np.ones(self.n, dtype=bool)

    def step(self, members: np.ndarray, c_prev: int, c_cur: int, bit: int) -> np.ndarray:
        """Vertices v reachable by one lazy step from some believed u for
        which the bit that (c_prev, u) -> (c_cur, v) produces equals `bit`."""
        live = members[self._src]
        u, v = self._src[live], self._dst[live]
        closer = self._d[c_cur][v] <= self._d[c_prev][u]
        out = np.zeros(self.n, dtype=bool)
        out[v[closer if bit == 1 else ~closer]] = True
        return out

    def mask(self, members: np.ndarray) -> int:
        return int.from_bytes(np.packbits(members, bitorder="little").tobytes(), "little")

    def radius(self, mask: int) -> tuple[int, int | None]:
        """ceil(diam/2).  The diameter is the widest single branch, the
        deepest member when the centre is believed, or the two deepest
        branches added together, whichever is largest."""
        low = (1 << self.t) - 1
        arms = [a for a in ((mask >> f) & low for f in range(1, self.n, self.t)) if a]
        if not arms:  # only the centre
            return 0, None
        deepest = sorted(a.bit_length() for a in arms)  # bit d-1 is depth d
        diam = max(a.bit_length() - (a & -a).bit_length() for a in arms)
        if mask & 1:
            diam = max(diam, deepest[-1])
        if len(arms) >= 2:
            diam = max(diam, deepest[-1] + deepest[-2])
        return (diam + 1) // 2, None


def some_step_within(deadline: int, d: int):
    """Upper bound: some step <= deadline has radius <= d."""

    def bound(radii: list[int]) -> str | None:
        if any(r <= d for r in radii[1 : deadline + 1]):
            return None
        return f"bound: no step <= {deadline} has radius <= {d} (min {min(radii[1:deadline + 1])})"

    return bound


def every_step_above(d: int):
    """Lower bound: every step has radius > d."""

    def bound(radii: list[int]) -> str | None:
        for i, r in enumerate(radii[1:], start=1):
            if r <= d:
                return f"bound: step {i} has radius {r} <= {d}"
        return None

    return bound


def check_game(metric, tr, horizon: int, bound, radius_recorded: bool) -> str | None:
    """Reason the transcript is wrong, or None.

    Order: shape, ranges, moves, bits, belief sets, recorded radii, bound.
    """
    n = metric.n
    c, m, b = tr.c, tr.m, tr.b
    if tr.n != n or tr.horizon != horizon:
        return f"shape: n={tr.n}, horizon={tr.horizon}; expected {n}, {horizon}"
    if not (len(c) == len(m) == len(b) == horizon + 1 and b[1] is None):
        return "shape: sequences do not span the horizon"
    for i in range(1, horizon + 1):
        if not (0 <= m[i] < n and 0 <= c[i] < n):
            return f"range: step {i} has mouse {m[i]}, cat {c[i]}"
    for i in range(2, horizon + 1):
        if metric.dist(m[i - 1], m[i]) > 1:
            return f"move: step {i} moves {m[i - 1]} -> {m[i]}"
    d_prev = metric.dist(c[1], m[1])
    for i in range(2, horizon + 1):
        d_cur = metric.dist(c[i], m[i])
        if b[i] != (1 if d_cur <= d_prev else 0):
            return f"bit: step {i} records {b[i]} for distances {d_prev} -> {d_cur}"
        d_prev = d_cur

    if tr.beliefs is None or len(tr.beliefs) != horizon + 1:
        return "belief: transcript does not record a belief set per step"
    expected = metric.start()
    radii: list = [None]
    for i in range(1, horizon + 1):
        if i > 1:
            expected = metric.step(expected, c[i - 1], c[i], b[i])
        got, want = tr.beliefs[i], metric.mask(expected)
        if got != want:
            return (
                f"belief: step {i} records {got.bit_count()} members, "
                f"reachability gives {want.bit_count()}"
            )
        radii.append(metric.radius(want))

    if radius_recorded:
        for i in range(1, horizon + 1):
            r, centre = radii[i]
            if tr.belief_radius[i] != r or tr.belief_center[i] != centre:
                return (
                    f"radius: step {i} records ({tr.belief_radius[i]}, "
                    f"{tr.belief_center[i]}), arithmetic gives ({r}, {centre})"
                )
    elif tr.belief_radius is not None:
        return "radius: recorded although the workload does not track it"
    return bound([None] + [r for r, _ in radii[1:]])
