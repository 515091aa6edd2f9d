"""Spans around the calls into catmouse's layers, recorded from outside.

`Tracer.install` replaces functions on their module and methods on their
class with wrappers that record (name, start_ns, end_ns, parent) spans, and
`uninstall` puts the originals back.  Nothing is set on an instance:
`CatStrategy.clone` copies the instance `__dict__`, so a wrapper stored on a
live cat would travel into the evader's clones.

A cat query is named by its caller: `cats.decide` when the engine asks the
live cat, `cats.clone_query` when a mouse drives a clone in its lookahead.
"""

from __future__ import annotations

import functools
import json
import time

from catmouse import cats, engine, graphs, mice

# (owner, attribute, span name); owners are modules or classes.  Cat and
# mouse methods are added per concrete class in `_targets`.
_FIXED = (
    (graphs, "parse_graph_spec", "graphs.parse"),
    (graphs, "bfs_distances", "graphs.bfs"),
    (graphs.DistanceOracle, "row", "graphs.row"),
    (graphs.DistanceOracle, "full_matrix", "graphs.full_matrix"),
    (graphs.DistanceOracle, "thin_levels", "graphs.thin_levels"),
    (cats, "scattered_cover", "graphs.cover"),
    (cats, "parse_cat_spec", "cats.build"),
    (mice, "parse_mouse_spec", "mice.build"),
    (engine, "run_game", "engine.run_game"),
    (engine, "mask_radius", "engine.radius"),
    (engine.BeliefKernel, "update_bool", "engine.kernel"),
    (engine.CatStrategy, "clone", "cats.clone"),
)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _targets():
    yield from _FIXED
    for cls in _subclasses(engine.CatStrategy):
        for attr in ("first_query", "next_query"):
            if attr in vars(cls):
                yield cls, attr, None  # named by caller
    for cls in _subclasses(engine.MouseStrategy):
        for attr in ("first_position", "next_move"):
            if attr in vars(cls):
                yield cls, attr, "mice.decide"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span; the benchmark marks set-up and games so."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name
            if label is None:
                caller = spans[parent][0] if parent >= 0 else ""
                label = "cats.decide" if caller == "engine.run_game" else "cats.clone_query"
            idx = len(spans)
            spans.append([label, 0, 0, parent])
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                rec = spans[idx]
                rec[1], rec[2] = start, end

        return traced

    def install(self) -> None:
        for owner, attr, name in list(_targets()):
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per (phase, name): calls, inclusive ns and self ns, where the phase
        is the name of the outermost span (bench.setup or bench.game)."""
        spans = self.spans
        child = [0] * len(spans)
        root = [0] * len(spans)
        for i, (_, start, end, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                root[i] = root[parent]
            else:
                root[i] = i
        out: dict = {}
        for i, (name, start, end, _) in enumerate(spans):
            key = (spans[root[i]][0], name)
            calls, total, own = out.get(key, (0, 0, 0))
            dur = end - start
            out[key] = (calls + 1, total + dur, own + dur - child[i])
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
