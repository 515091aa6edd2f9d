"""Benchmark of catmouse games on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is localize-sqrt, track-thin, evade-spider, or `all`, which runs each
in its own process, one after another.  Run from the root of a checkout;
catmouse is imported from its `src/`.

With --trace 0 the run sets up the workload several times, then plays whole
rounds of games until S seconds of game time have passed (and at least
MIN_GAMES games), checking every game with `checks.py`, and reports the
end-to-end metrics.  With --trace 1 it plays a fixed number of rounds
untraced, then the same rounds with spans recorded around every layer
(`tracing.py`), checks that both passes produced identical transcripts, and
reports the per-layer metrics.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

if __name__ == "__main__":
    # One thread per workload process: numpy sizes its BLAS pool at import.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from checks import PathMetric, SpiderMetric, check_game, every_step_above, some_step_within

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# A tail percentile needs at least ten games beyond it.
MIN_GAMES = 100

# Set-up and games are timed in process CPU time.  The workload process is
# single-threaded, CPU-bound and does no I/O, so on an idle machine this is
# its wall time; on a shared one it leaves out the time other tenants hold
# the core, which is most of the run-to-run spread of wall time.
clock = time.process_time


def _isqrt_up(x: int) -> int:
    r = math.isqrt(x)
    return r if r * r == x else r + 1


def _draw(workload: str, seed: int, rnd: int, label: str) -> int:
    """Input seed for one game, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{workload}|{seed}|{rnd}|{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _start(workload: str, seed: int, rnd: int, label: str, n: int) -> int:
    """Start vertex of a mouse in round `rnd`: a golden-ratio sequence from a
    seeded offset.  Game time on the path depends on where the mouse starts
    (3x from one end to the middle), so every run covers the path evenly
    rather than by chance."""
    offset = _draw(workload, seed, 0, label) / 2**32
    return int((offset + rnd * 0.6180339887498949) % 1.0 * n)


def _path_round(cat: str, n: int):
    def games(workload: str, seed: int, rnd: int) -> list[tuple[str, str]]:
        # stationary and greedy start at vertex seed % n; rw draws its start
        return [
            (cat, f"stationary:seed={_start(workload, seed, rnd, 'stationary', n)}"),
            (cat, f"rw:seed={_draw(workload, seed, rnd, 'rw')}"),
            (cat, f"greedy:seed={_start(workload, seed, rnd, 'greedy', n)}"),
        ]

    return games


def _spider_round(t: int):
    def games(workload: str, seed: int, rnd: int) -> list[tuple[str, str]]:
        rand = f"rand:seed={_draw(workload, seed, rnd, 'rand')}"
        roster = ("sqrt", "thin:K=auto", "fat:c=0.5", "sweep", rand, "stay")
        return [(cat, f"spider:t={t}") for cat in roster]

    return games


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str
    horizon: int
    track_radius: bool  # set-up builds the full matrix
    thin_K: str | None  # set-up builds the thin-level table: an int or "auto"
    metric: object  # the graph's arithmetic, from checks.py
    bound: Callable  # radii -> reason the workload's bound fails, or None
    games: Callable  # (name, seed, round) -> [(cat spec, mouse spec)]
    setups: int  # set-ups per run; setup_s is their median
    trace_rounds: int  # rounds per pass of a traced run

    def round(self, seed: int, rnd: int) -> list[tuple[str, str]]:
        return self.games(self.name, seed, rnd)


N = 2000  # path size
T = 24  # spider parameter: t branches of length t, n = t^2 + 1
K_THIN = _isqrt_up(9 * N)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="localize-sqrt",
            graph=f"path:n={N}",
            horizon=_isqrt_up(2 * N) + 2,
            track_radius=True,
            thin_K=None,
            metric=PathMetric(N),
            bound=some_step_within(_isqrt_up(2 * N) + 2, _isqrt_up(32 * N)),
            games=_path_round("sqrt", N),
            setups=5,
            trace_rounds=5,
        ),
        Workload(
            name="track-thin",
            graph=f"path:n={N}",
            horizon=N,  # min(n, D + 2) with D = n - 1
            track_radius=False,
            thin_K=str(K_THIN),
            metric=PathMetric(N),
            bound=some_step_within(N, (_isqrt_up(81 * N) + 1) // 2),  # ceil(4.5 sqrt(n))
            games=_path_round(f"thin:K={K_THIN}", N),
            setups=5,
            trace_rounds=2,
        ),
        Workload(
            name="evade-spider",
            graph=f"spider:t={T},extra=0",
            horizon=300,
            track_radius=False,
            thin_K="auto",
            metric=SpiderMetric(T),
            bound=every_step_above(T // 12),
            games=_spider_round(T),
            setups=30,
            trace_rounds=3,
        ),
    )
}


class Bench:
    """One workload in this process: set-up, games and their checks."""

    def __init__(self, w: Workload) -> None:
        from catmouse import cats, engine, graphs, mice

        self.w = w
        self.cats, self.engine, self.graphs, self.mice = cats, engine, graphs, mice
        self.env = None
        self._passed: set[bytes] = set()

    def setup(self) -> float:
        """Build the graph, oracle and the tables every game shares; seconds."""
        self.env = None
        gc.collect()
        start = clock()
        g, spec = self.graphs.parse_graph_spec(self.w.graph)
        oracle = self.graphs.DistanceOracle(g)
        if self.w.track_radius:
            oracle.full_matrix()
        if self.w.thin_K is not None:
            auto = self.w.thin_K == "auto"
            oracle.thin_levels(self.cats.auto_thin_K(g, oracle) if auto else int(self.w.thin_K))
            oracle.diameter()
        elapsed = clock() - start
        self.env = (g, spec, oracle)
        return elapsed

    def play(self, cat_spec: str, mouse_spec: str):
        g, spec, oracle = self.env
        cat = self.cats.parse_cat_spec(cat_spec, g, oracle)
        mouse = self.mice.parse_mouse_spec(mouse_spec)
        return self.engine.run_game(
            g,
            cat,
            mouse,
            self.w.horizon,
            track_belief=True,
            track_radius=self.w.track_radius,
            oracle=oracle,
            graph_spec=spec,
        )

    def check(self, tr) -> str | None:
        """Why the game is wrong, or None.  A transcript identical to one that
        passed earlier in the run passes by that identity: evade-spider's five
        deterministic cats replay the same game every round."""
        key = fingerprint(tr)
        if key in self._passed:
            return None
        w = self.w
        problem = check_game(w.metric, tr, w.horizon, w.bound, w.track_radius)
        if problem is None:
            self._passed.add(key)
        return problem


def fingerprint(tr) -> bytes | None:
    """Digest of everything a transcript records; None for no transcript."""
    if tr is None:
        return None
    h = hashlib.sha256(tr.to_json().encode())
    size = (tr.n + 7) // 8
    for mask in tr.beliefs or ():
        h.update(b"-" if mask is None else mask.to_bytes(size, "little"))
    return h.digest()


class Tally:
    """Games attempted, failed (raised or rejected) and rejected."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.rejected = 0
        self.notes: list[str] = []

    def game(self, bench: Bench, cat_spec: str, mouse_spec: str, span=None):
        """Play and check one game; (transcript, seconds) or None on failure.
        With `span`, the play (not the check) runs inside a bench.game span."""
        self.attempted += 1
        play = bench.play if span is None else functools.partial(span, "bench.game", bench.play)
        start = clock()
        try:
            tr = play(cat_spec, mouse_spec)
        except Exception as exc:  # a game that raises is a failed game
            traceback.print_exc()
            elapsed = None
            problem = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = clock() - start
            problem = bench.check(tr)
            if problem:
                self.rejected += 1
        if problem:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(f"{cat_spec} vs {mouse_spec}: {problem}")
            return None
        return tr, elapsed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(w: Workload, seed: int, seconds: float) -> dict:
    bench = Bench(w)
    setup_s = statistics.median(bench.setup() for _ in range(w.setups))
    tally = Tally()
    times: list[float] = []
    steps = 0
    game_time = 0.0
    wall_start = time.perf_counter()
    rnd = 0
    while True:
        for cat_spec, mouse_spec in w.round(seed, rnd):
            played = tally.game(bench, cat_spec, mouse_spec)
            if played is not None:
                times.append(played[1])
                game_time += played[1]
                steps += w.horizon
        rnd += 1
        enough = game_time >= seconds or time.perf_counter() - wall_start >= 3 * seconds
        if enough and tally.attempted >= MIN_GAMES:
            break
    print(f"{w.name}: seed {seed}, {rnd} rounds, {len(times)} games timed, {w.setups} set-ups")
    if len(times) < 2:
        _result(tally, {})
        raise SystemExit("too few games completed to report times")
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "steps_per_s": _metric(steps / game_time, "1/s"),
        "game_ms_p50": _metric(statistics.median(times) * 1e3, "ms"),
        "game_ms_p90": _metric(cuts[8] * 1e3, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return _result(tally, metrics)


def _layer_metrics(summary: dict, games: int, steps: int) -> dict:
    def get(phase, name):
        return summary.get((phase, name), (0, 0, 0))

    def per_call_self(phase, name, scale):
        calls, _, own = get(phase, name)
        return own / calls / scale if calls else 0.0

    def per_game_calls(name):
        return get("bench.game", name)[0] / games

    bfs = tuple(map(sum, zip(get("bench.setup", "graphs.bfs"), get("bench.game", "graphs.bfs"))))
    cover_calls, cover_ns, _ = get("bench.game", "graphs.cover")
    build_calls, build_ns, _ = get("bench.game", "cats.build")
    us, ms = 1e3, 1e6
    values = {
        "graphs.bfs_calls": (bfs[0], "count"),
        "graphs.bfs_us": (bfs[2] / bfs[0] / us if bfs[0] else 0.0, "us"),
        "graphs.full_matrix_s": (get("bench.setup", "graphs.full_matrix")[1] / 1e9, "s"),
        "graphs.row_calls": (per_game_calls("graphs.row"), "count"),
        "graphs.row_us": (per_call_self("bench.game", "graphs.row", us), "us"),
        "graphs.thin_levels_s": (get("bench.setup", "graphs.thin_levels")[1] / 1e9, "s"),
        "graphs.cover_ms": (cover_ns / cover_calls / ms if cover_calls else 0.0, "ms"),
        "engine.kernel_us": (per_call_self("bench.game", "engine.kernel", us), "us"),
        "engine.radius_us": (per_call_self("bench.game", "engine.radius", us), "us"),
        "engine.loop_self_us": (get("bench.game", "engine.run_game")[2] / steps / us, "us/step"),
        "cats.build_ms": (build_ns / build_calls / ms if build_calls else 0.0, "ms"),
        "cats.decide_us": (per_call_self("bench.game", "cats.decide", us), "us"),
        "cats.clone_calls": (per_game_calls("cats.clone"), "count"),
        "cats.clone_us": (per_call_self("bench.game", "cats.clone", us), "us"),
        "cats.clone_query_calls": (per_game_calls("cats.clone_query"), "count"),
        "cats.clone_query_us": (per_call_self("bench.game", "cats.clone_query", us), "us"),
        "mice.decide_us": (per_call_self("bench.game", "mice.decide", us), "us"),
    }
    return {name: _metric(v, unit) for name, (v, unit) in values.items()}


def _play_pass(bench: Bench, tally: Tally, games: list, span=None) -> tuple[list, float]:
    """Set up once, then play `games`; (transcripts, seconds of set-up and
    play, checks excluded)."""
    elapsed = bench.setup() if span is None else span("bench.setup", bench.setup)
    out = []
    for cat_spec, mouse_spec in games:
        played = tally.game(bench, cat_spec, mouse_spec, span)
        out.append(None if played is None else played[0])
        elapsed += 0.0 if played is None else played[1]
    return out, elapsed


def run_traced(w: Workload, seed: int) -> dict:
    from tracing import Tracer

    games = [g for rnd in range(w.trace_rounds) for g in w.round(seed, rnd)]
    bench = Bench(w)
    tally = Tally()
    plain, plain_s = _play_pass(bench, tally, games)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = _play_pass(bench, tally, games, tracer.span)
    finally:
        tracer.uninstall()
    differ = [i for i, (a, b) in enumerate(zip(plain, traced)) if fingerprint(a) != fingerprint(b)]
    if differ:
        tally.rejected += 1
        tally.notes.append(f"traced transcripts differ from untraced ones in games {differ}")

    summary = tracer.summary()
    steps = w.horizon * len(games)
    metrics = _layer_metrics(summary, len(games), steps)
    game_ns = summary.get(("bench.game", "bench.game"), (0, 1, 0))[1]
    print(f"{w.name}: seed {seed}, {len(games)} games per pass, transcripts identical: {not differ}")
    print(f"tracing overhead: {traced_s - plain_s:.3f} s ({traced_s:.3f} traced - {plain_s:.3f} untraced)")
    sizes = sorted(mask.bit_count() for tr in plain if tr for mask in tr.beliefs[1:])
    if sizes:
        q = statistics.quantiles(sizes, n=4, method="inclusive")
        print(f"belief size per step: quartiles {q[0]:g} / {q[1]:g} / {q[2]:g}, max {sizes[-1]}")
    print("share of traced game time, by self time:")
    shares = sorted(
        ((own / game_ns, name, calls) for (phase, name), (calls, _, own) in summary.items() if phase == "bench.game"),
        reverse=True,
    )
    for share, name, calls in shares:
        print(f"  {name:<20} {100 * share:6.2f}%  {calls} calls")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans-{w.name}-seed{seed}.json")
    return _result(tally, metrics)


def _result(tally: Tally, metrics: dict) -> dict:
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']:.6g} {m['unit']}")
    print(f"games attempted {tally.attempted}, failed {tally.failed}")
    for note in tally.notes:
        print(f"  FAILED {note}")
    return {
        "correct": tally.rejected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.workload == "all":
        result = run_all(args)
    else:
        src = ROOT / "src"
        if not (src / "catmouse" / "__init__.py").is_file():
            print(f"catmouse sources not found under {src}", file=sys.stderr)
            return 2
        sys.path[:0] = [str(src), str(BENCH_DIR)]
        import catmouse

        if Path(catmouse.__file__).resolve().parent != src / "catmouse":
            print(f"imported catmouse from {catmouse.__file__}, not {src}", file=sys.stderr)
            return 2
        w = WORKLOADS[args.workload]
        result = run_traced(w, args.seed) if args.trace else run_untraced(w, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
