"""Command-line front end.

Subcommands: gen (emit a graph file), simulate (one game with a transcript),
experiment (config file in, CSV/JSON report out), verify (named acceptance
suite), minimax (tiny-instance solver), cover (emit a ball cover).
Exit codes: 0 pass, 1 fail, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cats import parse_cat_spec
from .engine import GameError, run_game
from .experiment import parse_config_text, run_experiment
from .graphs import (
    DistanceOracle,
    GraphError,
    ceil_sqrt,
    parse_graph_spec,
    read_int,
    read_text,
    scattered_cover,
    write_graph,
)
from .mice import parse_mouse_spec
from .solver import exhaustive_game_value
from .verify import SUITES, verify_suite


def _write_out(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_gen(args) -> int:
    g, canonical = parse_graph_spec(args.spec)
    _write_out(f"# {canonical}\n" + write_graph(g), args.out)
    return 0


def _cmd_simulate(args) -> int:
    g, canonical = parse_graph_spec(args.graph)
    oracle = DistanceOracle(g)
    cat = parse_cat_spec(args.cat, g, oracle, default_seed=args.seed)
    mouse = parse_mouse_spec(args.mouse, default_seed=args.seed)
    tr = run_game(
        g,
        cat,
        mouse,
        args.horizon,
        track_belief=args.track_belief,
        oracle=oracle,
        graph_spec=canonical,
        meta={"cat": cat.spec, "mouse": mouse.spec, "seed": args.seed},
    )
    if args.format == "json":
        _write_out(tr.to_json() + "\n", args.out)
    else:
        lines = ["step,cat,mouse,bit,belief_radius"]
        for i in range(1, tr.horizon + 1):
            radius = tr.belief_radius[i] if tr.belief_radius else ""
            bit = tr.b[i] if i >= 2 else ""
            lines.append(f"{i},{tr.c[i]},{tr.m[i]},{bit},{radius}")
        _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    cfg = parse_config_text(read_text(args.config))
    report = run_experiment(cfg, out_dir=args.out)
    text = report.to_json_text() if args.format == "json" else report.to_csv_text()
    if args.out is None:
        sys.stdout.write(text)
    else:
        sys.stdout.write(
            f"{'PASS' if report.all_pass else 'FAIL'} "
            f"{sum(r.passed for r in report.rows)}/{len(report.rows)} rows "
            f"(bounds d={report.bound_d} t={report.bound_t}) -> {args.out}\n"
        )
    return 0 if report.all_pass else 1


def _cmd_verify(args) -> int:
    results = verify_suite(args.suite, quick=args.quick)
    if args.format == "json":
        payload = [
            {
                "criterion": r.number,
                "name": r.name,
                "pass": r.ok,
                "detail": r.detail,
                "elapsed_s": r.elapsed_s,
            }
            for r in results
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for res in results:
            print(res.line())
    return 0 if all(r.ok for r in results) else 1


def _cmd_minimax(args) -> int:
    g, _ = parse_graph_spec(args.graph)
    res = exhaustive_game_value(g, args.horizon, args.distance)
    print(res.winner)
    return 0


def _cmd_cover(args) -> int:
    g, canonical = parse_graph_spec(args.graph)
    separation = ceil_sqrt(8 * g.n) if args.separation is None else args.separation
    cover = scattered_cover(DistanceOracle(g), separation)
    payload = {
        "graph": canonical,
        "separation": separation,
        "radius_k": cover.radius_k,
        "count": cover.count,
        "centers": list(cover.centers),
    }
    _write_out(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.out)
    return 0


def int_flag(low: int | None = None):
    """argparse type of an integer flag: `read_int`, at least `low`."""
    def read(text: str) -> int:
        try:
            return read_int(text, low)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return read


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catmouse",
        description="Distance-feedback cat-and-mouse localization games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit a graph edge list from a spec")
    p.add_argument("--spec", required=True, help="e.g. spider:t=12,extra=0 or grid:3x4")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("simulate", help="run one game and emit the transcript")
    p.add_argument("--graph", required=True)
    p.add_argument("--cat", required=True)
    p.add_argument("--mouse", required=True)
    p.add_argument("--horizon", type=int_flag(1), required=True)
    p.add_argument("--seed", type=int_flag(), default=0)
    p.add_argument("--track-belief", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("experiment", help="run a config file and emit a report")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="directory for report.csv/report.json")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", choices=sorted(SUITES), default="all")
    p.add_argument("--quick", action="store_true", help="reduced corpus for a fast pass")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("minimax", help="exhaustive game value on a tiny instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--horizon", type=int_flag(1), required=True)
    p.add_argument("--distance", type=int_flag(0), required=True)
    p.set_defaults(fn=_cmd_minimax)

    p = sub.add_parser("cover", help="emit a scattered ball cover as JSON")
    p.add_argument("--graph", required=True)
    p.add_argument("--separation", type=int_flag(1), default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_cover)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
