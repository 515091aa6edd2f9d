"""Experiment harness: configs, bound resolution, `play` (the one loop that
plays a batch of games), reports, artifacts.

A config names a graph, a cat, a mouse, a horizon, seeds, and a bound to
check.  Bounds may be explicit integers or formula tags that resolve to
integers (all square roots rounded up) before any game runs; the resolved
values are echoed into every report row.  Identical configs produce
byte-identical CSV output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache

from .cats import BallCoverCat, parse_cat_spec
from .engine import GameError, localization_report, run_game
from .graphs import (
    GRAPH_KINDS,
    DistanceOracle,
    Graph,
    GraphError,
    ceil_sqrt,
    parse_graph_spec,
    read_fields,
    read_int,
    read_spec,
)
from .mice import parse_mouse_spec

CSV_COLUMNS = (
    "config_hash",
    "seed",
    "first_success_step",
    "min_radius",
    "argmin_step",
    "bound_d",
    "bound_t",
    "pass",
    "error",
)

LOWER_BOUND_NOTE = (
    "lower-bound rows certify evasion against the strategies actually run, "
    "not against every possible cat; the exhaustive solver is checked against "
    "engine play only on graphs of at most 4 vertices (verify criterion 7)"
)

FORMULA_TAGS = ("sqrt32n", "sqrt2n", "fourLplusK", "threeHalvesK", "tOver12")


@lru_cache(maxsize=None)
def corpus_graph(spec: str) -> tuple[Graph, DistanceOracle, str]:
    """The graph, a shared distance oracle and the canonical spec, built once
    per spec string and process.  A `file:` spec is read once; later edits
    to the file are not seen."""
    g, canonical = parse_graph_spec(spec)
    return g, DistanceOracle(g), canonical


def derive_seed(*parts) -> int:
    """Deterministic split of a seed stream by labels."""
    payload = "|".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(payload.encode()).digest()[:8], "big")


@dataclass(frozen=True)
class ExperimentConfig:
    graph: str
    cat: str
    mouse: str
    horizon: int
    seeds: tuple[int, ...]
    repetitions: int = 1
    bound_d: int | str = "sqrt32n"
    bound_t: int | str | None = "sqrt2n"
    bound_kind: str = "upper"  # "upper" | "lower"
    save_transcripts: bool = False

    def canonical_text(self) -> str:
        lines = [
            f"graph: {self.graph}",
            f"cat: {self.cat}",
            f"mouse: {self.mouse}",
            f"horizon: {self.horizon}",
            f"seeds: {','.join(str(s) for s in self.seeds)}",
            f"repetitions: {self.repetitions}",
            f"bound_d: {self.bound_d}",
            f"bound_t: {self.bound_t}",
            f"bound_kind: {self.bound_kind}",
        ]
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:12]


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(read_int(s.strip()) for s in text.split(","))


def _bound(low: int):
    """Reader of a bound field: a formula tag, or an integer >= low."""
    return lambda text: text if text in FORMULA_TAGS else read_int(text, low)


def _bound_kind(text: str) -> str:
    if text not in ("upper", "lower"):
        raise ValueError(text)
    return text


def _yes_no(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(text)
    return word in ("1", "true", "yes")


CONFIG_FIELDS = {
    "graph": (str, None),
    "cat": (str, None),
    "mouse": (str, None),
    "horizon": (lambda text: read_int(text, 1), None),
    "seeds": (_seed_list, None),
    "repetitions": (lambda text: read_int(text, 1), 1),
    "bound_d": (_bound(0), "sqrt32n"),
    "bound_t": (_bound(1), "sqrt2n"),
    "bound_kind": (_bound_kind, "upper"),
    "save_transcripts": (_yes_no, False),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the `key: value` config format.  Fields follow the spec rules of
    `read_fields`, and every problem is listed in one GraphError."""
    items = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, val = line.partition(":")
        if sep:
            items.append((f"line {idx}: ", key.strip(), val.strip()))
        else:
            items.append((f"line {idx}: ", None, f"expected 'key: value', got {raw!r}"))
    values, problems = read_fields(items, CONFIG_FIELDS)
    if problems:
        raise GraphError("config errors: " + "; ".join(problems))
    return ExperimentConfig(**values)


def resolve_bound(
    field: str, tag: int | str | None, g: Graph, cat, cfg: ExperimentConfig
) -> int | None:
    """Resolve the bound tag of config field `field` to an integer, rounding
    square roots up; an error names the field."""
    if tag is None or isinstance(tag, int):
        return tag
    n = g.n
    if tag == "sqrt32n":
        return ceil_sqrt(32 * n)
    if tag == "sqrt2n":
        return ceil_sqrt(2 * n)
    if tag == "fourLplusK":
        if not isinstance(cat, BallCoverCat):
            raise GraphError(f"field {field!r}: fourLplusK bound needs a ball-cover cat")
        return cat.guarantee
    if tag == "threeHalvesK":
        K = getattr(cat, "K", None)
        if K is None:
            raise GraphError(f"field {field!r}: threeHalvesK bound needs a sphere-walk cat")
        return (3 * K + 1) // 2
    if tag == "tOver12":
        if cfg.graph.partition(":")[0].strip() != "spider":
            raise GraphError(f"field {field!r}: tOver12 bound needs a spider graph spec")
        return read_spec(cfg.graph, GRAPH_KINDS)[1]["t"] // 12
    raise GraphError(f"field {field!r}: unknown bound tag {tag!r}")


@dataclass
class RunRow:
    seed: int
    repetition: int
    first_success_step: int | None
    min_radius: int | None
    argmin_step: int | None
    bound_d: int
    bound_t: int | None
    passed: bool
    note: str = ""


@dataclass
class Report:
    config: ExperimentConfig
    config_hash: str
    bound_d: int
    bound_t: int | None
    rows: list[RunRow] = field(default_factory=list)
    note: str = ""

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def pass_rate(self) -> float:
        return sum(r.passed for r in self.rows) / len(self.rows) if self.rows else 0.0

    @property
    def worst_min_radius(self) -> int | None:
        radii = [r.min_radius for r in self.rows if r.min_radius is not None]
        return max(radii) if radii else None

    def to_csv_text(self) -> str:
        """One row per run; an empty field is a missing value, and `error`
        holds the note of a row that raised (quoted by CSV rules)."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in sorted(self.rows, key=lambda r: (r.seed, r.repetition)):
            writer.writerow([
                self.config_hash, r.seed, r.first_success_step, r.min_radius,
                r.argmin_step, r.bound_d, r.bound_t, int(r.passed), r.note,
            ])
        return out.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "graph": self.config.graph,
                "cat": self.config.cat,
                "mouse": self.config.mouse,
                "horizon": self.config.horizon,
                "seeds": list(self.config.seeds),
                "repetitions": self.config.repetitions,
                "bound_kind": self.config.bound_kind,
            },
            "config_hash": self.config_hash,
            "resolved_bounds": {"d": self.bound_d, "t": self.bound_t},
            "note": self.note,
            "rows": [
                {
                    "seed": r.seed,
                    "repetition": r.repetition,
                    "first_success_step": r.first_success_step,
                    "min_radius": r.min_radius,
                    "argmin_step": r.argmin_step,
                    "pass": r.passed,
                    "note": r.note,
                }
                for r in sorted(self.rows, key=lambda r: (r.seed, r.repetition))
            ],
            "aggregate": {
                "all_pass": self.all_pass,
                "pass_rate": self.pass_rate,
                "worst_min_radius": self.worst_min_radius,
            },
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def play(cfg: ExperimentConfig, *, track_belief: bool = True, track_radius: bool = True):
    """Play `cfg`'s games, one per seed and repetition, yielding (seed,
    repetition, cat, mouse, transcript).  Cat and mouse are built afresh per
    game; a spec without a seed gets one derived from the row's seed.  A game
    that raises `GameError` or `GraphError` yields the exception in the
    transcript's place.  The tracking flags go to `run_game` as given."""
    g, oracle, graph_spec = corpus_graph(cfg.graph)
    for seed in cfg.seeds:
        for rep in range(cfg.repetitions):
            row_seed = derive_seed(seed, "rep", rep) if cfg.repetitions > 1 else seed
            cat = parse_cat_spec(cfg.cat, g, oracle, default_seed=derive_seed(row_seed, "cat"))
            mouse = parse_mouse_spec(cfg.mouse, default_seed=derive_seed(row_seed, "mouse"))
            try:
                tr = run_game(
                    g, cat, mouse, cfg.horizon, track_belief=track_belief,
                    track_radius=track_radius, oracle=oracle, graph_spec=graph_spec,
                    meta={"cat": cat.spec, "mouse": mouse.spec, "seed": row_seed},
                )
            except (GameError, GraphError) as exc:
                tr = exc
            yield seed, rep, cat, mouse, tr


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> Report:
    """Check the config, resolve its bounds and make one pass/fail row of
    each game `play` yields.

    Upper bounds pass when localization to the resolved distance happens by
    the resolved time; lower bounds pass when NO step within the horizon
    localizes to the resolved distance.  A game that raises fails its row,
    with the exception as the row's note.
    """
    if not cfg.seeds:
        raise GraphError("experiment needs a non-empty seeds list")
    if cfg.horizon < 1:
        raise GraphError(f"experiment horizon must be >= 1, got {cfg.horizon}")
    if cfg.repetitions < 1:
        raise GraphError(f"experiment repetitions must be >= 1, got {cfg.repetitions}")
    if isinstance(cfg.bound_d, int) and cfg.bound_d < 0:
        raise GraphError(f"experiment bound_d must be >= 0, got {cfg.bound_d}")
    if isinstance(cfg.bound_t, int) and cfg.bound_t < 1:
        raise GraphError(f"experiment bound_t must be >= 1, got {cfg.bound_t}")
    if cfg.bound_kind not in ("upper", "lower"):
        raise GraphError(f"experiment bound_kind must be 'upper' or 'lower', got {cfg.bound_kind!r}")
    g, oracle, _ = corpus_graph(cfg.graph)
    probe_cat = parse_cat_spec(cfg.cat, g, oracle, default_seed=0)
    bound_d = resolve_bound("bound_d", cfg.bound_d, g, probe_cat, cfg)
    bound_t = resolve_bound("bound_t", cfg.bound_t, g, probe_cat, cfg)
    report = Report(
        config=cfg, config_hash=cfg.config_hash(), bound_d=bound_d, bound_t=bound_t,
        note=LOWER_BOUND_NOTE if cfg.bound_kind == "lower" else "",
    )
    transcripts = []
    for seed, rep, _, _, tr in play(cfg):
        if isinstance(tr, Exception):
            report.rows.append(
                RunRow(seed, rep, None, None, None, bound_d, bound_t, False, str(tr))
            )
            continue
        loc = localization_report(tr, bound_d)
        if cfg.bound_kind == "upper":
            passed = loc.first_success_step is not None and (
                bound_t is None or loc.first_success_step <= bound_t
            )
        else:
            passed = loc.first_success_step is None
        report.rows.append(RunRow(
            seed, rep, loc.first_success_step, loc.min_radius, loc.argmin_step,
            bound_d, bound_t, passed,
        ))
        if cfg.save_transcripts:
            transcripts.append((seed, rep, tr))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8", newline="") as fh:
            fh.write(report.to_csv_text())
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json_text())
        if transcripts:
            tdir = os.path.join(out_dir, "transcripts")
            os.makedirs(tdir, exist_ok=True)
            for seed, rep, tr in transcripts:
                path = os.path.join(tdir, f"seed{seed}_rep{rep}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(tr.to_json())
    return report
