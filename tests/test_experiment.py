"""Experiment harness: config parsing, bound resolution, reports, CLI."""

import csv
import dataclasses
import io
import json

import pytest

from catmouse.cats import parse_cat_spec
from catmouse.cli import main
from catmouse.experiment import (
    CSV_COLUMNS,
    ExperimentConfig,
    LOWER_BOUND_NOTE,
    derive_seed,
    parse_config_text,
    resolve_bound,
    run_experiment,
)
from catmouse.graphs import DistanceOracle, GraphError, parse_graph_spec

SPIDER_UPPER = ExperimentConfig(
    graph="spider:t=12,extra=0",
    cat="sqrt",
    mouse="stationary",
    horizon=18,
    seeds=(1, 2, 3),
    bound_d="sqrt32n",
    bound_t="sqrt2n",
    bound_kind="upper",
)

SPIDER_LOWER = ExperimentConfig(
    graph="spider:t=12,extra=0",
    cat="sweep",
    mouse="spider:t=12",
    horizon=300,
    seeds=(1,),
    bound_d="tOver12",
    bound_t=None,
    bound_kind="lower",
)


BLOCKED_EVADER = dataclasses.replace(SPIDER_LOWER, cat="rand:seed=25", seeds=(0,))
BLOCKED_NOTE = (
    "step 196: spider evader has no free branch: all 12 main branches are "
    "blocked (queried [1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], taken [2])"
)


class TestConfigParsing:
    def test_happy_path(self):
        text = """
        # comment
        graph: spider:t=12,extra=0
        cat: sqrt
        mouse: stationary
        horizon: 18
        seeds: 1,2,3
        bound_d: sqrt32n
        bound_t: sqrt2n
        bound_kind: upper
        """
        cfg = parse_config_text(text)
        assert cfg == SPIDER_UPPER

    def test_all_problems_listed(self):
        text = "graph: path:n=5\nwhat: 3\nhorizon: soon\nseeds: \n"
        with pytest.raises(GraphError) as err:
            parse_config_text(text)
        message = str(err.value)
        assert "unknown field 'what'" in message
        assert "horizon" in message
        assert "seeds" in message
        assert "cat" in message and "mouse" in message

    def test_empty_seeds_rejected(self):
        text = "graph: path:n=5\ncat: sweep\nmouse: stationary\nhorizon: 4\nseeds:\n"
        with pytest.raises(GraphError, match="seed"):
            parse_config_text(text)

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_repetitions_below_one_rejected(self, repetitions):
        text = (
            "graph: path:n=5\ncat: sweep\nmouse: stationary\n"
            f"horizon: 4\nseeds: 1\nrepetitions: {repetitions}\n"
        )
        with pytest.raises(GraphError, match="repetitions"):
            parse_config_text(text)

    @pytest.mark.parametrize(
        "word, value",
        [("TRUE", True), ("Yes", True), ("1", True), ("false", False), ("NO", False), ("0", False)],
    )
    def test_save_transcripts_words(self, word, value):
        text = (
            "graph: path:n=5\ncat: sweep\nmouse: stationary\n"
            f"horizon: 4\nseeds: 1\nsave_transcripts: {word}\n"
        )
        assert parse_config_text(text).save_transcripts is value

    def test_repeated_field_rejected(self):
        text = (
            "graph: path:n=5\ncat: sweep\nmouse: stationary\n"
            "horizon: 4\nseeds: 1\nseeds: 2,3\n"
        )
        with pytest.raises(GraphError, match="line 6: field 'seeds' given twice"):
            parse_config_text(text)

    def test_line_without_colon_rejected(self):
        text = "graph: path:n=5\ncat: sweep\nmouse: stationary\nhorizon 4\nseeds: 1\n"
        with pytest.raises(GraphError, match="line 4: expected 'key: value', got 'horizon 4'"):
            parse_config_text(text)

    def test_seeds_may_be_spaced(self):
        text = _FIELDS_OK + "seeds: 1, 2 ,-3\nbound_d: 0\nbound_t: 1\n"
        cfg = parse_config_text(text)
        assert (cfg.seeds, cfg.bound_d, cfg.bound_t) == ((1, 2, -3), 0, 1)

    def test_bad_bound_tag(self):
        text = (
            "graph: path:n=5\ncat: sweep\nmouse: stationary\n"
            "horizon: 4\nseeds: 1\nbound_d: sqrtNaN\n"
        )
        with pytest.raises(GraphError, match="bound_d"):
            parse_config_text(text)

    def test_bad_bound_kind(self):
        with pytest.raises(GraphError, match="line 5: bad value 'sideways' for field 'bound_kind'"):
            parse_config_text(_FIELDS_OK + "bound_kind: sideways\nseeds: 1\n")


_FIELDS_OK = "graph: path:n=5\ncat: sweep\nmouse: stationary\nhorizon: 4\n"

# One fault of each kind, fed to a spec and to a config: (spec, the spec's
# problem, config text, the config's problem).  A missing field has no line.
FIELD_FAULTS = [
    pytest.param(
        "spider:x=1", "unknown field 'x'",
        _FIELDS_OK + "seeds: 1\nx: 1\n", "line 6: unknown field 'x'",
        id="unknown",
    ),
    pytest.param(
        "spider:t=3,t=4", "field 't' given twice",
        _FIELDS_OK + "seeds: 1\nseeds: 2\n", "line 6: field 'seeds' given twice",
        id="repeated",
    ),
    pytest.param(
        "spider:t=", "field 't' is empty",
        _FIELDS_OK + "seeds:\n", "line 5: field 'seeds' is empty",
        id="empty",
    ),
    pytest.param(
        "spider:t=x", "bad value 'x' for field 't'",
        _FIELDS_OK + "seeds: 1,x\n", "line 5: bad value '1,x' for field 'seeds'",
        id="bad value",
    ),
    pytest.param(
        "path:n=10,", "field '' is not key=value",
        _FIELDS_OK + "seeds: 1,2,\n", "line 5: bad value '1,2,' for field 'seeds'",
        id="trailing comma",
    ),
    pytest.param(
        "spider:t=12,,extra=1", "field '' is not key=value",
        _FIELDS_OK + "seeds: 1,,2\n", "line 5: bad value '1,,2' for field 'seeds'",
        id="empty item",
    ),
    pytest.param(
        "spider:extra=2", "missing field 't'",
        _FIELDS_OK, "missing field 'seeds'",
        id="missing",
    ),
]


@pytest.mark.parametrize("spec, spec_problem, config, config_problem", FIELD_FAULTS)
def test_specs_and_configs_report_a_fault_alike(spec, spec_problem, config, config_problem):
    with pytest.raises(GraphError) as err:
        parse_graph_spec(spec)
    assert str(err.value).startswith(f"spec {spec!r}: {spec_problem}")
    with pytest.raises(GraphError) as err:
        parse_config_text(config)
    message = str(err.value)
    assert message.startswith(f"config errors: {config_problem}")
    field = config_problem.split("'")[1]
    assert message.count(f"'{field}'") == 1


class TestBoundResolution:
    def test_formula_tags(self):
        g, _ = parse_graph_spec("spider:t=12,extra=0")
        oracle = DistanceOracle(g)
        sqrt = parse_cat_spec("sqrt", g, oracle)
        thin = parse_cat_spec("thin:K=auto", g, oracle)
        assert resolve_bound("bound_d", "sqrt32n", g, sqrt, SPIDER_UPPER) == 69
        assert resolve_bound("bound_d", "sqrt2n", g, sqrt, SPIDER_UPPER) == 18
        assert resolve_bound("bound_d", "tOver12", g, sqrt, SPIDER_UPPER) == 1
        assert (
            resolve_bound("bound_d", "fourLplusK", g, sqrt, SPIDER_UPPER)
            == 4 * sqrt.cover.count + sqrt.cover.radius_k
        )
        assert resolve_bound("bound_d", "threeHalvesK", g, thin, SPIDER_UPPER) == (3 * thin.K + 1) // 2
        assert resolve_bound("bound_d", 42, g, sqrt, SPIDER_UPPER) == 42
        assert resolve_bound("bound_t", None, g, sqrt, SPIDER_UPPER) is None

    def test_tag_strategy_mismatch(self):
        g, _ = parse_graph_spec("path:n=9")
        oracle = DistanceOracle(g)
        sweep = parse_cat_spec("sweep", g, oracle)
        with pytest.raises(GraphError, match="field 'bound_d': fourLplusK bound needs"):
            resolve_bound("bound_d", "fourLplusK", g, sweep, SPIDER_UPPER)

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "cat") == derive_seed(1, "cat")
        assert derive_seed(1, "cat") != derive_seed(1, "mouse")


class TestRunExperiment:
    def test_spider_upper_bound_passes(self):
        report = run_experiment(SPIDER_UPPER)
        assert report.bound_d == 69 and report.bound_t == 18
        assert report.all_pass
        assert len(report.rows) == 3
        assert report.note == ""

    def test_spider_lower_bound_passes(self):
        report = run_experiment(SPIDER_LOWER)
        assert report.bound_d == 1
        assert report.all_pass
        assert all(r.first_success_step is None for r in report.rows)
        assert report.note == LOWER_BOUND_NOTE

    def test_failing_bound_reports_fail(self):
        cfg = ExperimentConfig(
            graph="path:n=50",
            cat="stay",
            mouse="stationary",
            horizon=5,
            seeds=(0,),
            bound_d=0,
            bound_t=5,
            bound_kind="upper",
        )
        report = run_experiment(cfg)
        assert not report.all_pass

    def test_empty_seeds_rejected(self):
        cfg = ExperimentConfig(
            graph="path:n=5", cat="sweep", mouse="stationary",
            horizon=3, seeds=(),
        )
        with pytest.raises(GraphError, match="seed"):
            run_experiment(cfg)

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_repetitions_below_one_rejected(self, repetitions):
        cfg = ExperimentConfig(
            graph="path:n=5", cat="sweep", mouse="stationary",
            horizon=3, seeds=(1,), repetitions=repetitions,
        )
        with pytest.raises(GraphError, match="repetitions"):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"bound_d": -1}, "bound_d must be >= 0, got -1"),
            ({"bound_t": 0}, "bound_t must be >= 1, got 0"),
        ],
        ids=["bound_d -1", "bound_t 0"],
    )
    def test_explicit_bounds_below_their_floor_rejected(self, bounds, message):
        # bound_d = -1 with bound_kind lower would pass every row: no belief
        # radius is ever <= -1.
        cfg = ExperimentConfig(
            graph="path:n=9", cat="sweep", mouse="stationary",
            horizon=4, seeds=(1, 2), bound_kind="lower", **{"bound_t": None, **bounds},
        )
        with pytest.raises(GraphError, match=message):
            run_experiment(cfg)

    def test_horizon_zero_rejected(self):
        cfg = ExperimentConfig(
            graph="path:n=5", cat="sweep", mouse="stationary", horizon=0, seeds=(1,),
        )
        with pytest.raises(GraphError, match="experiment horizon must be >= 1, got 0"):
            run_experiment(cfg)

    def test_unknown_bound_tag_names_its_field(self):
        # A config read from text rejects the tag first; see USAGE_ERRORS.
        cfg = ExperimentConfig(
            graph="path:n=5", cat="sweep", mouse="stationary", horizon=3, seeds=(1,),
            bound_d=1, bound_t="sqrt3n",
        )
        with pytest.raises(GraphError, match="field 'bound_t': unknown bound tag 'sqrt3n'"):
            run_experiment(cfg)

    def test_unknown_bound_kind_rejected(self):
        cfg = ExperimentConfig(
            graph="path:n=50", cat="stay", mouse="stationary:seed=40",
            horizon=3, seeds=(1,), bound_d=0, bound_t=None, bound_kind="uper",
        )
        with pytest.raises(GraphError, match="bound_kind"):
            run_experiment(cfg)

    def test_malformed_mouse_spec_raises(self):
        cfg = ExperimentConfig(
            graph="path:n=5", cat="sweep", mouse="rw:seed=z",
            horizon=3, seeds=(1,),
        )
        with pytest.raises(GraphError, match="'seed'"):
            run_experiment(cfg)

    def test_runtime_violation_fails_row_not_process(self):
        # spider evader on a non-spider graph: the row fails with a note
        cfg = ExperimentConfig(
            graph="path:n=145", cat="sweep", mouse="spider:t=12",
            horizon=5, seeds=(1, 2), bound_d=10, bound_t=5,
        )
        report = run_experiment(cfg)
        assert not report.all_pass
        assert len(report.rows) == 2
        assert all("not a spider" in r.note for r in report.rows)
        # the CSV carries the note in its error column, quoted where needed
        report.rows[0].note = 'step 3: mouse moved 1 -> 5, not in "closed" neighborhood'
        header, *rows = csv.reader(io.StringIO(report.to_csv_text()))
        assert header == list(CSV_COLUMNS) and header[-1] == "error"
        assert [len(row) for row in rows] == [len(header)] * 2
        assert rows[0][-1] == report.rows[0].note
        assert "not a spider" in rows[1][-1]
        assert [row[header.index("min_radius")] for row in rows] == ["", ""]

    def test_blocked_evader_fails_row_not_process(self):
        # At t = 12 this cat blocks every main branch at the re-anchor of
        # step 196; the row fails with the evader's message.
        report = run_experiment(BLOCKED_EVADER)
        assert not report.all_pass and len(report.rows) == 1
        assert report.rows[0].note == BLOCKED_NOTE
        header, row = csv.reader(io.StringIO(report.to_csv_text()))
        assert row[header.index("error")] == BLOCKED_NOTE
        assert row[header.index("pass")] == "0"

    def test_csv_is_deterministic_and_versioned(self):
        a = run_experiment(SPIDER_UPPER).to_csv_text()
        b = run_experiment(SPIDER_UPPER).to_csv_text()
        assert a == b
        header = a.splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert len(a.splitlines()) == 4

    def test_artifacts_on_disk(self, tmp_path):
        cfg = ExperimentConfig(
            graph="path:n=9",
            cat="sqrt",
            mouse="stationary",
            horizon=6,
            seeds=(4, 5),
            save_transcripts=True,
        )
        report = run_experiment(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "report.csv").exists()
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["aggregate"]["all_pass"] == report.all_pass
        assert payload["resolved_bounds"]["d"] == report.bound_d
        transcripts = sorted(p.name for p in (tmp_path / "transcripts").iterdir())
        assert transcripts == ["seed4_rep0.json", "seed5_rep0.json"]
        one = json.loads((tmp_path / "transcripts" / "seed4_rep0.json").read_text())
        assert one["graph_spec"] == "path:n=9"
        assert one["c"][0] is None

    def test_repetitions_make_rows(self):
        cfg = ExperimentConfig(
            graph="path:n=9", cat="sweep", mouse="rw",
            horizon=6, seeds=(1,), repetitions=3, bound_d=10, bound_t=6,
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 3
        assert len({r.repetition for r in report.rows}) == 3


def _simulate(cat="sweep", mouse="stationary", horizon="5"):
    return [
        "simulate", "--graph", "path:n=9", "--cat", cat,
        "--mouse", mouse, "--horizon", horizon,
    ]


_CONFIG = (
    "graph: path:n=9\ncat: {cat}\nmouse: {mouse}\nhorizon: 4\n"
    "seeds: 1\nrepetitions: {repetitions}\nbound_d: 10\nbound_t: 4\n"
)


def _config(cat="sweep", mouse="stationary", repetitions=1):
    return ["experiment", _CONFIG.format(cat=cat, mouse=mouse, repetitions=repetitions)]


USAGE_ERRORS = [
    pytest.param(argv, field, id=name)
    for name, argv, field in (
        ("cat rand:seed=x", _simulate(cat="rand:seed=x"), "'seed'"),
        ("cat thin:K=abc", _simulate(cat="thin:K=abc"), "'K'"),
        ("cat fat:c=nan", _simulate(cat="fat:c=nan"), "'c'"),
        ("cat fat:c=inf", _simulate(cat="fat:c=inf"), "'c'"),
        ("cat fat:c=1e308", _simulate(cat="fat:c=1e308"), "'c'"),
        ("cat rand:seed=1,seed=2", _simulate(cat="rand:seed=1,seed=2"), "'seed'"),
        ("mouse rw:seed=q", _simulate(mouse="rw:seed=q"), "'seed'"),
        ("mouse spider:t=x", _simulate(mouse="spider:t=x"), "'t'"),
        (
            "mouse spider:t=6",
            _simulate(mouse="spider:t=6"),
            "spec 'spider:t=6': bad value '6' for field 't'",
        ),
        ("mouse greedy:seed=1,extra=2", _simulate(mouse="greedy:seed=1,extra=2"), "'extra'"),
        ("cat sqrt:x=1", _simulate(cat="sqrt:x=1"), "'x'"),
        ("cat stay:K=1", _simulate(cat="stay:K=1"), "'K'"),
        ("gen spider:t=3,t=4", ["gen", "--spec", "spider:t=3,t=4"], "'t'"),
        ("simulate horizon 0", _simulate(horizon="0"), "--horizon"),
        ("simulate horizon -3", _simulate(horizon="-3"), "--horizon"),
        (
            "minimax horizon 0",
            ["minimax", "--graph", "path:n=3", "--horizon", "0", "--distance", "1"],
            "--horizon",
        ),
        (
            "minimax distance -1",
            ["minimax", "--graph", "path:n=3", "--horizon", "4", "--distance", "-1"],
            "--distance",
        ),
        ("config repetitions 0", _config(repetitions=0), "'repetitions'"),
        ("config graph empty", ["experiment", _config()[1].replace("path:n=9", "")], "'graph'"),
        (
            "config horizon 0",
            ["experiment", _config()[1].replace("horizon: 4", "horizon: 0")],
            "'horizon'",
        ),
        ("config repetitions -2", _config(repetitions=-2), "'repetitions'"),
        ("config mouse rw:seed=z", _config(mouse="rw:seed=z"), "'seed'"),
        ("config cat fat:c=0", _config(cat="fat:c=0"), "'c'"),
        ("config cat fat:c=1e308", _config(cat="fat:c=1e308"), "'c'"),
        (
            "config seeds 1,,2",
            ["experiment", _config()[1].replace("seeds: 1", "seeds: 1,,2")],
            "line 5: bad value '1,,2' for field 'seeds'",
        ),
        (
            "config seeds 1,2,",
            ["experiment", _config()[1].replace("seeds: 1", "seeds: 1,2,")],
            "line 5: bad value '1,2,' for field 'seeds'",
        ),
        (
            "config save_transcripts ture",
            ["experiment", _config()[1] + "save_transcripts: ture\n"],
            "'save_transcripts'",
        ),
        ("gen path:n=1_0", ["gen", "--spec", "path:n=1_0"], "'n'"),
        ("gen spider:t=+12", ["gen", "--spec", "spider:t=+12"], "'t'"),
        ("gen grid:3 x3", ["gen", "--spec", "grid:3 x3"], "'shape'"),
        (
            "gen path:n=1",
            ["gen", "--spec", "path:n=1"],
            "error: spec 'path:n=1': bad value '1' for field 'n'",
        ),
        (
            "gen grid:-1x4",
            ["gen", "--spec", "grid:-1x4"],
            "error: spec 'grid:-1x4': bad value '-1x4' for field 'shape'",
        ),
        (
            "gen path:n=10000000",
            ["gen", "--spec", "path:n=10000000"],
            "error: spec 'path:n=10000000': bad value '10000000' for field 'n'",
        ),
        (
            "gen grid:100000x100000",
            ["gen", "--spec", "grid:100000x100000"],
            "error: spec 'grid:100000x100000': bad value '100000x100000' for field 'shape'",
        ),
        (
            "simulate cycle:n=1000001",
            _simulate()[:2] + ["cycle:n=1000001"] + _simulate()[3:],
            "spec 'cycle:n=1000001': bad value '1000001' for field 'n'",
        ),
        (
            "gen spider:t=999,extra=1999",
            ["gen", "--spec", "spider:t=999,extra=1999"],
            "error: spec 'spider:t=999,extra=1999': fields 't' and 'extra' make",
        ),
        ("mouse spider:t=Arabic-Indic 12", _simulate(mouse="spider:t=\u0661\u0662"), "'t'"),
        (
            "config seeds 1_0, +2",
            ["experiment", _config()[1].replace("seeds: 1", "seeds: 1_0, +2")],
            "line 5: bad value '1_0, +2' for field 'seeds'",
        ),
        (
            "config bound_d -1",
            ["experiment", _config()[1].replace("bound_d: 10", "bound_d: -1")],
            "line 7: bad value '-1' for field 'bound_d'",
        ),
        (
            "config bound_t 0",
            ["experiment", _config()[1].replace("bound_t: 4", "bound_t: 0")],
            "line 8: bad value '0' for field 'bound_t'",
        ),
        (
            "config bound_d fourLplusK on sweep",
            ["experiment", _config()[1].replace("bound_d: 10", "bound_d: fourLplusK")],
            "error: field 'bound_d': fourLplusK bound needs a ball-cover cat",
        ),
        (
            "config bound_t threeHalvesK on sweep",
            ["experiment", _config()[1].replace("bound_t: 4", "bound_t: threeHalvesK")],
            "error: field 'bound_t': threeHalvesK bound needs a sphere-walk cat",
        ),
        (
            "config bound_t tOver12 on path",
            ["experiment", _config()[1].replace("bound_t: 4", "bound_t: tOver12")],
            "error: field 'bound_t': tOver12 bound needs a spider graph spec",
        ),
        (
            "config bound_t sqrt3n",
            ["experiment", _config()[1].replace("bound_t: 4", "bound_t: sqrt3n")],
            "line 8: bad value 'sqrt3n' for field 'bound_t'",
        ),
        ("simulate seed 1_0", _simulate() + ["--seed", "1_0"], "--seed"),
        ("simulate seed +3", _simulate() + ["--seed", "+3"], "--seed"),
        (
            "cover separation 0",
            ["cover", "--graph", "path:n=9", "--separation", "0"],
            "--separation",
        ),
        ("gen file:directory", ["gen", "--spec", "file:{tmp}"], "{tmp}"),
        ("gen file:not utf-8", ["gen", "--spec", "file:{tmp}/latin1.txt"], "latin1.txt"),
        ("experiment config directory", ["experiment", "--config", "{tmp}"], "{tmp}"),
    )
]


class TestCli:
    @pytest.mark.parametrize("argv, field", USAGE_ERRORS)
    def test_usage_errors_name_the_field(self, argv, field, tmp_path, capsys):
        (tmp_path / "latin1.txt").write_bytes(b"2 1\n0 1\n# caf\xe9\n")
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        field = field.replace("{tmp}", str(tmp_path))
        if argv[0] == "experiment" and len(argv) == 2:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(argv[1])
            argv = ["experiment", "--config", str(cfg)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert code == 2
        assert len(errors) == 1 and field in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (_simulate(horizon="0"), "argument --horizon: must be >= 1, got 0"),
            (
                ["minimax", "--graph", "path:n=3", "--horizon", "4", "--distance", "-1"],
                "argument --distance: must be >= 0, got -1",
            ),
            (_simulate() + ["--seed", "1_0"], "argument --seed: not an integer: '1_0'"),
        ],
        ids=["horizon 0", "distance -1", "seed 1_0"],
    )
    def test_integer_flag_messages(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_is_an_integer(self, capsys):
        assert main(_simulate() + ["--seed", "-3"]) == 0

    def test_gen_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        assert main(["gen", "--spec", "grid:3x3", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# grid:3x3\n9 12\n")

    def test_simulate_json(self, capsys):
        code = main(
            [
                "simulate", "--graph", "path:n=9", "--cat", "sweep",
                "--mouse", "stationary", "--horizon", "5",
                "--seed", "8", "--track-belief",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["horizon"] == 5
        assert payload["belief_radius"][1] == 4

    @pytest.mark.parametrize("track", [False, True])
    def test_simulate_csv(self, track, capsys):
        argv = [
            "simulate", "--graph", "path:n=9", "--cat", "sweep",
            "--mouse", "stationary:seed=8", "--horizon", "5", "--format", "csv",
        ]
        assert main(argv + ["--track-belief"] * track) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "step,cat,mouse,bit,belief_radius"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[:3] for r in rows] == [[str(i), str(i - 1), "8"] for i in range(1, 6)]
        assert [r[3] for r in rows] == ["", "1", "1", "1", "1"]
        radii = [r[4] for r in rows]
        if track:
            assert radii[0] == "4" and all(radii)
        else:
            assert radii == [""] * 5

    def test_simulate_tracks_belief_beyond_the_matrix_size(self, capsys):
        # 4 * 5000**2 bytes > DistanceOracle.row_bytes, so no full matrix:
        # the radius needs rows only.
        code = main(
            [
                "simulate", "--graph", "path:n=5000", "--cat", "sweep",
                "--mouse", "stationary", "--horizon", "5", "--track-belief",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["belief_radius"][1] == 2500

    def test_experiment_pass_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "graph: spider:t=12,extra=0\ncat: sqrt\nmouse: stationary\n"
            "horizon: 18\nseeds: 1,2\nbound_d: sqrt32n\nbound_t: sqrt2n\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(CSV_COLUMNS)
        out_dir = tmp_path / "report"
        assert main(["experiment", "--config", str(cfg), "--out", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"PASS 2/2 rows (bounds d=69 t=18) -> {out_dir}\n"
        assert (out_dir / "report.csv").exists() and (out_dir / "report.json").exists()

    def test_experiment_fail_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "graph: path:n=50\ncat: stay\nmouse: stationary\n"
            "horizon: 4\nseeds: 1\nbound_d: 0\nbound_t: 4\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 1
        capsys.readouterr()
        out_dir = tmp_path / "report"
        assert main(["experiment", "--config", str(cfg), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().out == f"FAIL 0/1 rows (bounds d=0 t=4) -> {out_dir}\n"

    def test_minimax(self, capsys):
        assert main(["minimax", "--graph", "path:n=3", "--horizon", "4", "--distance", "1"]) == 0
        assert capsys.readouterr().out.strip() in ("cat_wins", "mouse_wins")

    def test_cover_json(self, capsys):
        # without --separation: ceil(sqrt(8n)) = 29, as 28**2 < 800 <= 29**2;
        # 2**31 is past any int32 "no center yet" fill and still keeps vertex 0
        cases = ((["--separation", "10"], 10), ([], 29), (["--separation", str(2**31)], 2**31))
        for flags, separation in cases:
            assert main(["cover", "--graph", "path:n=100", *flags]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["separation"] == separation
            assert payload["centers"] == list(range(0, 100, separation))
            assert payload["radius_k"] == separation - 1

    def test_verify_structure_suite(self, capsys):
        assert main(["verify", "--suite", "structure", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS criterion 8")

    def test_verify_json_reports_elapsed_time(self, capsys):
        assert main(["verify", "--suite", "structure", "--quick", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["criterion"] for c in payload] == [8]
        for c in payload:
            assert isinstance(c["elapsed_s"], float) and c["elapsed_s"] >= 0

    def test_blocked_evader_exits_one_without_traceback(self, tmp_path, capsys):
        cfg = tmp_path / "blocked.cfg"
        cfg.write_text(
            "graph: spider:t=12,extra=0\ncat: rand:seed=25\nmouse: spider:t=12\n"
            "horizon: 300\nseeds: 0\nbound_d: tOver12\nbound_kind: lower\n"
        )
        assert main(["experiment", "--config", str(cfg)]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        header, row = csv.reader(io.StringIO(out))
        assert row[header.index("error")] == BLOCKED_NOTE
        argv = [
            "simulate", "--graph", "spider:t=12,extra=0", "--cat", "rand:seed=25",
            "--mouse", "spider:t=12", "--horizon", "300",
        ]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {BLOCKED_NOTE}\n"

    def test_usage_error_exit_two(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--graph", "path:n=5"])
        assert err.value.code == 2

    def test_bad_spec_exit_two(self, capsys):
        assert main(["gen", "--spec", "moebius:9"]) == 2
        assert "error" in capsys.readouterr().err
