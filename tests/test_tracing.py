"""perfbench's tracer still reaches every layer a game goes through.

`perfbench/tracing.py` wraps catmouse functions on their modules and
methods on their classes, by name.  If a call stops going through one of
those attributes, its layer silently drops out of `perfbench/run.py --trace
1`.  This test plays two short games the way `perfbench/run.py` does,
through the module attributes, and requires the spans of the layers those
games must reach.  The spider evader drives cat clones, so the cat's
query methods must be traced from both callers: the engine (`cats.decide`)
and the evader's lookahead (`cats.clone_query`).  Every distance read goes
through `DistanceOracle.row` (`graphs.row`), so a read that bypassed it
would drop that layer too.
"""

from pathlib import Path

from catmouse import cats, engine, graphs, mice

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_spans_cover_the_game_layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    g, spec = graphs.parse_graph_spec("spider:t=12")
    oracle = graphs.DistanceOracle(g)
    originals = (engine.run_game, cats.parse_cat_spec, cats.scattered_cover)
    tracer = Tracer()
    tracer.install()
    try:
        for cat_spec, mouse_spec in (("sqrt", "spider:t=12"), ("fat:c=1.0", "rw:seed=1")):
            cat = cats.parse_cat_spec(cat_spec, g, oracle)
            mouse = mice.parse_mouse_spec(mouse_spec)
            engine.run_game(g, cat, mouse, 12, track_belief=True, oracle=oracle, graph_spec=spec)
    finally:
        tracer.uninstall()
    assert (engine.run_game, cats.parse_cat_spec, cats.scattered_cover) == originals
    names = {span[0] for span in tracer.spans}
    expected = {
        "engine.run_game", "cats.build", "cats.decide", "cats.clone", "cats.clone_query",
        "mice.decide", "graphs.cover", "graphs.row", "engine.kernel", "engine.radius",
    }
    assert expected <= names, sorted(expected - names)
