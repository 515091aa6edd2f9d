"""A pinned digest of the transcripts of a fixed roster of games.

The roster covers every cat kind and the three seeded mice on six corpus
graphs, plus the spider evader on the two spiders, all with tracked beliefs
at horizon 120.  The digest hashes each transcript's `to_json()`, each of
its belief masks, and the final `phase_log` / `champion_vertex` of the cats
that have them.  A refactor that keeps behaviour keeps the digest.

A second digest, `EVADER_GOLDEN`, pins the spider evader at t = 24 (where
t/12 = 2) against the ten cats of acceptance criterion 6 at horizon 300:
each transcript's `to_json()`, its belief masks, and the evader's
`shadow_trace` and `stage_events`.

Changing `GOLDEN` or `EVADER_GOLDEN` is a deliberate transcript change:
record it, and why, in CHANGES.md.
"""

import hashlib

from catmouse.cats import parse_cat_spec
from catmouse.engine import run_game
from catmouse.graphs import DistanceOracle, parse_graph_spec
from catmouse.mice import SpiderMouse, parse_mouse_spec

HORIZON = 120
GRAPHS = (
    "path:n=60",
    "cycle:n=40",
    "grid:5x7",
    "rt:n=50,seed=2",
    "spider:t=12,extra=0",
    "spider:t=12,extra=7",
)
CATS = ("sqrt", "thin:K=auto", "fat:c=0.5", "fat:c=2.0", "sweep", "stay", "rand:seed=5")
MICE = ("stationary:seed=3", "rw:seed=4", "greedy:seed=9")
GOLDEN = "75fefaaf932185e7e2c39e3058451ebb27c81900a2f7e50a4f476126a5480eef"

EVADER_CATS = (
    "sqrt", "thin:K=auto", "fat:c=0.5", "sweep", "rand:seed=101", "rand:seed=102",
    "rand:seed=103", "rand:seed=104", "rand:seed=105", "stay",
)
EVADER_GOLDEN = "9ac824656855ec0573f2c6454df4d524f01fc12ab0757e8fc667a2c85e303de2"


def roster_digest() -> tuple[str, int]:
    sha = hashlib.sha256()
    games = 0
    for graph_spec in GRAPHS:
        g, spec = parse_graph_spec(graph_spec)
        oracle = DistanceOracle(g)
        mice = MICE + (("spider:t=12",) if graph_spec.startswith("spider") else ())
        for cat_spec in CATS:
            for mouse_spec in mice:
                cat = parse_cat_spec(cat_spec, g, oracle)
                mouse = parse_mouse_spec(mouse_spec)
                tr = run_game(g, cat, mouse, HORIZON, track_belief=True, oracle=oracle, graph_spec=spec)
                sha.update(tr.to_json().encode())
                for mask in tr.beliefs[1:]:
                    sha.update(b"%x;" % mask)
                for attr in ("phase_log", "champion_vertex"):
                    sha.update(repr(getattr(cat, attr, None)).encode())
                games += 1
    return sha.hexdigest(), games


def test_roster_digest_is_pinned():
    digest, games = roster_digest()
    assert games == 140
    assert digest == GOLDEN


def evader_digest() -> str:
    sha = hashlib.sha256()
    g, spec = parse_graph_spec("spider:t=24,extra=0")
    oracle = DistanceOracle(g)
    for cat_spec in EVADER_CATS:
        mouse = SpiderMouse(24)
        cat = parse_cat_spec(cat_spec, g, oracle)
        tr = run_game(g, cat, mouse, 300, track_belief=True, oracle=oracle, graph_spec=spec)
        sha.update(tr.to_json().encode())
        for mask in tr.beliefs[1:]:
            sha.update(b"%x;" % mask)
        sha.update(repr(mouse.shadow_trace).encode())
        sha.update(repr(mouse.stage_events).encode())
    return sha.hexdigest()


def test_evader_digest_is_pinned():
    assert evader_digest() == EVADER_GOLDEN
