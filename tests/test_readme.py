"""README's spec table and the spec reader agree.

Every spec in the first column of README's spec table is parsed as the
graph, cat or mouse its row names, and must give the canonical string
below.  A spec added to the table, or a change in what the reader makes of
one, fails this test until the two are brought back into line.
"""

import re
from pathlib import Path

from catmouse.cats import parse_cat_spec
from catmouse.graphs import DistanceOracle, gen_cycle, parse_graph_spec, write_graph
from catmouse.mice import parse_mouse_spec

README = Path(__file__).resolve().parent.parent / "README.md"

CANONICAL = {
    ("graph", "path:n=5"): "path:n=5",
    ("graph", "path:5"): "path:n=5",
    ("graph", "cycle:n=10"): "cycle:n=10",
    ("graph", "grid:3x4"): "grid:3x4",
    ("graph", "rt:n=100,seed=7"): "rt:n=100,seed=7",
    ("graph", "rt:n=100"): "rt:n=100,seed=0",
    ("graph", "spider:t=12,extra=0"): "spider:t=12,extra=0",
    ("graph", "spider:t=12"): "spider:t=12,extra=0",
    ("graph", "file:PATH"): "file:PATH",
    ("cat", "sqrt"): "sqrt",
    ("cat", "sweep"): "sweep",
    ("cat", "stay"): "stay",
    ("cat", "rand:seed=7"): "rand:seed=7",
    ("cat", "rand"): "rand:seed=5",
    ("cat", "fat:c=2.83"): "fat:c=2.83",
    ("cat", "thin:K=auto"): "thin:K=auto",
    ("cat", "thin:K=12"): "thin:K=12",
    ("mouse", "spider:t=12"): "spider:t=12",
    ("mouse", "stationary:seed=1"): "stationary:seed=1",
    ("mouse", "rw:seed=2"): "rw:seed=2",
    ("mouse", "greedy:seed=3"): "greedy:seed=3",
    ("mouse", "greedy"): "greedy:seed=5",
}


def table_specs() -> list[tuple[str, str]]:
    """(role, spec) for every spec in the first column of the spec table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| spec | fields |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    specs = []
    for row in table.splitlines():
        first = row.split("|")[1].strip()
        role = first.split()[0]
        specs.extend((role, spec) for spec in re.findall(r"`([^`]+)`", first))
    return specs


def test_readme_spec_table_gives_the_canonical_specs(tmp_path):
    specs = table_specs()
    assert sorted(specs) == sorted(CANONICAL)
    g = gen_cycle(30)
    oracle = DistanceOracle(g)
    path = tmp_path / "g.txt"
    path.write_text(write_graph(g))
    for role, spec in specs:
        if role == "graph":
            _, made = parse_graph_spec(spec.replace("PATH", str(path)))
            made = made.replace(str(path), "PATH")
        elif role == "cat":
            made = parse_cat_spec(spec, g, oracle, default_seed=5).spec
        else:
            made = parse_mouse_spec(spec, default_seed=5).spec
        assert made == CANONICAL[role, spec], (role, spec)
