import ast
import os
import subprocess
import sys
from pathlib import Path

import lensknots
from lensknots import checks, farey, surgery, tight


def test_library_has_no_assert():
    """Invariants are enforced by explicit errors, tests and checks, never by
    assert, which vanishes under python -O."""
    hits = []
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_library_does_not_import_dataclasses():
    """Records are hand-written: importing dataclasses loads inspect (and with
    it ast, dis and tokenize), which every CLI call would pay at start-up."""
    hits = []
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(lensknots.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, lensknots.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


def _names_reached(module, entry):
    """Every name that the module-level function `entry` reads, by itself or
    through the module's functions it names, transitively."""
    tree = ast.parse(Path(module.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    names, todo = set(), [entry]
    while todo:
        for node in ast.walk(functions[todo.pop()]):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in functions and name not in names and name != entry:
                todo.append(name)
            names.add(name)
    return names


def test_oracles_stay_independent():
    """The BFS oracle never uses the geodesic it checks or the neighbor
    family the geodesic steps through, the generic determinant and solver
    never use the continued fraction that the linking determinant is
    computed from, the decoration reads path and blocks off the continued
    fraction, never from the Farey geodesic or the shuffle criterion that
    check them (which live in farey and checks), and the Farey vs surgery
    check maps each class to its rotation vector from block sizes, plus
    counts and framings alone, never from the edge vectors or the path."""
    assert {"farthest_neighbor", "neighbor_family"} <= _names_reached(farey, "geodesic")
    shared = {"geodesic", "farthest_neighbor", "neighbor_family", "_ceil_div"}
    assert shared & _names_reached(farey, "bfs_oracle") == set()
    assert "cf_matrix_identity" in _names_reached(surgery, "linking_det")
    for oracle in ("det_bareiss", "solve_exact"):
        reached = _names_reached(surgery, oracle)
        assert {"cf_matrix_identity", "linking_det", "neg_cf"} & reached == set(), oracle
    reached = _names_reached(tight, "decoration")
    assert "neg_cf" in reached
    oracles = {"geodesic", "farthest_neighbor", "groupby", "block_partition", "farey_mul"}
    assert oracles & reached == set()
    assert "geodesic" not in vars(tight)
    assert not hasattr(tight, "block_partition")
    reached = _names_reached(checks, "_rot_failures")
    assert {"steps", "_block_sums", "_edge_weights", "path"} & reached == set()
