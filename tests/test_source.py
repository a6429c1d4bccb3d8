import ast
import os
import subprocess
import sys
from pathlib import Path

import lensknots
from lensknots import checks, cli, farey, mcg, slopes, surgery, tight, unknots


def test_library_has_no_assert():
    """Invariants are enforced by explicit errors, tests and checks, never by
    assert, which vanishes under python -O."""
    hits = []
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                hits.append(f"{path.name}:{node.lineno}")
    assert hits == []


def test_library_parses_as_python_3_10():
    """pyproject.toml declares requires-python >= 3.10, so no module may use
    newer syntax, such as except* or a type statement."""
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=(3, 10))


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


def test_slope_has_one_classmethod_constructor():
    """A slope is built as Slope(num, den) or read by Slope.parse, which
    takes only what str() prints; no third constructor accepts more."""
    tree = ast.parse(Path(slopes.__file__).read_text())
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Slope"]
    classmethods = [
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(d, ast.Name) and d.id == "classmethod" for d in node.decorator_list)
    ]
    assert classmethods == ["parse"]


def test_library_calls_float_only_for_the_svg():
    """Every value is exact; the SVG's pixel coordinates in
    cli.cmd_mountain are the one rounded output.  A float comes from a
    float() call or a true division, and the SVG's are int true divisions,
    rounded correctly as float() of the Fraction would be."""
    hits = []
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                    hits.append((path.stem, getattr(top, "name", None), "float"))
                elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                    hits.append((path.stem, getattr(top, "name", None), "/"))
    assert set(hits) == {("cli", "cmd_mountain", "/")}


def test_fractions_is_imported_only_by_the_lazy_binder():
    """fractions (which loads decimal, numbers and re) is imported at one
    site in the library, inside slopes._fraction, which binds the class on
    its first call; every other module builds its Fractions through it."""
    hits = []
    for path in sorted(Path(lensknots.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "fractions" for m in modules):
                    hits.append((path.stem, getattr(top, "name", None)))
    assert hits == [("slopes", "_fraction")]


# Loaded by fractions (decimal, numbers, re, and enum through re) or by json:
# neither an import of the package nor any CLI call loads them.
_RATIONAL_MACHINERY = {"fractions", "decimal", "_decimal", "numbers", "re", "enum", "json"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """A call loads no dataclasses or inspect, and argparse, with the shutil
    and locale (through gettext) that it pulls in, only for the help and
    usage errors.  No call, check included, loads fractions, json or what
    they import."""
    src = str(Path(lensknots.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def child(*argv):
        """Exit code, standard output and the modules loaded of a CLI child;
        -X importtime writes "import time: self | cumulative | module"."""
        out = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "lensknots.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        loaded = {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines() if "|" in line}
        return out.returncode, out.stdout, loaded

    code, out, loaded = child("mcg", "7", "2")
    assert (code, out) == (0, "smooth: Z2 [tau]\ncontact: 1\n")
    assert "lensknots.mcg" in loaded  # -m runs lensknots.cli as __main__
    assert {"dataclasses", "inspect", "argparse", "shutil", "locale", "gettext"} & loaded == set()
    code, out, loaded = child("farey", "-h")
    assert code == 0 and out.startswith("usage: lensknots farey [-h] {path} FROM TO\n")
    assert "argparse" in loaded
    # One call of each subcommand of the benchmark's cli mix but check.
    for argv in (
        ["mcg", "7", "2"],
        ["mcg", "8", "3", "--kernel"],
        ["farey", "path", "-12/5", "0"],
        ["bypass", "-5/2", "0", "--back"],
        ["tight-structures", "12", "5", "--list"],
        ["unknots", "12", "5"],
        ["unknots", "12", "5", "--format", "json"],
        ["surgery", "12", "5", "--format", "json", "--knot", "k2"],
        ["surgery", "12", "5", "--rots", "-1,0,1"],
        ["mountain-range", "12", "11", "--knot=-k1", "--depth", "3", "--format", "tsv"],
        ["mountain-range", "12", "11", "--knot=k1", "--depth", "3", "--format", "json"],
        ["mountain-range", "12", "11", "--knot=k1", "--depth", "3", "--format", "svg"],
    ):
        code, out, loaded = child(*argv)
        assert code == 0 and out, argv
        assert _RATIONAL_MACHINERY & loaded == set(), argv
    # -X importtime lists every import, so a Fraction built on the sweep shows.
    code, out, loaded = child("check", "--pmax", "6", "--format", "json")
    assert code == 0 and out.startswith('{"p_max": 6, ')
    assert _RATIONAL_MACHINERY & loaded == set()


def test_package_import_loads_no_rational_machinery():
    """Importing the package, which binds every public name of the library
    down to checks, loads neither fractions nor json nor what they load."""
    src = str(Path(lensknots.__file__).parent.parent)
    code = "import sys, lensknots; print(sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    ).stdout
    loaded = set(ast.literal_eval(out))
    assert "lensknots.cli" not in loaded and "lensknots.checks" in loaded
    assert _RATIONAL_MACHINERY & loaded == set()


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
    check them (which live in farey and checks), the per-edge rot_Q oracle
    never uses the block sums, edge vectors or rot_q_farey it checks, and
    the Farey vs surgery check, with the batch it reads, maps each class to
    its rotation vector from block sizes, plus counts and framings alone,
    never from the edge vectors or the path.
    Every farey and surgery name forbidden here is bound in its module, so
    a deleted or renamed helper fails the test instead of passing it."""
    assert {"farthest_neighbor", "neighbor_family"} <= _names_reached(farey, "geodesic")
    shared = {"geodesic", "farthest_neighbor", "neighbor_family"}
    assert shared <= vars(farey).keys()
    assert shared & _names_reached(farey, "bfs_oracle") == set()
    assert "cf_matrix_identity" in _names_reached(surgery, "linking_det")
    continuant = {"cf_matrix_identity", "linking_det", "neg_cf"}
    assert continuant <= vars(surgery).keys()
    for oracle in ("det_bareiss", "solve_exact"):
        assert continuant & _names_reached(surgery, oracle) == set(), oracle
    reached = _names_reached(tight, "decoration")
    assert "neg_cf" in reached
    oracles = {"geodesic", "farthest_neighbor", "groupby", "block_partition", "farey_mul"}
    assert oracles & reached == set()
    assert "geodesic" not in vars(tight)
    assert not hasattr(tight, "block_partition")
    reached = _names_reached(checks, "rot_q_edges")
    assert {"_edge_weights", "_edge_total"} <= reached
    assert "steps" in _names_reached(unknots, "_block_sums")
    assert {"_block_sums", "rot_q_farey"} <= vars(unknots).keys()
    assert {"_block_sums", "steps", "rot_q_farey"} & reached == set()
    # _lens_space builds the batch that _rot_failures reads.
    reached = _names_reached(checks, "_rot_failures") | _names_reached(checks, "_lens_space")
    assert {"_peaks", "build_chain", "chains"} <= reached
    assert {"steps", "_block_sums", "_edge_weights", "path"} & reached == set()


def test_check_reads_the_unknots_off_the_decoration():
    """The MCG family compares mcg's table of oriented unknots with the
    decoration's list, which unknots prints and tight derives from H_1
    without the table, and it reads the peaks off unknots._peaks through
    the batch, never through unknots.tb_q_peak, which checks does not bind."""
    assert "unknot_classes" in vars(mcg) and "tb_q_peak" in vars(unknots)
    assert "unknot_classes" not in vars(tight)
    reached = _names_reached(checks, "_mcg_failures")
    assert {"decoration", "knots", "unknot_classes", "cf_matrix_identity"} <= reached
    assert "tb_q_peak" not in reached
    assert "tb_q_peak" not in vars(checks)


def test_check_compares_integers():
    """check's families compare the integer forms unknots._peaks and
    surgery._rot_sums; checks binds neither Fraction function over them,
    and no family, nor the sweep that builds their batch, reaches
    _fraction, so a Fraction cannot come back onto the sweep."""
    public = {"rot_q_farey", "rot_q_surgery"}
    assert "rot_q_farey" in vars(unknots) and "rot_q_surgery" in vars(surgery)
    assert public & vars(checks).keys() == set()
    assert "_peaks" in _names_reached(checks, "_lens_space")
    assert "_rot_sums" in _names_reached(checks, "_rot_failures")
    families = [family.__name__ for _, family in checks._FAMILIES]
    for entry in ("check_sweep", "_lens_space", *families):
        assert {"_fraction", "Fraction"} & _names_reached(checks, entry) == set(), entry


def test_linking_matrix_has_one_row_builder():
    """rot_q_surgery hands the chain's sparse rows straight to _cramer, with
    no dense matrix to re-read; linking_matrix renders the same rows, and
    _rows reads only the matrices given to det_bareiss and solve_exact."""
    reached = _names_reached(surgery, "rot_q_surgery")
    assert {"_linking_rows", "_cramer"} <= reached
    assert {"_rows", "linking_matrix"} <= vars(surgery).keys()
    assert {"_rows", "linking_matrix"} & reached == set()
    assert "_linking_rows" in _names_reached(surgery, "linking_matrix")
    for oracle in ("det_bareiss", "solve_exact"):
        assert "_rows" in _names_reached(surgery, oracle), oracle


def test_rationals_are_built_only_at_the_return():
    """rot_q_surgery reads M^-1 . lk as integers over det M from _cramer, not
    as solve_exact's reduced fractions put back over their lcm, and
    eval_neg_cf runs the continuant recurrence on ints, with no Fraction."""
    assert {"_cramer", "solve_exact"} <= vars(surgery).keys()
    reached = _names_reached(surgery, "rot_q_surgery")
    assert "_cramer" in reached
    assert {"solve_exact", "lcm"} & reached == set()
    assert "_fraction" in vars(slopes)
    assert {"Fraction", "_fraction"} & _names_reached(slopes, "eval_neg_cf") == set()


def test_each_rational_has_one_integer_form():
    """Each public Fraction function divides its private integer form once,
    at its return, and the CLI renders the integer forms: it reaches none
    of the Fraction functions.  A structure's peaks have one integer form,
    unknots._peaks, which every peak function and the CLI read; unknots
    binds no second route to them."""
    wraps = {
        unknots: {
            "rot_q_farey": "_peaks",
            "legendrian_classification": "_peaks",
            "mountain_range": "_peaks",
        },
        surgery: {"rot_q_surgery": "_rot_sums", "rot_spectrum": "_spectrum"},
    }
    for module, pairs in wraps.items():
        for public, private in pairs.items():
            assert {private, "_fraction"} <= _names_reached(module, public), public
            assert "_fraction" not in _names_reached(module, private), private
    assert {"_rot", "_classification", "_peak"} & vars(unknots).keys() == set()
    # The peak tb is divided through _tb_fraction, _fraction with a cache.
    assert unknots._tb_fraction.__wrapped__ is slopes._fraction
    assert {"peak_tb", "_tb_fraction"} <= _names_reached(unknots, "tb_q_peak")
    assert "_fraction" not in _names_reached(tight, "peak_tb")
    fraction_functions = {"tb_q_peak", *(name for pairs in wraps.values() for name in pairs)}
    for command in ("cmd_surgery", "cmd_unknots", "cmd_mountain"):
        reached = _names_reached(cli, command)
        assert "_ratio" in reached, command
        assert fraction_functions & reached == set(), command
    assert {"_peaks", "sl_q"} <= _names_reached(cli, "cmd_unknots")
    assert {"_peaks", "_columns", "_rows", "_depth"} <= _names_reached(cli, "cmd_mountain")
    assert {"_rot_sums", "_spectrum"} <= _names_reached(cli, "cmd_surgery")


def test_surgery_reads_its_spectrum_off_one_chain():
    """rot_spectrum and the CLI read the spectrum off a built chain through
    one private _spectrum, and cmd_surgery builds that chain itself instead
    of calling rot_spectrum, which would build it again.  _spectrum sums
    one term per component off the sparse meridian solve: it builds no
    rotation vector, re-checks none and never reads a dense matrix."""
    assert "_spectrum" in _names_reached(surgery, "rot_spectrum")
    spectrum = _names_reached(surgery, "_spectrum")
    assert {"_cramer", "_linking_rows", "_rots"} <= spectrum
    assert not {"rot_q_surgery", "_rows", "linking_matrix", "solve_exact"} & spectrum
    reached = _names_reached(cli, "cmd_surgery")
    assert {"_spectrum", "build_chain"} <= reached
    assert "rot_spectrum" in vars(surgery)
    assert "rot_spectrum" not in reached


_LAYERS = (("slopes",), ("farey", "bypass"), ("tight", "surgery"), ("unknots", "mcg"), ("checks",), ("cli",))


def test_modules_import_down_the_layers():
    """Each module imports (from .x import ..., from . import x) only modules
    of its own layer or an earlier one: slopes -> farey/bypass ->
    tight/surgery -> unknots/mcg -> checks -> cli, as the README says."""
    layer = {module: i for i, modules in enumerate(_LAYERS) for module in modules}
    root = Path(lensknots.__file__).parent
    assert set(layer) == {path.stem for path in root.glob("*.py")} - {"__init__"}
    upward = set()
    for module in layer:
        for node in ast.walk(ast.parse((root / f"{module}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("lensknots")):
                target = (node.module or "").removeprefix("lensknots").lstrip(".")
                for name in [target] if target else [alias.name for alias in node.names]:
                    if layer[name] > layer[module]:
                        upward.add((module, name))
    assert upward == set()


def test_readme_spells_the_layers():
    """The README's layer chain is the one _LAYERS holds."""
    chain = " -> ".join("/".join(f"`{module}`" for module in modules) for modules in _LAYERS)
    readme = " ".join((Path(__file__).resolve().parent.parent / "README.md").read_text().split())
    assert f"The modules import down these layers: {chain}. No module imports upward;" in readme
