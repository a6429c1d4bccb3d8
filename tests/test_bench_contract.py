"""The benchmark's use of the library: lkbench/workloads.py calls public
functions by name, so a renamed function or a changed signature shows up
here rather than as failed benchmark ops."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    """lkbench/workloads.py and a Target loaded from this checkout.

    Target.load re-imports the package; the modules, classes and sys.path
    entries the other tests hold are put back afterwards."""
    saved_modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "lensknots" or name.startswith("lensknots.")
    }
    saved_path = list(sys.path)
    spec = importlib.util.spec_from_file_location(
        "lkbench_workloads", ROOT / "lkbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses looks the module up by name while building Workload.
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        target = workloads.Target(ROOT)
        target.load()
        yield workloads, target
    finally:
        del sys.modules[spec.name]
        for name in [m for m in sys.modules if m == "lensknots" or m.startswith("lensknots.")]:
            del sys.modules[name]
        sys.modules.update(saved_modules)
        sys.path[:] = saved_path


@pytest.mark.parametrize("name", ["census", "spectrum", "sweep", "cli"])
def test_warm_up(bench, name):
    workloads, target = bench
    assert workloads.warm_up(target, workloads.WORKLOADS[name]) is True


def test_census_query_on_seed_1(bench):
    workloads, target = bench
    w = workloads.WORKLOADS["census"]
    # The benchmark seeds each workload's generator this way.
    cycle = next(w.cycles(random.Random("census/1")))
    for p, q in cycle[:5]:
        assert workloads.census_query(target, p, q) is True, (p, q)
