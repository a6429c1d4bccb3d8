"""The benchmark's use of the library: lkbench/workloads.py calls public
functions by name, and lkbench/layers.py reads counters off their results,
so a renamed function, a changed signature or a changed record shows up
here rather than as failed benchmark ops."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    """lkbench/<name>.py as the module `name`, as lkbench/run.py imports it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "lkbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks workloads up by name while building Workload, and
    # layers imports it by name.
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    """lkbench/workloads.py, lkbench/layers.py and a Target loaded from
    this checkout.

    Target.load re-imports the package; the modules, classes and sys.path
    entries the other tests hold are put back afterwards."""
    saved_modules = {
        name: mod
        for name, mod in sys.modules.items()
        if name == "lensknots" or name.startswith("lensknots.")
    }
    saved_path = list(sys.path)
    try:
        workloads = _load("workloads")
        layers = _load("layers")
        target = workloads.Target(ROOT)
        target.load()
        yield workloads, target, layers
    finally:
        for name in ("workloads", "layers"):
            sys.modules.pop(name, None)
        for name in [m for m in sys.modules if m == "lensknots" or m.startswith("lensknots.")]:
            del sys.modules[name]
        sys.modules.update(saved_modules)
        sys.path[:] = saved_path


@pytest.mark.parametrize("name", ["census", "spectrum", "sweep", "cli"])
def test_warm_up(bench, name):
    workloads, target, _ = bench
    assert workloads.warm_up(target, workloads.WORKLOADS[name]) is True


def test_census_query_on_seed_1(bench):
    workloads, target, _ = bench
    w = workloads.WORKLOADS["census"]
    # The benchmark seeds each workload's generator this way.
    cycle = next(w.cycles(random.Random("census/1")))
    for p, q in cycle[:5]:
        assert workloads.census_query(target, p, q) is True, (p, q)


def test_census_query_traced(bench):
    """One census op under the benchmark's per-layer tracer, as a traced
    run makes it."""
    workloads, target, layers = bench
    p, q = workloads.WORKLOADS["census"].warmup
    tracer = layers.Tracer(target.modules)
    tracer.install()
    try:
        with tracer.op_span(0):
            assert workloads.census_query(target, p, q) is True
    finally:
        tracer.uninstall()
    metrics = tracer.metrics([1.0])
    assert set(metrics) == set(layers.LAYER_METRICS)
    assert metrics["tight.enumerate_tight.calls"] == 1
    assert metrics["tight.classes"] == target.tight.count_tight_lens(p, q)
    knots = len(target.mcg.unknot_classes(p, q))
    assert metrics["unknots.mountain_range.points"] == 15 * knots  # depth 4
    # The decoration walks the chain, so only the bypass walk, one attachment
    # per edge of the decorated path, reaches the Farey layer.
    assert metrics["farey.geodesic.calls"] == 0
    path = target.tight.decoration(p, q).path
    assert metrics["bypass.attach_bypass.calls"] == len(path) - 1
    assert metrics["slopes.Slope.count"] > 0
    assert metrics["unknots.legendrian_classification.self_ms"] > 0
    assert [name for name in metrics if name.endswith(".errors") and metrics[name]] == []
