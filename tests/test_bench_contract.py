"""The benchmark's use of the library: lkbench/workloads.py calls public
functions by name, and lkbench/layers.py reads counters off their results,
so a renamed function, a changed signature or a changed record shows up
here rather than as failed benchmark ops."""

import importlib.util
import math
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


def _traced(target, layers, op):
    """The per-layer metrics of one op, op(), under the benchmark's tracer,
    as a traced run makes it."""
    tracer = layers.Tracer(target.modules)
    tracer.install()
    try:
        with tracer.op_span(0):
            assert op() is True
    finally:
        tracer.uninstall()
    return tracer.metrics([1.0])


def test_census_query_traced(bench):
    workloads, target, layers = bench
    p, q = workloads.WORKLOADS["census"].warmup
    metrics = _traced(target, layers, lambda: workloads.census_query(target, p, q))
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


# The stale counters and the weak spectrum check that ROADMAP item 1 mends
# in lkbench/; each pin fails until it does, and then must be flipped.
_ITEM_1 = pytest.mark.xfail(strict=True, reason="a stale benchmark counter or check; ROADMAP item 1 mends it")


@_ITEM_1
def test_traced_spectrum_op_counts_its_rotation_vectors(bench):
    # The counter wraps surgery.rot_choices, which no longer exists, so it reads 0.
    workloads, target, layers = bench
    p, q = workloads.lens_from_chain([-2, -3, -2, -4, -2])
    vectors = sum(
        math.prod(-r - 1 for r in target.surgery.build_chain(p, q, knot).framings) for knot in ("k1", "k2")
    )
    metrics = _traced(target, layers, lambda: workloads.spectrum_check(target, p, q))
    assert metrics["surgery.rot_vectors"] == vectors


@_ITEM_1
def test_traced_sweep_op_counts_the_sweeps_cases(bench):
    # The counter counts the lens pairs drawn, 127 at p_max 20, not the sweep's 2569 comparisons.
    workloads, target, layers = bench
    p_max = workloads.SWEEP_PMAX
    cases = sum(c.cases for c in target.checks.check_sweep(p_max).checks)
    metrics = _traced(target, layers, lambda: workloads.sweep_check(target, p_max))
    assert metrics["checks.cases"] == cases


def _negate_k2(target, monkeypatch):
    """Patch unknots._peaks, in every module that binds it, to negate the
    rot of k2 and of -k2."""
    peaks = target.unknots._peaks

    def mutant(ts):
        out = peaks(ts)
        for knot in ("k2", "-k2"):
            rot, tb = out[knot]
            out[knot] = -rot, tb
        return out

    for module in target.modules.values():
        if getattr(module, "_peaks", None) is peaks:
            monkeypatch.setattr(module, "_peaks", mutant)


def test_the_k2_mutant_changes_k2_and_check_catches_it(bench, monkeypatch):
    _, target, _ = bench
    classes = target.tight.enumerate_tight(5, 2)
    before = [target.unknots.rot_q_farey(ts, "k2") for ts in classes]
    _negate_k2(target, monkeypatch)
    assert [target.unknots.rot_q_farey(ts, "k2") for ts in classes] == [-r for r in before] != before
    failed = [c for c in target.checks.check_sweep(5).checks if not c.passed]
    assert [(c.name, c.counterexample) for c in failed][:1] == [("rotation numbers: Farey vs surgery", "L(3,1) k2")]


@_ITEM_1
def test_spectrum_check_catches_the_k2_mutant(bench, monkeypatch):
    # spectrum_check compares sorted spectra, which negating k2 leaves as they are.
    workloads, target, _ = bench
    _negate_k2(target, monkeypatch)
    assert workloads.spectrum_check(target, 5, 2) is False
