"""Per-layer tracing of lensknots from outside the program.

A traced run wraps every public function of each module, at every module
that bound it (a name imported with `from .farey import geodesic` is
wrapped in tight and checks as well as in farey), and counts Slope
constructions through Slope.__post_init__.  Each wrapped call records a
span: name, start, end, parent span and the op it belongs to.  Spans stay
in memory; self time is a span's duration minus its child spans.

Small helpers called many times per op (COUNT_ONLY) are counted but get no
span, so their time is part of their caller's self time: the cost of a
farthest-neighbour step shows in farey.geodesic, not beside it.

Untraced runs never import this module.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from workloads import MODULES

COUNT_ONLY = frozenset(
    {
        "slopes.farey_mul",
        "slopes.farey_sum",
        "farey.in_arc",
        "farey.farthest_neighbor",
        "farey.neighbor_family",
    }
)


def _count_chain(tracer, chain):
    tracer.counts["surgery.chain_len_sum"] += len(chain.framings)
    tracer.chains.add((chain.framings, chain.meridian_of))


# Counters read off a wrapped call's result.
RESULT_COUNTERS = {
    "farey.geodesic": lambda tr, r: tr.counts.update({"farey.geodesic.vertices": len(r)}),
    "tight.enumerate_tight": lambda tr, r: tr.counts.update({"tight.classes": len(r)}),
    "surgery.build_chain": _count_chain,
    "surgery.rot_choices": lambda tr, r: tr.counts.update({"surgery.rot_vectors": len(r)}),
    "unknots.mountain_range": lambda tr, r: tr.counts.update(
        {"unknots.mountain_range.points": len(r.points)}
    ),
}
# Generator functions whose yielded items are counted under another name.
ITEM_COUNTERS = {"checks.lens_pairs": "checks.cases"}

# Per-layer metrics: name -> unit.  Values are per op of the traced op
# list, except the ratio, the error totals and the trace.* figures.
LAYER_METRICS = {
    "slopes.Slope.count": "count/op",
    "slopes.neg_cf.calls": "count/op",
    "slopes.neg_cf.self_ms": "ms/op",
    "farey.geodesic.calls": "count/op",
    "farey.geodesic.self_ms": "ms/op",
    "farey.geodesic.vertices": "count/op",
    "farey.bfs_oracle.calls": "count/op",
    "farey.bfs_oracle.self_ms": "ms/op",
    "farey.in_arc.calls": "count/op",
    "bypass.basic_slice_walk.self_ms": "ms/op",
    "bypass.attach_bypass.calls": "count/op",
    "tight.enumerate_tight.calls": "count/op",
    "tight.enumerate_tight.self_ms": "ms/op",
    "tight.classes": "count/op",
    "surgery.rot_spectrum.calls": "count/op",
    "surgery.rot_spectrum.self_ms": "ms/op",
    "surgery.solve_exact.calls": "count/op",
    "surgery.solve_exact.self_ms": "ms/op",
    "surgery.det_bareiss.calls": "count/op",
    "surgery.det_bareiss.self_ms": "ms/op",
    "surgery.chain_len_sum": "count/op",
    "surgery.rot_vectors": "count/op",
    "surgery.solves_per_chain": "ratio",
    "unknots.legendrian_classification.self_ms": "ms/op",
    "unknots.rot_q_farey.self_ms": "ms/op",
    "unknots.mountain_range.points": "count/op",
    "mcg.self_ms": "ms/op",
    "checks.check_sweep.self_ms": "ms/op",
    "checks.cases": "count/op",
    **{f"{m}.errors": "count" for m in MODULES},
}


class Tracer:
    """Wrappers, spans and counters for one traced pass over the op list."""

    def __init__(self, modules: dict, clock=time.perf_counter):
        self.modules = modules
        self.clock = clock
        self.counts = Counter()
        self.chains = set()
        self.names: list[str] = ["op"]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op = -1
        self._undo = []

    # --- spans ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(self.clock())
        return idx

    def _close(self, idx: int):
        self.span_end[idx] = self.clock()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    @contextmanager
    def op_span(self, index: int):
        self.op = index
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    # --- wrappers --------------------------------------------------------

    def _wrap(self, key: str, fn):
        counts = self.counts
        module = key.split(".", 1)[0]
        calls = key + ".calls"
        if inspect.isgeneratorfunction(fn):
            items = ITEM_COUNTERS.get(key, key + ".items")

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                counts[calls] += 1
                for item in fn(*args, **kwargs):
                    counts[items] += 1
                    yield item

            return gen_wrapper
        if key in COUNT_ONLY:

            @functools.wraps(fn)
            def counter(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

            return counter
        name_id = self._name_id(key)
        derive = RESULT_COUNTERS.get(key)
        errors = module + ".errors"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[errors] += 1
                raise
            finally:
                self._close(idx)
            if derive is not None:
                derive(self, result)
            return result

        return wrapper

    def _replace(self, holder, attr: str, new):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, new)

    def install(self):
        holders = list(self.modules.values())
        for m in MODULES:
            mod = self.modules[m]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{m}.{name}", obj)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._replace(holder, attr, wrapper)
        slope = self.modules["slopes"].Slope
        post_init = slope.__post_init__
        counts = self.counts

        @functools.wraps(post_init)
        def counted_post_init(obj):
            counts["slopes.Slope.count"] += 1
            post_init(obj)

        self._replace(slope, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._undo:
            holder, attr, old = self._undo.pop()
            setattr(holder, attr, old)

    # --- results ---------------------------------------------------------

    def self_seconds(self, op_scales: list[float]) -> dict[str, float]:
        """Scaled self time per span name, summed over the pass."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = defaultdict(float)
        for i in range(n):
            own = self.span_end[i] - self.span_start[i] - child[i]
            out[self.names[self.span_name[i]]] += own * op_scales[self.span_op[i]]
        return out

    def metrics(self, op_scales: list[float]) -> dict[str, float]:
        n_ops = len(op_scales)
        own = self.self_seconds(op_scales)
        out = {}
        for name, unit in LAYER_METRICS.items():
            if name.endswith(".self_ms"):
                layer = name[: -len(".self_ms")]
                if "." in layer:
                    seconds = own.get(layer, 0.0)
                else:
                    seconds = sum(v for k, v in own.items() if k.startswith(layer + "."))
                out[name] = seconds * 1e3 / n_ops
            elif unit == "count/op":
                out[name] = self.counts[name] / n_ops
            elif unit == "count":
                out[name] = self.counts[name]
        solves = self.counts["surgery.solve_exact.calls"]
        out["surgery.solves_per_chain"] = solves / len(self.chains) if self.chains else 0.0
        return out

    def write_spans(self, path):
        """Tab-separated spans: op, parent span, name, start and end in ms
        from the first span."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with open(path, "w") as f:
            f.write("span\top\tparent\tname\tstart_ms\tend_ms\n")
            for i in range(len(self.span_start)):
                f.write(
                    f"{i}\t{self.span_op[i]}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{(self.span_start[i] - t0) * 1e3:.4f}\t{(self.span_end[i] - t0) * 1e3:.4f}\n"
                )
