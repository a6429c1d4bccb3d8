"""lensknots benchmark: one seeded workload per run.

    python3 lkbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its src/.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones; with --trace 1 they are the per-layer ones of a
separate traced run.  The line before it carries details: sample counts,
the tail percentile, unscaled figures and the reference readings.

Exit status is 2, with nothing on standard output, when the checkout holds
no src/lensknots package.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import machine
from workloads import WORKLOADS, Target, warm_up

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 7
TAIL_BEYOND = 10
SPANS_DIR = ".bench_out"


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and
    that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Tally:
    """Ops attempted and failed; a failed check or an exception counts as a
    failed op and never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_errors: list[str] = []

    def run(self, clock, fn, *args) -> float | None:
        """fn(*args) -> passed; returns its time on clock, None if it
        raised."""
        self.attempted += 1
        try:
            t0 = clock()
            ok = fn(*args)
            seconds = clock() - t0
        except Exception:
            self._error()
            return None
        if not ok:
            self.failed += 1
        return seconds

    def op(self, clock, t: Target, w, x) -> float | None:
        """One op of w on input x; its expected output, if it has one, is
        computed first and untimed, and a failure there fails the op."""
        expected = None
        if w.expect is not None:
            try:
                expected = w.expect(t, x)
            except Exception:
                self.attempted += 1
                self._error()
                return None
        return self.run(clock, w.op, t, x, expected)

    def _error(self):
        self.failed += 1
        if len(self.first_errors) < 3:
            self.first_errors.append(traceback.format_exc())


def make_meter(t: Target, w) -> machine.Meter:
    return machine.Meter() if w.in_process else machine.Meter(child_cwd=t.root)


def set_up(t: Target, w, tally: Tally) -> list[float]:
    """Import the package afresh and run the fixed warm-up op, SETUP_REPS
    times; returns each repetition's scaled seconds."""

    def once():
        t.load()
        return warm_up(t, w)

    with machine.Meter(batch_s=0.0) as meter:
        for _ in range(SETUP_REPS):
            gc.collect()  # so that no rep pays for garbage left by the one before
            meter.add(tally.run(meter.clock, once) or 0.0)
    return meter.scaled()


def timed_run(t: Target, w, seed: int, seconds: float, tally: Tally):
    """Whole cycles of the seeded input stream until `seconds` have passed;
    returns the meter, the scaled op times and the cycle boundaries."""
    cycle_ends = [0]
    deadline = time.perf_counter() + seconds
    with make_meter(t, w) as meter:
        for cycle in w.cycles(random.Random(f"{w.name}/{seed}")):
            for x in cycle:
                op_s = tally.op(meter.clock, t, w, x)
                if op_s is not None:
                    meter.add(op_s)
            cycle_ends.append(len(meter.raw))
            if time.perf_counter() >= deadline:
                break
    return meter, meter.scaled(), cycle_ends


def cycle_rates(times: list[float], cycle_ends: list[int]) -> list[float]:
    """Ops per second of each cycle of the input mix."""
    return [
        (end - start) / sum(times[start:end])
        for start, end in zip(cycle_ends, cycle_ends[1:])
        if end > start
    ]


def end_to_end(t: Target, w, seed, seconds, tally, setup):
    meter, times, cycle_ends = timed_run(t, w, seed, seconds, tally)
    if not times:
        raise RuntimeError("no op completed")
    times_ms = [s * 1e3 for s in times]
    cycles = len(cycle_ends) - 1
    tail_n = cycle_ends[min(w.tail_cycles or cycles, cycles)]
    tail_ms, tail_pct = tail(times_ms[:tail_n])
    rates = cycle_rates(times, cycle_ends)
    if w.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = t.peak_child_rss_kb
    metrics = {
        # Median over cycles, each of which holds the whole input mix once.
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    detail = {
        "ops": len(times),
        "cycles": len(rates),
        "mean_ops_per_s": len(times) / sum(times),
        "tail_percentile": round(tail_pct, 3),
        "tail_samples": tail_n,
        "tail_samples_beyond": TAIL_BEYOND,
        "reference": "in-process loop" if w.in_process else "reference child",
        "unscaled_ops_per_s": len(meter.raw) / sum(meter.raw),
        "unscaled_op_p50_ms": statistics.median(meter.raw) * 1e3,
        "reference_ms": _quartiles(meter.reference_ms()),
        "setup_reps_s": setup,
    }
    return metrics, detail


def traced(t: Target, w, seed, seconds, tally):
    """Alternate untraced and traced passes over a fixed op list, the first
    cycle of the seeded stream, until `seconds` have passed; the per-layer
    metrics are medians over traced passes."""
    import layers

    inputs = next(w.cycles(random.Random(f"{w.name}/{seed}")))
    stages = {"interpreter": [], "import": [], "full": []}
    walls = {False: [], True: []}
    refs = []
    runs = []
    deadline = time.perf_counter() + seconds
    while True:
        for with_trace in (False, True):
            with make_meter(t, w) as meter:
                tracer = layers.Tracer(t.modules, meter.clock) if with_trace else None
                if tracer:
                    tracer.install()
                try:
                    for i, x in enumerate(inputs):
                        if tracer:
                            with tracer.op_span(i):
                                op_s = tally.op(meter.clock, t, w, x)
                        else:
                            op_s = tally.op(meter.clock, t, w, x)
                        meter.add(op_s or 0.0)
                        if not w.in_process:
                            stages["full"].append(op_s or 0.0)
                            stages["interpreter"].append(_child_seconds(t, ["-c", "pass"]))
                            stages["import"].append(_child_seconds(t, ["-c", "import lensknots.cli"]))
                finally:
                    if tracer:
                        tracer.uninstall()
            walls[with_trace].append(sum(meter.scaled()))
            refs.extend(meter.reference_ms())
        runs.append(tracer.metrics(meter.op_scales()))
        if time.perf_counter() >= deadline:
            break
    metrics = {
        name: (statistics.median(run[name] for run in runs), unit)
        for name, unit in layers.LAYER_METRICS.items()
    }
    ms = {k: statistics.median(v) * 1e3 if v else 0.0 for k, v in stages.items()}
    untraced = statistics.median(walls[False])
    overhead = statistics.median(walls[True]) - untraced
    metrics.update(
        {
            # Unscaled medians of CLI children; 0 where no child runs.
            "cli.interpreter_ms": (ms["interpreter"], "ms"),
            "cli.import_ms": (ms["import"] - ms["interpreter"], "ms"),
            "cli.main_ms": (ms["full"] - ms["import"], "ms"),
            "machine.ref_ms": (statistics.median(refs), "ms"),
            "trace.overhead_s": (overhead, "s"),
            "trace.overhead_share": (overhead / untraced, "ratio"),
        }
    )
    out_dir = ROOT / SPANS_DIR
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{w.name}-{seed}.tsv")
    detail = {
        "ops_per_pass": len(inputs),
        "passes": len(runs),
        "reference": "in-process loop" if w.in_process else "reference child",
        "untraced_pass_s": walls[False],
        "traced_pass_s": walls[True],
        "spans_last_pass": len(tracer.span_start),
        "counts_last_pass": dict(sorted(tracer.counts.items())),
    }
    return metrics, detail


def _child_seconds(t: Target, args: list[str]) -> float:
    t0 = time.perf_counter()
    t.child(args)
    return time.perf_counter() - t0


def _quartiles(values):
    if len(values) < 2:
        values = values * 2
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3, "readings": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        t = Target(ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Write the package's bytecode cache even where the environment says
    # not to: an installed package has one, and without it every set-up and
    # every CLI child would compile the sources again.
    sys.dont_write_bytecode = False
    w = WORKLOADS[args.workload]
    tally = Tally()
    setup = set_up(t, w, tally)
    if args.trace:
        metrics, detail = traced(t, w, args.seed, args.seconds, tally)
    else:
        metrics, detail = end_to_end(t, w, args.seed, args.seconds, tally, setup)
    for err in tally.first_errors:
        print(err, file=sys.stderr)
    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace, **detail}
    print(json.dumps({"detail": detail}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
