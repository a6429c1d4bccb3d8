"""Machine-speed references for timings.

On small shared VMs the speed of the same Python code moves by 30-50%
within tens of milliseconds, and process CPU time moves with wall time, so
CPU time does not help.  The benchmark therefore times a fixed reference
around every batch of ops and scales the batch by the speed the reference
saw: scaled = raw * (reference work done / reference time) * nominal time.
A scaled time reads as the time the op would take on a machine where the
reference takes its nominal time, so the units stay seconds and ms.

In-process ops: a reference reading (a pure-Python loop) closes each batch
of ops, and while ops run a SIGALRM timer runs a short slice of the same
loop every SAMPLE_INTERVAL_S.  A batch's speed comes from the readings
around it and the slices inside it; the slices' time is taken out of the
ops' time.  The readings alone serve short ops best; the slices serve ops
that run for hundreds of milliseconds.

CLI ops are child processes, which do not run on the parent's phase: the
in-process loop widened their spread.  They are scaled instead by a
reference child, a fresh `python -S` that imports two standard-library
modules the CLI also imports and runs the same loop, timed between CLI
children.

Neither reference imports anything from lensknots, so a faster program
still reads faster.
"""

from __future__ import annotations

import inspect
import signal
import subprocess
import sys
import time


def _euclid(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def _ref_loop(n: int) -> int:
    """Integer arithmetic, tuple and dict traffic and small calls, the
    mix that dominates the program."""
    acc = 0
    table = {}
    a, b = 1, 2
    for i in range(n):
        a, b = b, (a * 7 + b + i) % 1000003
        table[i & 63] = (a, b)
        acc += _euclid(a, b + 1)
    return acc + len(table)


REF_ITERS = 1000
SAMPLE_ITERS = 200
SAMPLE_INTERVAL_S = 0.01
# Nominal times are the references' usual times on the 2-vCPU Xeon VM the
# bounds were tuned on.  They only choose units: changing one rescales
# every timing it scales.
NOMINAL_REF_MS = 1.0
NOMINAL_CHILD_REF_MS = 50.0
# Ops are grouped into batches of at least this much raw time, and one
# reference reading closes each batch.
BATCH_S = 0.03
CHILD_BATCH_S = 0.15

REF_CHILD_CODE = (
    "import fractions, re\n"
    + inspect.getsource(_euclid)
    + inspect.getsource(_ref_loop)
    + f"_ref_loop({3 * REF_ITERS})\n"
)


def ref_child_seconds(cwd) -> float:
    """Wall time of one reference child."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-S", "-c", REF_CHILD_CODE],
        cwd=cwd,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=60,
    )
    return time.perf_counter() - t0


class Meter:
    """Op timings grouped into batches with the reference work measured
    around and inside each batch; scaled() turns raw seconds into seconds
    at nominal speed.

    The in-process form (the default) runs the sampling timer from start()
    to stop(); use it as a context manager.  Time ops with clock(), which
    stands still while a slice runs.
    """

    def __init__(self, child_cwd=None, batch_s: float | None = None):
        self.child_cwd = child_cwd
        self.in_process = child_cwd is None
        self.nominal_s = (NOMINAL_REF_MS if self.in_process else NOMINAL_CHILD_REF_MS) / 1e3
        if batch_s is None:
            batch_s = BATCH_S if self.in_process else CHILD_BATCH_S
        self.batch_s = batch_s
        # (reference units, seconds): a reading is one unit, a slice
        # SAMPLE_ITERS / REF_ITERS of one.
        self.readings: list[tuple[float, float]] = []
        # Index in readings of the reading that opens each batch.
        self.bounds: list[int] = []
        self.raw: list[float] = []
        self.batch_of: list[int] = []
        self.spent = 0.0
        self._open = 0.0
        self._previous_handler = None

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _slice(self, signum, frame):
        t0 = time.perf_counter()
        _ref_loop(SAMPLE_ITERS)
        seconds = time.perf_counter() - t0
        self.readings.append((SAMPLE_ITERS / REF_ITERS, seconds))
        self.spent += time.perf_counter() - t0

    def _read(self):
        if self.in_process:
            t0 = self.clock()
            _ref_loop(REF_ITERS)
            seconds = self.clock() - t0
        else:
            seconds = ref_child_seconds(self.child_cwd)
        self.bounds.append(len(self.readings))
        self.readings.append((1.0, seconds))

    def start(self):
        if self.in_process:
            self._previous_handler = signal.signal(signal.SIGALRM, self._slice)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._read()
        return self

    def stop(self):
        if self.batch_of and self.batch_of[-1] == len(self.bounds) - 1:
            self._read()
        if self.in_process and self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def add(self, seconds: float):
        self.raw.append(seconds)
        self.batch_of.append(len(self.bounds) - 1)
        self._open += seconds
        if self._open >= self.batch_s:
            self._read()
            self._open = 0.0

    def reference_ms(self) -> list[float]:
        """The readings that close batches, in milliseconds."""
        return [self.readings[i][1] * 1e3 for i in self.bounds]

    def op_scales(self) -> list[float]:
        scales = []
        for b in range(len(self.bounds) - 1):
            around = self.readings[self.bounds[b] : self.bounds[b + 1] + 1]
            units = sum(u for u, _ in around)
            seconds = sum(s for _, s in around)
            scales.append(self.nominal_s * units / seconds)
        return [scales[b] for b in self.batch_of]

    def scaled(self) -> list[float]:
        return [t * s for t, s in zip(self.raw, self.op_scales())]
