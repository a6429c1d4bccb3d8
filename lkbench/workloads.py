"""Seeded workloads: input generators, the op each input drives, and the
check of each op's output.

Every workload is a closed loop with one caller: the next op starts when
the previous one has returned.  Inputs come in cycles; a cycle holds each
kind of input once, in a seeded order, so every run sees the same mix
whatever its seed, and a run ends on a cycle boundary.

Work per op is bounded by construction.  The Farey geodesic of -p/q has
up to p+1 vertices and the tight-structure count grows with p, so every
generated p is capped; unbounded inputs are not a workload.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

MODULES = ("slopes", "farey", "bypass", "tight", "surgery", "unknots", "mcg", "checks", "cli")
CHILD_TIMEOUT_S = 60


class Target:
    """The lensknots package of one checkout, imported from its src/."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        if not (self.src / "lensknots" / "__init__.py").is_file():
            raise FileNotFoundError(f"no lensknots package under {self.src}")
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.modules = {}
        self.peak_child_rss_kb = 0

    def load(self):
        """Import the package afresh, dropping any earlier import of it."""
        for name in [m for m in sys.modules if m == "lensknots" or m.startswith("lensknots.")]:
            del sys.modules[name]
        package = importlib.import_module("lensknots")
        if Path(package.__file__).resolve().parent != (self.src / "lensknots").resolve():
            raise ImportError(f"lensknots imported from {package.__file__}, not {self.src}")
        self.modules = {m: importlib.import_module(f"lensknots.{m}") for m in MODULES}
        self.modules["lensknots"] = package

    def __getattr__(self, name):
        try:
            return self.__dict__["modules"][name]
        except KeyError:
            raise AttributeError(name) from None

    def child(self, args: list[str]) -> tuple[int, bytes]:
        """Run `python -S <args>` to completion; returns its exit code and
        standard output, and records its peak RSS.

        -S skips the site module: a .pth hook of the surrounding
        environment would otherwise add start-up time that is not this
        program's."""
        with subprocess.Popen(
            [sys.executable, "-S", *args],
            env=self.env,
            cwd=self.root,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        ) as proc:
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                out = proc.stdout.read()
                # wait4 rather than wait: it also returns the child's usage.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kb = max(self.peak_child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out


@dataclass
class Workload:
    name: str
    cycles: Callable[[random.Random], Iterator[list]]
    # op(target, input, expected) -> whether the output check passed.
    op: Callable
    warmup: tuple
    # expect(target, input) -> what op compares against, computed outside
    # the timed region.
    expect: Callable | None = None
    # False: ops are child processes, scaled by the reference child.
    in_process: bool = True
    # op_tail_ms is taken over the first this many cycles (None: all), so
    # that a run which got through more cycles does not reach further into
    # a long tail.
    tail_cycles: int | None = None


def _coprime_q(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randrange(1, p)
        if math.gcd(p, q) == 1:
            return q


def lens_from_chain(framings: list[int]) -> tuple[int, int]:
    """(p, q) whose lens-form negative continued fraction of -p/q is the
    given chain; the continuant recurrence of slopes.cf_matrix_identity,
    written out here so that inputs do not depend on the program."""
    num, den = framings[-1], 1
    for r in reversed(framings[:-1]):
        num, den = r * num - den, num
    p, q = -num, den
    if den < 0:
        p, q = num, -den
    if not (p > q > 0 and math.gcd(p, q) == 1):
        raise ValueError(f"chain {framings} gives no lens space")
    return p, q


# --- census: the everyday invariant-table query -------------------------

CENSUS_P = range(100, 301)
_GOLDEN = (math.sqrt(5) - 1) / 2


def census_cycles(rng: random.Random) -> Iterator[list]:
    """Each cycle queries every p in CENSUS_P once, with q drawn from the
    coprime residues of p at stratified ranks: cycle position j draws from
    the j-th of len(CENSUS_P) equal slices of [0, 1).

    The slowest queries have the lowest ranks (q = 1 gives p - 1 classes on
    a path of p + 1 vertices), so the p that gets the lowest slice walks
    through CENSUS_P by golden-ratio steps from cycle to cycle.  With
    independent uniform q, how many such queries a run drew, and for which
    p, moved the tail by about 17% from seed to seed.
    """
    ps = list(CENSUS_P)
    n = len(ps)
    coprimes = {p: [q for q in range(1, p) if math.gcd(p, q) == 1] for p in ps}
    shift = rng.random()
    stride = rng.choice([m for m in range(2, n) if math.gcd(m, n) == 1])
    k = 0
    while True:
        base = int((shift + k * _GOLDEN) % 1 * n)
        cycle = []
        for j in range(n):
            p = ps[(base + j * stride) % n]
            rank = (j + rng.random()) / n
            cycle.append((p, coprimes[p][int(rank * len(coprimes[p]))]))
        rng.shuffle(cycle)
        k += 1
        yield cycle


def census_query(t: Target, p: int, q: int) -> bool:
    classes = t.tight.enumerate_tight(p, q)
    ok = len(classes) == t.tight.count_tight_lens(p, q)
    peaks = [t.unknots.legendrian_classification(p, q, ts) for ts in classes]
    for c in peaks[0]:
        ranges = t.unknots.mountain_range(p, q, classes[0], c.knot, 4)
        ok = ok and len(ranges.points) == 15  # 1 + 2 + 3 + 4 + 5 dots
    tables = (
        t.mcg.smooth_mcg(p, q),
        t.mcg.contact_mcg(p, q),
        t.mcg.contact_mcg_rel_torus(p, q),
        t.mcg.inclusion_kernel(p, q),
    )
    ok = ok and tables[0].order % tables[1].order == 0
    walk = t.bypass.basic_slice_walk(t.slopes.Slope(-p, q), t.slopes.Slope(0))
    ok = ok and [s.dividing_slope for s in walk] == list(classes[0].path)
    dual = t.slopes.dual_fraction(p, q)
    return ok and p * dual.den - dual.num * q == -1


# --- spectrum: Farey rot_Q against the linking-matrix formula -----------

SPECTRUM_LENGTHS = (16, 18, 20, 22, 24)
# Framings other than -2 in a chain; each -3 doubles and each -4 triples
# the number of rotation vectors, so an op solves 1 to 4 systems per knot.
SPECTRUM_SPECIALS = ((), (-3,), (-4,), (-3, -3))


def spectrum_cycles(rng: random.Random) -> Iterator[list]:
    kinds = [(n, s) for n in SPECTRUM_LENGTHS for s in SPECTRUM_SPECIALS]
    while True:
        rng.shuffle(kinds)
        cycle = []
        for n, specials in kinds:
            chain = [-2] * n
            for r, pos in zip(specials, rng.sample(range(n), len(specials))):
                chain[pos] = r
            cycle.append(lens_from_chain(chain))
        yield cycle


def spectrum_check(t: Target, p: int, q: int) -> bool:
    classes = t.tight.enumerate_tight(p, q)
    for knot in ("k1", "k2"):
        farey_side = sorted(t.unknots.rot_q_farey(ts, knot) for ts in classes)
        if farey_side != t.surgery.rot_spectrum(p, q, knot):
            return False
    return True


# --- sweep: the consistency sweep behind `lensknots check` --------------

SWEEP_PMAX = 20


def sweep_cycles(rng: random.Random) -> Iterator[list]:
    while True:
        yield [(SWEEP_PMAX,)]


def sweep_check(t: Target, p_max: int) -> bool:
    return t.checks.check_sweep(p_max).passed


# --- cli: one `python -S -m lensknots.cli ...` child per op --------------


def cli_cycles(rng: random.Random) -> Iterator[list]:
    def lens(lo, hi):
        p = rng.randint(lo, hi)
        return p, _coprime_q(rng, p)

    while True:
        (fp, fq), (bp, bq), (tp, tq), (up, uq), (sp, sq), (mp, mq) = (
            lens(10, 60), lens(3, 60), lens(10, 40), lens(5, 30), lens(5, 15), lens(3, 60)
        )
        rp = rng.randint(5, 40)
        cycle = [
            ["farey", "path", f"-{fp}/{fq}", "0"],
            ["bypass", f"-{bp}/{bq}", "0", *rng.choice([[], ["--front"], ["--back"]])],
            ["tight-structures", str(tp), str(tq), "--list"],
            ["unknots", str(up), str(uq), *rng.choice([[], ["--format", "json"]])],
            ["surgery", str(sp), str(sq), "--format", "json", "--knot", rng.choice(["k1", "k2"])],
            # q = p - 1 carries a single tight structure, so no --structure
            # argument is needed.
            [
                "mountain-range", str(rp), str(rp - 1),
                "--knot=" + rng.choice(["k1", "-k1"]),
                "--depth", str(rng.randint(2, 8)),
                "--format", rng.choice(["tsv", "json", "svg"]),
            ],
            ["mcg", str(mp), str(mq), *rng.choice([[], ["--smooth"], ["--contact"], ["--rel-torus"], ["--kernel"]])],
            ["check", "--pmax", "6"],
        ]
        rng.shuffle(cycle)
        yield cycle


def in_process_cli(t: Target, argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = t.cli.main(list(argv))
        except SystemExit as exc:  # argparse and some commands exit this way
            code = exc.code
    return code, out.getvalue().encode()


def cli_child(t: Target, argv: list[str], expected: tuple[int, bytes]) -> bool:
    """One CLI child; its exit code and stdout must equal cli.main's in
    process, byte for byte, and the exit code must be 0."""
    code, out = t.child(["-m", "lensknots.cli", *argv])
    return (code, out) == expected and code == 0


def _in_process(check):
    return lambda t, args, expected: check(t, *args)


WORKLOADS = {
    w.name: w
    for w in (
        # The everyday invariant-table query: slopes, farey, tight and
        # unknots do nearly all the work; surgery and the oracles none.
        Workload(
            "census",
            census_cycles,
            _in_process(census_query),
            warmup=(211, 13),
            # A 25 s run completes 34-52 cycles of 201 queries.
            tail_cycles=24,
        ),
        # The rotation cross-check: surgery's dense exact solves on long
        # chains dominate.
        Workload(
            "spectrum",
            spectrum_cycles,
            _in_process(spectrum_check),
            warmup=lens_from_chain([-2] * 16),
        ),
        # The BFS oracle, Bareiss and many short chains: surgery used with a
        # high per-call share, unlike spectrum.
        Workload(
            "sweep",
            sweep_cycles,
            _in_process(sweep_check),
            warmup=(8,),
        ),
        # What a shell user pays: interpreter start and import dominate.
        Workload(
            "cli",
            cli_cycles,
            cli_child,
            warmup=("check", "--pmax", "6"),
            expect=in_process_cli,
            in_process=False,
        ),
    )
}


def warm_up(t: Target, w: Workload) -> bool:
    """The workload's op on a fixed input, run in process (the cli warm-up
    runs cli.main without a child)."""
    if not w.in_process:
        return in_process_cli(t, w.warmup)[0] == 0
    return w.op(t, w.warmup, None)
