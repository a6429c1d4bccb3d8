"""Cross-validation sweep: every identity that ties two independent
computations together, run over all lens spaces up to a bound.

A failing check reports the smallest counterexample (by p, then q, then
class index) instead of raising, so the CLI can show it.
"""

from __future__ import annotations

import itertools
import math
import time

from .farey import bfs_oracle, geodesic
from .mcg import contact_mcg, inclusion_is_iso, smooth_mcg, unknot_classes
from .slopes import Slope, _fraction, _Record, _set, cf_matrix_identity, farey_mul
from .surgery import KNOTS, ORIENTED_KNOTS, _knot, _rot_sums, build_chain, det_bareiss, linking_det, linking_matrix
from .tight import (
    ShuffleClass,
    count_tight_lens,
    enumerate_tight,
    is_universally_tight,
    standard_structures,
)
from .unknots import _peaks, sl_q


class CheckResult(_Record):
    """One check family's outcome: `cases` comparisons were made, up to and
    including the first failure if there is one, in `seconds` of wall time.
    The family passed when it has no counterexample."""

    __slots__ = ("name", "counterexample", "cases", "seconds")

    def __init__(self, name: str, counterexample: str | None = None, cases: int = 0, seconds: float = 0.0):
        _set(self, "name", name)
        _set(self, "counterexample", counterexample)
        _set(self, "cases", cases)
        _set(self, "seconds", seconds)

    @property
    def passed(self) -> bool:
        return self.counterexample is None


class SweepReport(_Record):
    """The outcome of check_sweep(p_max): one CheckResult per family, in the
    sweep's order, and the sweep's wall time in seconds.  The sweep passed
    when every family did."""

    __slots__ = ("p_max", "checks", "runtime")

    def __init__(self, p_max: int, checks: tuple[CheckResult, ...], runtime: float):
        _set(self, "p_max", p_max)
        _set(self, "checks", tuple(checks))
        _set(self, "runtime", runtime)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def lens_pairs(p_max: int):
    """Every lens pair (p, q), coprime p > q > 0, with p <= p_max, by p and
    then q."""
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


def _check(name, outcomes, cases=0, seconds=0.0):
    """Run a family's comparisons up to the first failure, on from `cases`
    comparisons already made in `seconds`.  Each item of outcomes is one
    comparison: None when it holds, else the failure.  A family that makes
    no comparison fails."""
    t0 = time.perf_counter()
    failure = None
    for failure in outcomes:
        cases += 1
        if failure is not None:
            break
    if not cases:
        failure = "no cases"
    return CheckResult(name, failure, cases, seconds + time.perf_counter() - t0)


def _lens_space(p, q, classes):
    """One lens space's entry of a check_sweep batch: (p, q), its tight
    structures, the Farey peaks of each (unknots._peaks: p times rot_Q and
    tb_Q of all four oriented knots, read once per structure), and the
    chain of each knot.  Every family compares these integers; none builds
    a Fraction."""
    peaks = [_peaks(ts) for ts in classes]
    return p, q, classes, peaks, tuple(build_chain(p, q, knot) for knot in KNOTS)


def check_sweep(p_max: int) -> SweepReport:
    """Run the seven cross-module check families over all L(p,q), p <= p_max.

    The sweep goes one p at a time: the lens spaces of that p, their tight
    structures, Farey rotation numbers and chains make one batch, which
    every family that has not failed reads before the batch is dropped."""
    if not isinstance(p_max, int):
        raise ValueError("p_max must be an integer")
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    t0 = time.perf_counter()
    results = [CheckResult(name) for name, _ in _FAMILIES]
    for _, pairs in itertools.groupby(lens_pairs(p_max), key=lambda pq: pq[0]):
        batch = [_lens_space(p, q, enumerate_tight(p, q)) for p, q in pairs]
        # A failed family stops; one without a comparison yet runs on.
        results = [
            _check(r.name, family(batch), r.cases, r.seconds) if r.passed or not r.cases else r
            for r, (_, family) in zip(results, _FAMILIES)
        ]
    return SweepReport(p_max, results, time.perf_counter() - t0)


# Each family takes a batch, a list of _lens_space entries in lens_pairs
# order, and yields one item per comparison, smallest first: None where it
# holds, else the counterexample.


def _count_failures(batch):
    for p, q, classes, _, _ in batch:
        yield None if len(classes) == count_tight_lens(p, q) else f"L({p},{q})"


def _geodesic_failures(batch):
    # The decorated path, walked off the chain, against the geodesic and the BFS.
    for p, q, classes, _, _ in batch:
        frm, to = Slope(-p, q), Slope(0)
        same = list(classes[0].path) == geodesic(frm, to) == bfs_oracle(frm, to)
        yield None if same else f"L({p},{q})"


def _rot_failures(batch):
    for p, q, classes, peaks, chains in batch:
        framings = chains[0].framings
        # The shuffle blocks, in path order, sit on the components framed
        # r_i <= -3 in reverse chain order: a block with c plus signs has
        # rot_i = size - 2c, and a -2 component has rot_i = 0.
        slots = [i for i in reversed(range(len(framings))) if framings[i] < -2]
        fits = [-framings[i] - 2 for i in slots] == list(classes[0].blocks)
        vectors = []
        for ts in classes:
            rot = [0] * len(framings)
            for i, size, plus in zip(slots, ts.blocks, ts.plus_counts):
                rot[i] = size - 2 * plus
            vectors.append(tuple(rot))
        # The meridian has tb = -1, so a core's tb_Q is -1 minus its diagonal cofactor over
        # det M, a continuant of the chain: (q - p)/p for k1, (p' - p)/p for k2, in integers;
        # the decoration holds p tb_Q.
        cp, cp_, cq, _ = cf_matrix_identity(framings)
        tbs = zip(classes[0].decoration.peak_tb, (cq, cp_))
        for knot, chain, (tb, end) in zip(KNOTS, chains, tbs):
            if not fits:
                yield f"L({p},{q}) {knot}"
                continue
            reverse = f"-{knot}"
            # det M rot_Q from the chain against p rot_Q from the Farey
            # side: equal rationals when s p == r d.
            sums, d = _rot_sums(chain, vectors)
            farey = [ts_peaks[knot] for ts_peaks in peaks]
            if [s * p for s in sums] != [r * d for r, _ in farey]:
                yield f"L({p},{q}) {knot}"
            # the reversed core keeps the tb and negates the rot
            elif [ts_peaks[reverse] for ts_peaks in peaks] != [(-r, t) for r, t in farey]:
                yield f"L({p},{q}) {reverse}"
            elif tb * cp != (end - cp) * p:
                yield f"L({p},{q}) {knot} tb"
            else:
                # p sl_Q from the Farey side against (cp d) sl_Q, tb_Q - rot_Q from the chain
                sl = [sl_q(t, r) * cp * d for r, t in farey]
                yield None if sl == [((end - cp) * d - s * cp) * p for s in sums] else f"L({p},{q}) {knot} sl"


def block_partition(path: list[Slope]) -> list[int]:
    """Sizes of the maximal runs of decorated edges that shuffle with their
    neighbors: the oracle of the decoration's runs of one edge vector.

    Decorated edges are indexed by their initial vertex, 1..len(path)-3; two
    consecutive ones shuffle when the endpoints around their shared vertex
    have cross-determinant of absolute value 2.
    """
    n_dec = len(path) - 3
    if n_dec <= 0:
        return []
    blocks = [1]
    for i in range(1, n_dec):
        # decorated edges i and i+1 run between path[i..i+1] and path[i+1..i+2]
        if abs(farey_mul(path[i], path[i + 2])) == 2:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return blocks


def _edge_weights(path):
    """Weights of every decorated edge a -> b of the path, from its own
    endpoints, for k1 and for k2: the componentwise (unreduced) difference
    a - b, taken with negative numerators and positive denominators,
    crossed with the core's own end of the path, path[0] = -p/q for k1 and
    path[-1] = 0/1 for k2."""
    out = ([], [])
    for a, b in zip(path[1:-2], path[2:-1]):
        if a.num >= 0 or b.num >= 0:
            raise ValueError("decorated-path vertices must be negative")
        for weights, end in zip(out, (path[0], path[-1])):
            weights.append((a.num - b.num) * end.den - (a.den - b.den) * end.num)
    return out


def _edge_total(signs, weights):
    """p times rot_Q: the signed sum of the edge weights."""
    if len(signs) != len(weights):
        raise ValueError(f"{len(signs)} signs for {len(weights)} decorated edges")
    return sum(w if s == "+" else -w for s, w in zip(signs, weights))


def rot_q_edges(ts: ShuffleClass, knot: str = "k1") -> Fraction:
    """Oracle for unknots.rot_q_farey: the signed sum over every decorated
    edge, one term per edge, without the shuffle blocks."""
    i, sign = _knot(knot)
    return _fraction(sign * _edge_total(ts.sign_string, _edge_weights(ts.path)[i]), ts.p)


def _block_failures(batch):
    for p, q, classes, peaks, _ in batch:
        path = classes[0].path
        # the shuffle criterion, against the decoration's runs
        runs = tuple(block_partition(path)) == classes[0].blocks
        yield None if runs else f"L({p},{q}) shuffle blocks"
        weights = _edge_weights(path)
        for i, (ts, ts_peaks) in enumerate(zip(classes, peaks)):
            signs = ts.sign_string
            for knot, knot_weights in zip(KNOTS, weights):
                # both sides are p rot_Q
                if ts_peaks[knot][0] != _edge_total(signs, knot_weights):
                    yield f"L({p},{q}) class {i} {knot}"
                else:
                    yield None


def _det_failures(batch):
    # The linking matrix reads only the framings, which k1 and k2 share;
    # Bareiss checks both p and the continuant that surgery prints as det.
    for p, q, _, _, chains in batch:
        det = det_bareiss(linking_matrix(chains[0]))
        yield None if abs(det) == p and linking_det(chains[0]) == det else f"L({p},{q})"


def _mcg_failures(batch):
    for p, q, classes, peaks, chains in batch:
        c, s = contact_mcg(p, q), smooth_mcg(p, q)
        if s.order % c.order != 0:
            yield f"L({p},{q}) order divisibility"
        elif inclusion_is_iso(p, q) != (c.order == s.order):
            yield f"L({p},{q}) iso criterion"
        elif c.order > 1 and (q * q) % p != 1:
            yield f"L({p},{q}) sigma without q^2=1"
        else:
            yield None
        # The table against the oriented unknots that `unknots` prints, off the decoration.
        yield None if classes[0].decoration.knots == tuple(unknot_classes(p, q)) else f"L({p},{q}) unknot classes"
        # H_1 = Z/p holds +-k1 at +-1 and +-k2 at +-p' = q^-1, read off the chain; the
        # names in one class share their peaks in every structure.
        h1, by_class = (1, cf_matrix_identity(chains[0].framings)[1]), {}
        for knot in ORIENTED_KNOTS:
            i, sign = _knot(knot)
            by_class.setdefault(sign * h1[i] % p, []).append(knot)
        if len(by_class) < 4:
            for i, ts_peaks in enumerate(peaks):
                same = all(len({ts_peaks[knot] for knot in names}) == 1 for names in by_class.values())
                yield None if same else f"L({p},{q}) class {i} merged unknots with different peaks"


def _univ_failures(batch):
    for p, q, classes, _, _ in batch:
        univ = sum(is_universally_tight(ts) for ts in classes)
        yield None if univ == standard_structures(p, q) else f"L({p},{q})"


_FAMILIES = (
    ("tight-count formula vs enumeration", _count_failures),
    ("geodesic vs BFS oracle", _geodesic_failures),
    ("rotation numbers: Farey vs surgery", _rot_failures),
    ("rotation numbers: blocks vs edges", _block_failures),
    ("linking matrix determinant = p", _det_failures),
    ("MCG divisibility and iso criterion", _mcg_failures),
    ("universally tight counts", _univ_failures),
)
