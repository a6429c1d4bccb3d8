"""Cross-validation sweep: every identity that ties two independent
computations together, run over all lens spaces up to a bound.

A failing check reports the smallest counterexample (by p, then q, then
class index) instead of raising, so the CLI can show it.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .farey import bfs_oracle, geodesic
from .mcg import ORIENTED_KNOTS, contact_mcg, inclusion_is_iso, smooth_mcg, unknot_classes
from .slopes import Slope
from .surgery import KNOTS, build_chain, det_bareiss, linking_matrix, rot_spectrum
from .tight import (
    ShuffleClass,
    block_partition,
    count_tight_lens,
    enumerate_tight,
    is_universally_tight,
    standard_structures,
)
from .unknots import legendrian_classification, rot_q_farey


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class SweepReport:
    p_max: int
    checks: tuple[CheckResult, ...]
    runtime: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def lens_pairs(p_max: int):
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if math.gcd(p, q) == 1:
                yield p, q


def _check(name, failures):
    first = next(iter(failures), None)
    return CheckResult(name, first is None, first)


def check_sweep(p_max: int) -> SweepReport:
    """Run the seven cross-module check families over all L(p,q), p <= p_max."""
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    t0 = time.perf_counter()
    checks = [
        _check("tight-count formula vs enumeration", _count_failures(p_max)),
        _check("geodesic vs BFS oracle", _geodesic_failures(p_max)),
        _check("rotation numbers: Farey vs surgery", _rot_failures(p_max)),
        _check("rotation numbers: blocks vs edges", _block_failures(p_max)),
        _check("linking matrix determinant = p", _det_failures(p_max)),
        _check("MCG divisibility and iso criterion", _mcg_failures(p_max)),
        _check("universally tight counts", _univ_failures(p_max)),
    ]
    return SweepReport(p_max, tuple(checks), time.perf_counter() - t0)


def _count_failures(p_max):
    for p, q in lens_pairs(p_max):
        if len(enumerate_tight(p, q)) != count_tight_lens(p, q):
            yield f"L({p},{q})"


def _geodesic_failures(p_max):
    for p, q in lens_pairs(p_max):
        frm, to = Slope(-p, q), Slope(0)
        if geodesic(frm, to) != bfs_oracle(frm, to, p):
            yield f"L({p},{q})"


def _rot_failures(p_max):
    for p, q in lens_pairs(p_max):
        classes = enumerate_tight(p, q)
        for knot in KNOTS:
            farey_side = sorted(rot_q_farey(ts, knot) for ts in classes)
            if farey_side != rot_spectrum(p, q, knot):
                yield f"L({p},{q}) {knot}"


def _edge_weights(p, q, path, base):
    """Weight of every decorated edge a -> b of the path, from its own
    endpoints: the componentwise (unreduced) difference, taken with negative
    numerators and positive denominators, crossed with -p/q for k1 and with
    0/1 for k2."""
    out = []
    for a, b in zip(path[1:-2], path[2:-1]):
        if a.num >= 0 or b.num >= 0:
            raise ValueError("decorated-path vertices must be negative")
        if base == "k1":
            out.append((a.num - b.num) * q - (a.den - b.den) * (-p))
        else:
            out.append(b.num - a.num)
    return out


def _edge_sum(p, signs, weights):
    if len(signs) != len(weights):
        raise ValueError(f"{len(signs)} signs for {len(weights)} decorated edges")
    return Fraction(sum(w if s == "+" else -w for s, w in zip(signs, weights)), p)


def rot_q_edges(ts: ShuffleClass, knot: str = "k1") -> Fraction:
    """Oracle for unknots.rot_q_farey: the signed sum over every decorated
    edge, one term per edge, without the shuffle blocks."""
    if knot not in ORIENTED_KNOTS:
        raise ValueError(f"knot must be one of {ORIENTED_KNOTS}, got {knot!r}")
    rot = _edge_sum(ts.p, ts.signs, _edge_weights(ts.p, ts.q, ts.path, knot.lstrip("-")))
    return -rot if knot.startswith("-") else rot


def _block_failures(p_max):
    for p, q in lens_pairs(p_max):
        classes = enumerate_tight(p, q)
        path = classes[0].path
        weights = {knot: _edge_weights(p, q, path, knot) for knot in KNOTS}
        blocks = block_partition(path)
        for knot in KNOTS:
            edges = iter(weights[knot])
            if any(len(set(itertools.islice(edges, size))) != 1 for size in blocks):
                yield f"L({p},{q}) {knot} block weights"
        for i, ts in enumerate(classes):
            signs = ts.signs
            for knot in KNOTS:
                if rot_q_farey(ts, knot) != _edge_sum(p, signs, weights[knot]):
                    yield f"L({p},{q}) class {i} {knot}"


def _det_failures(p_max):
    for p, q in lens_pairs(p_max):
        for knot in KNOTS:
            if abs(det_bareiss(linking_matrix(build_chain(p, q, knot)))) != p:
                yield f"L({p},{q}) {knot}"


def _mcg_failures(p_max):
    for p, q in lens_pairs(p_max):
        c, s = contact_mcg(p, q), smooth_mcg(p, q)
        if s.order % c.order != 0:
            yield f"L({p},{q}) order divisibility"
        elif inclusion_is_iso(p, q) != (c.order == s.order):
            yield f"L({p},{q}) iso criterion"
        elif c.order > 1 and (q * q) % p != 1:
            yield f"L({p},{q}) sigma without q^2=1"
        elif len(unknot_classes(p, q)) != len(
            legendrian_classification(p, q, enumerate_tight(p, q)[0])
        ):
            yield f"L({p},{q}) unknot count vs peak list"


def _univ_failures(p_max):
    for p, q in lens_pairs(p_max):
        univ = sum(is_universally_tight(ts) for ts in enumerate_tight(p, q))
        if univ != standard_structures(p, q):
            yield f"L({p},{q})"
