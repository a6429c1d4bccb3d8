"""Cross-validation sweep: every identity that ties two independent
computations together, run over all lens spaces up to a bound.

A failing check reports the smallest counterexample (by p, then q, then
class index) instead of raising, so the CLI can show it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .farey import bfs_oracle, geodesic
from .mcg import contact_mcg, inclusion_is_iso, smooth_mcg, unknot_classes
from .slopes import Slope
from .surgery import KNOTS, build_chain, det_bareiss, linking_matrix, rot_spectrum
from .tight import count_tight_lens, enumerate_tight, is_universally_tight, standard_structures
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
    """Run the six cross-module check families over all L(p,q), p <= p_max."""
    if p_max < 2:
        raise ValueError("p_max must be at least 2")
    t0 = time.perf_counter()
    checks = [
        _check("tight-count formula vs enumeration", _count_failures(p_max)),
        _check("geodesic vs BFS oracle", _geodesic_failures(p_max)),
        _check("rotation numbers: Farey vs surgery", _rot_failures(p_max)),
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
