"""Classical rational invariants of Legendrian and transverse rational
unknots: peak tb, rotation numbers from the decorated path, self-linking,
stabilization lattices and mountain ranges."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .mcg import ORIENTED_KNOTS, unknot_classes
from .slopes import dual_fraction, require_lens_pair
from .tight import ShuffleClass


def _base_knot(knot: str) -> tuple[str, int]:
    if knot not in ORIENTED_KNOTS:
        raise ValueError(f"knot must be one of {ORIENTED_KNOTS}, got {knot!r}")
    return (knot.lstrip("-"), -1 if knot.startswith("-") else 1)


def _require_structure_on(p: int, q: int, ts: ShuffleClass) -> None:
    if (p, q) != (ts.p, ts.q):
        raise ValueError(f"structure on L({ts.p},{ts.q}) does not live on L({p},{q})")


def tb_q_peak(p: int, q: int, knot: str = "k1") -> Fraction:
    """Maximal rational Thurston-Bennequin number: -(p-q)/p for k1 and
    -(p-p')/p for k2, where p'/q' is the dual fraction of p/q."""
    base, _ = _base_knot(knot)
    require_lens_pair(p, q)
    if base == "k1":
        return Fraction(-(p - q), p)
    p_ = dual_fraction(p, q).num
    return Fraction(-(p - p_), p)


def rot_q_farey(ts: ShuffleClass, knot: str = "k1") -> Fraction:
    """Rational rotation number of the peak Legendrian representative, as a
    signed sum over the decorated edges of the structure's Farey path.

    Each decorated edge contributes via the componentwise (unreduced)
    difference of its endpoint fractions, taken with negative numerators and
    positive denominators, paired against -p/q for k1 and against 0 for k2.
    Structures without decorated edges contribute 0.
    """
    base, orient = _base_knot(knot)
    path = ts.path
    signs = ts.signs
    p, q = ts.p, ts.q
    total = 0
    for j, sign in enumerate(signs):
        i = j + 1  # decorated edges start at the second path edge
        a, b = path[i], path[i + 1]
        if a.num >= 0 or b.num >= 0:
            raise ValueError("decorated-path vertices must be negative")
        eps = 1 if sign == "+" else -1
        if base == "k1":
            # (a - b) componentwise, crossed with -p/q
            total += eps * ((a.num - b.num) * q - (a.den - b.den) * (-p))
        else:
            # (b - a) componentwise, crossed with 0/1
            total += eps * (b.num - a.num)
    return Fraction(orient * total, p)


def sl_q(tb_q: Fraction, rot_q: Fraction) -> Fraction:
    """Rational self-linking number of the positive transverse push-off."""
    return tb_q - rot_q


@dataclass(frozen=True)
class LegendrianClass:
    """An oriented Legendrian rational unknot with its exact invariants."""

    knot: str
    tb_q: Fraction
    rot_q: Fraction
    structure: ShuffleClass

    @property
    def sl_q(self) -> Fraction:
        return sl_q(self.tb_q, self.rot_q)


def stabilize(c: LegendrianClass, sign: str) -> LegendrianClass:
    """Stabilization drops tb by 1 and shifts rot by the chosen sign."""
    if sign not in ("+", "-"):
        raise ValueError("stabilization sign must be '+' or '-'")
    shift = 1 if sign == "+" else -1
    return replace(c, tb_q=c.tb_q - 1, rot_q=c.rot_q + shift)


def legendrian_classification(p: int, q: int, ts: ShuffleClass) -> list[LegendrianClass]:
    """Peak Legendrian representatives in the given tight structure, one per
    oriented rational unknot of unknot_classes(p, q)."""
    _require_structure_on(p, q, ts)
    return [
        LegendrianClass(k, tb_q_peak(p, q, k), rot_q_farey(ts, k), ts)
        for k in unknot_classes(p, q)
    ]


def transverse_classification(p: int, q: int, ts: ShuffleClass) -> list[Fraction]:
    """Peak rational self-linking numbers, one per Legendrian peak; further
    transverse stabilizations each subtract 2."""
    return [c.sl_q for c in legendrian_classification(p, q, ts)]


@dataclass(frozen=True)
class MountainRange:
    """The (rot_q, tb_q) dots realized by one oriented unknot down to a
    stabilization depth cutoff."""

    knot: str
    peak: tuple[Fraction, Fraction]
    depth: int
    points: tuple[tuple[Fraction, Fraction], ...]


def mountain_range(
    p: int, q: int, ts: ShuffleClass, knot: str = "k1", depth: int = 4
) -> MountainRange:
    """Peak plus its stabilization cone: depth k holds the k+1 dots with
    rotation peak_rot - k, peak_rot - k + 2, ..., peak_rot + k."""
    if depth < 0:
        raise ValueError("depth must be non-negative")
    _require_structure_on(p, q, ts)
    rot = rot_q_farey(ts, knot)
    tb = tb_q_peak(p, q, knot)
    points = []
    for k in range(depth + 1):
        for r in range(-k, k + 1, 2):
            points.append((rot + r, tb - k))
    return MountainRange(knot, (rot, tb), depth, tuple(points))
