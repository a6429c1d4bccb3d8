"""Classical rational invariants of Legendrian and transverse rational
unknots: peak tb, rotation numbers from the decorated path, self-linking,
stabilization lattices and mountain ranges."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .mcg import ORIENTED_KNOTS, unknot_classes
from .surgery import KNOTS
from .tight import ShuffleClass, peak_tb


def _base_knot(knot: str) -> tuple[str, int]:
    if knot not in ORIENTED_KNOTS:
        raise ValueError(f"knot must be one of {ORIENTED_KNOTS}, got {knot!r}")
    return (knot.lstrip("-"), -1 if knot.startswith("-") else 1)


def _peak(ts: ShuffleClass, knot: str) -> Fraction:
    """tb_q_peak, read off the structure's shared Decoration."""
    base, _ = _base_knot(knot)
    return ts.decoration.peak_tb[KNOTS.index(base)]


def _require_structure_on(p: int, q: int, ts: ShuffleClass) -> None:
    if (p, q) != (ts.p, ts.q):
        raise ValueError(f"structure on L({ts.p},{ts.q}) does not live on L({p},{q})")


def tb_q_peak(p: int, q: int, knot: str = "k1") -> Fraction:
    """Maximal rational Thurston-Bennequin number: -(p-q)/p for k1 and
    -(p-p')/p for k2, where p'/q' is the dual fraction of p/q."""
    base, _ = _base_knot(knot)
    return peak_tb(p, q)[KNOTS.index(base)]


def rot_q_farey(ts: ShuffleClass, knot: str = "k1") -> Fraction:
    """Rational rotation number of the peak Legendrian representative, as a
    signed sum over the shuffle blocks of the structure's Farey path.

    Every decorated edge of a block has the same edge vector (dnum, dden),
    the componentwise difference of its endpoint fractions taken with
    negative numerators and positive denominators.  Paired against -p/q for
    k1 and against 0 for k2 it gives the block's weight w, and a block with
    plus_b of its size_b signs positive contributes (2 plus_b - size_b) w.
    Structures without decorated edges contribute 0.
    """
    base, orient = _base_knot(knot)
    d = ts.decoration
    p, q = d.p, d.q
    if len(ts.plus_counts) != len(d.blocks):
        raise ValueError(f"{len(ts.plus_counts)} plus counts for {len(d.blocks)} blocks")
    total = 0
    for size, plus, (dnum, dden) in zip(d.blocks, ts.plus_counts, d.steps):
        if not 0 <= plus <= size:
            raise ValueError(f"plus count {plus} outside 0..{size}")
        # (a - b) crossed with -p/q for k1, (b - a) crossed with 0/1 for k2
        weight = -dnum * q - dden * p if base == "k1" else dnum
        total += (2 * plus - size) * weight
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
        LegendrianClass(k, _peak(ts, k), rot_q_farey(ts, k), ts) for k in unknot_classes(p, q)
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
    tb = _peak(ts, knot)
    points = []
    for k in range(depth + 1):
        for r in range(-k, k + 1, 2):
            points.append((rot + r, tb - k))
    return MountainRange(knot, (rot, tb), depth, tuple(points))
