"""Classical rational invariants of Legendrian and transverse rational
unknots: peak tb, rotation numbers from the decorated path, self-linking,
stabilization lattices and mountain ranges."""

from __future__ import annotations

from fractions import Fraction

from .slopes import _Record, _set
from .surgery import _knot
from .tight import ShuffleClass, peak_tb


def _require_structure_on(p: int, q: int, ts: ShuffleClass) -> None:
    if (p, q) != (ts.p, ts.q):
        raise ValueError(f"structure on L({ts.p},{ts.q}) does not live on L({p},{q})")


def tb_q_peak(p: int, q: int, knot: str = "k1") -> Fraction:
    """Maximal rational Thurston-Bennequin number: -(p-q)/p for k1 and
    -(p-p')/p for k2, where p'/q' is the dual fraction of p/q."""
    i, _ = _knot(knot)
    return peak_tb(p, q)[i]


def _block_sums(ts: ShuffleClass) -> tuple[int, int]:
    """p times rot_Q of the peak k1 and of the peak k2 in the structure,
    in one pass over the shuffle blocks of its Farey path.

    Every decorated edge a -> b of a block has the same edge vector b - a,
    the componentwise difference of its endpoint fractions taken with
    negative numerators and positive denominators.  A core's block weight
    w is the signed vector a - b crossed with that core's own end of the
    path, -p/q for k1 and 0/1 for k2, and a block with plus_b of its size_b
    signs positive contributes (2 plus_b - size_b) w.  Both pairings are
    linear, so the signed edge vectors are summed first.  Structures
    without decorated edges give 0.
    """
    d = ts.decoration
    snum = sden = 0
    for size, plus, (dnum, dden) in zip(d.blocks, ts.plus_counts, d.steps):
        signed = 2 * plus - size
        snum += signed * dnum
        sden += signed * dden
    # (a - b) = (-snum, -sden) crossed with (-p, q) and with (0, 1)
    return -snum * d.q - sden * d.p, -snum


def rot_q_farey(ts: ShuffleClass, knot: str = "k1") -> Fraction:
    """Rational rotation number of the peak Legendrian representative, as a
    signed sum over the shuffle blocks of the structure's Farey path;
    reversing the orientation negates it."""
    i, sign = _knot(knot)
    return Fraction(sign * _block_sums(ts)[i], ts.decoration.p)


def sl_q(tb_q: Fraction, rot_q: Fraction) -> Fraction:
    """Rational self-linking number of the positive transverse push-off."""
    return tb_q - rot_q


class LegendrianClass(_Record):
    """An oriented Legendrian rational unknot with its exact invariants."""

    __slots__ = ("knot", "tb_q", "rot_q", "structure")

    def __init__(self, knot: str, tb_q: Fraction, rot_q: Fraction, structure: ShuffleClass):
        _set(self, "knot", knot)
        _set(self, "tb_q", tb_q)
        _set(self, "rot_q", rot_q)
        _set(self, "structure", structure)

    @property
    def sl_q(self) -> Fraction:
        return sl_q(self.tb_q, self.rot_q)


def stabilize(c: LegendrianClass, sign: str) -> LegendrianClass:
    """Stabilization drops tb by 1 and shifts rot by the chosen sign."""
    if sign not in ("+", "-"):
        raise ValueError("stabilization sign must be '+' or '-'")
    shift = 1 if sign == "+" else -1
    return LegendrianClass(c.knot, c.tb_q - 1, c.rot_q + shift, c.structure)


def legendrian_classification(p: int, q: int, ts: ShuffleClass) -> list[LegendrianClass]:
    """Peak Legendrian representatives in the given tight structure, one per
    oriented rational unknot of L(p,q) (the decoration's knots).

    The block sums run once per structure; a reversed knot shares the tb
    of its core and negates its rot."""
    _require_structure_on(p, q, ts)
    sums = _block_sums(ts)
    d = ts.decoration
    out = []
    for knot in d.knots:
        i, sign = _knot(knot)
        out.append(LegendrianClass(knot, d.peak_tb[i], Fraction(sign * sums[i], p), ts))
    return out


def transverse_classification(p: int, q: int, ts: ShuffleClass) -> list[Fraction]:
    """Peak rational self-linking numbers, one per Legendrian peak; further
    transverse stabilizations each subtract 2."""
    return [c.sl_q for c in legendrian_classification(p, q, ts)]


class MountainRange(_Record):
    """The (rot_q, tb_q) dots realized by one oriented unknot down to a
    stabilization depth cutoff, held as its peak (rot, tb) and its depth:
    row k, for k = 0..depth, lies at tb - k and holds every other rot from
    rot - k to rot + k."""

    __slots__ = ("knot", "peak", "depth")

    def __init__(self, knot: str, peak: tuple[Fraction, Fraction], depth: int):
        if depth < 0:
            raise ValueError("depth must be non-negative")
        _set(self, "knot", knot)
        _set(self, "peak", peak)
        _set(self, "depth", depth)

    def columns(self) -> tuple[list[Fraction], list[Fraction]]:
        """The 2 depth + 1 rots, rot - depth .. rot + depth, and the tb of
        each row, tb .. tb - depth."""
        (rot, tb), d = self.peak, self.depth
        return [rot + r for r in range(-d, d + 1)], [tb - k for k in range(d + 1)]

    def rows(self, rots: list, tbs: list):
        """Yield (tbs[k], the entries of rots in row k) for k = 0..depth,
        where rots and tbs are the columns or lists aligned with them, such
        as their renderings."""
        d = self.depth
        for k in range(d + 1):
            yield tbs[k], rots[d - k : d + k + 1 : 2]

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Every dot, row by row, built on access."""
        return tuple((r, tb) for tb, row in self.rows(*self.columns()) for r in row)


def mountain_range(
    p: int, q: int, ts: ShuffleClass, knot: str = "k1", depth: int = 4
) -> MountainRange:
    """Peak plus its stabilization cone down to the given depth."""
    _require_structure_on(p, q, ts)
    i, _ = _knot(knot)
    return MountainRange(knot, (rot_q_farey(ts, knot), ts.decoration.peak_tb[i]), depth)
