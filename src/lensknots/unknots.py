"""Classical rational invariants of Legendrian and transverse rational
unknots: peak tb, rotation numbers from the decorated path, self-linking,
stabilization lattices and mountain ranges."""

from __future__ import annotations

import functools

from .slopes import _fraction, _Record, _set
from .surgery import ORIENTED_KNOTS, _knot
from .tight import ShuffleClass, peak_tb


# Every structure on one lens space has the same two peak tb, and
# legendrian_classification runs once per structure, so the Fractions of
# the last few peaks are kept instead of being built on every call.
_tb_fraction = functools.lru_cache(maxsize=8)(_fraction)


def _require_structure_on(p: int, q: int, ts: ShuffleClass) -> None:
    if (p, q) != (ts.p, ts.q):
        raise ValueError(f"structure on L({ts.p},{ts.q}) does not live on L({p},{q})")


def tb_q_peak(p: int, q: int, knot: str = "k1") -> Fraction:
    """Maximal rational Thurston-Bennequin number: -(p-q)/p for k1 and
    -(p-p')/p for k2, where p'/q' is the dual fraction of p/q."""
    i, _ = _knot(knot)
    return _tb_fraction(peak_tb(p, q)[i], p)


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


def _peaks(ts: ShuffleClass) -> dict[str, tuple[int, int]]:
    """p times the peak (rot_Q, tb_Q) of each oriented knot name in the
    structure, from one _block_sums pass and the decoration's peak tb; a
    reversed knot shares the tb of its core and negates its rot."""
    sums, tbs = _block_sums(ts), ts.decoration.peak_tb
    peaks = {}
    for knot in ORIENTED_KNOTS:
        i, sign = _knot(knot)
        peaks[knot] = sign * sums[i], tbs[i]
    return peaks


def rot_q_farey(ts: ShuffleClass, knot: str = "k1") -> Fraction:
    """Rational rotation number of the peak Legendrian representative, as a
    signed sum over the shuffle blocks of the structure's Farey path;
    reversing the orientation negates it."""
    _knot(knot)  # a bad name raises ValueError, not the lookup's error
    return _fraction(_peaks(ts)[knot][0], ts.decoration.p)


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
    oriented rational unknot of L(p,q) (the decoration's knots): _peaks
    over p."""
    _require_structure_on(p, q, ts)
    peaks, out = _peaks(ts), []
    for knot in ts.decoration.knots:
        rot, tb = peaks[knot]
        out.append(LegendrianClass(knot, _tb_fraction(tb, p), _fraction(rot, p), ts))
    return out


def transverse_classification(p: int, q: int, ts: ShuffleClass) -> list[Fraction]:
    """Peak rational self-linking numbers, one per Legendrian peak; further
    transverse stabilizations each subtract 2."""
    return [c.sl_q for c in legendrian_classification(p, q, ts)]


def _depth(depth) -> int:
    """A stabilization depth, refused unless it is a non-negative int."""
    if not isinstance(depth, int):
        raise ValueError("depth must be an integer")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    return depth


def _columns(rot, tb, depth: int, step):
    """The columns of the mountain range with peak (rot, tb): the 2 depth + 1
    rots rot - depth .. rot + depth and the tb of each row, tb .. tb - depth,
    in units of one stabilization, which is step: 1 on rationals for
    MountainRange.points, p on integers over p for cli.cmd_mountain."""
    return [rot + r * step for r in range(-depth, depth + 1)], [tb - k * step for k in range(depth + 1)]


def _rows(depth: int, rots: list, tbs: list):
    """Yield (tbs[k], the entries of rots in row k) for k = 0..depth, where
    rots and tbs are aligned with a mountain range's columns: the columns
    themselves for MountainRange.points, their renderings for
    cli.cmd_mountain."""
    for k in range(depth + 1):
        yield tbs[k], rots[depth - k : depth + k + 1 : 2]


class MountainRange(_Record):
    """The (rot_q, tb_q) dots realized by one oriented unknot down to a
    stabilization depth cutoff, held as its peak (rot, tb) and its depth:
    row k, for k = 0..depth, lies at tb - k and holds every other rot from
    rot - k to rot + k."""

    __slots__ = ("knot", "peak", "depth")

    def __init__(self, knot: str, peak: tuple[Fraction, Fraction], depth: int):
        _set(self, "knot", knot)
        _set(self, "peak", peak)
        _set(self, "depth", _depth(depth))

    @property
    def points(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Every dot, row by row, built on access."""
        rows = _rows(self.depth, *_columns(*self.peak, self.depth, 1))
        return tuple((r, tb) for tb, row in rows for r in row)


def mountain_range(
    p: int, q: int, ts: ShuffleClass, knot: str = "k1", depth: int = 4
) -> MountainRange:
    """Peak plus its stabilization cone down to the given depth: the knot's
    _peaks entry over p."""
    _require_structure_on(p, q, ts)
    _knot(knot)  # a bad name raises ValueError, not the lookup's error
    rot, tb = _peaks(ts)[knot]
    return MountainRange(knot, (_fraction(rot, p), _tb_fraction(tb, p)), depth)
