"""Tight contact structures on lens spaces as sign-decorated Farey geodesics.

A tight structure on L(p,q) is a decoration of the geodesic from -p/q to 0
by a sign on every edge except the first and the last, taken up to shuffling
signs within blocks of mutually shuffleable edges.
"""

from __future__ import annotations

import itertools
import math

from .slopes import (
    Slope,
    _Record,
    _set,
    dual_fraction,
    neg_cf,
    q_is_minus_one,
    require_lens_pair,
)
from .surgery import ORIENTED_KNOTS


def peak_tb(p: int, q: int) -> tuple[int, int]:
    """p times the maximal rational Thurston-Bennequin numbers of the cores
    k1 and k2, q - p and p' - p, where p'/q' is the dual fraction of p/q:
    the integers that unknots.tb_q_peak divides by p."""
    dual = dual_fraction(p, q)  # validates the lens pair first
    return q - p, dual.num - p


class Decoration(_Record):
    """What every tight structure on one L(p,q) shares: the decorated path,
    its shuffle blocks, the edge vector (dnum, dden) = b - a that every
    decorated edge a -> b of a block has in common, p times the peak tb of
    the two cores (k1, k2), as peak_tb gives them, and the oriented
    rational unknots up to smooth isotopy, one per class of H_1 (_walk)."""

    __slots__ = ("p", "q", "path", "blocks", "steps", "peak_tb", "knots")

    def __init__(
        self,
        p: int,
        q: int,
        path: tuple[Slope, ...],
        blocks: tuple[int, ...],
        steps: tuple[tuple[int, int], ...],
        peak_tb: tuple[int, int],
        knots: tuple[str, ...],
    ):
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "path", tuple(path))
        _set(self, "blocks", tuple(blocks))
        _set(self, "steps", tuple(steps))
        _set(self, "peak_tb", tuple(peak_tb))
        _set(self, "knots", tuple(knots))


def decoration(p: int, q: int) -> Decoration:
    """The shared data of the tight structures on L(p,q), walked back from
    0/1 along the chain -p/q = [r_0, ..., r_n] (_walk)."""
    require_lens_pair(p, q)
    return _walk(p, q, neg_cf(Slope(-p, q)))


def _walk(p: int, q: int, chain: list[int]) -> Decoration:
    """The decoration of L(p,q), walked along its expanded chain.

    Component k gives -r_k - 2 decorated edges, plus the path's last edge at
    k = 0 and its first at k = n, all with vector (x, -y) = b - a, where x/y
    is the convergent of [-r_0, ..., -r_{k-1}] (1/0 at k = 0).  So a shuffle
    block is a component framed r_k <= -3, of size -r_k - 2, in reverse
    chain order.  Vertices carry negative numerators and positive
    denominators, and the edge vectors are taken componentwise in that form.
    It ends at x0 = p' = q^-1 (mod p): H_1 = Z/p holds +-k1 at +-1 and +-k2 at
    +-p', and the names that merge into an earlier one are a suffix of the four.
    """
    n = len(chain) - 1
    path, blocks, steps = [Slope(0)], [], []
    num, den, x, y, x0, y0 = 0, 1, 1, 0, 0, -1
    for k, r in enumerate(chain):
        if r <= -3:
            blocks.insert(0, -r - 2)
            steps.insert(0, (x, -y))
        for _ in range(-r - 2 + (k == 0) + (k == n)):
            num, den = num - x, den + y
            path.append(Slope(num, den))
        x, y, x0, y0 = -r * x - x0, -r * y - y0, x, y
    path.reverse()
    knots = ORIENTED_KNOTS[: len({1 % p, -1 % p, x0 % p, -x0 % p})]
    return Decoration(p, q, path, blocks, steps, peak_tb(p, q), knots)


class ShuffleClass(_Record):
    """One isotopy class of tight contact structures on L(p,q).

    The sign multiset per shuffle block determines the class; the normal
    form puts every + before every - inside each block.  Every class of one
    lens space references the same Decoration, and a class is built only
    with one plus count in 0..size per block.
    """

    __slots__ = ("decoration", "plus_counts")

    def __init__(self, decoration: Decoration, plus_counts: tuple[int, ...]):
        blocks = decoration.blocks
        if len(plus_counts) != len(blocks):
            raise ValueError(f"{len(plus_counts)} plus counts for {len(blocks)} blocks")
        for size, plus in zip(blocks, plus_counts):
            if not isinstance(plus, int):
                raise ValueError(f"plus count {plus!r} must be an integer")
            if not 0 <= plus <= size:
                raise ValueError(f"plus count {plus} outside 0..{size}")
        _set(self, "decoration", decoration)
        _set(self, "plus_counts", tuple(plus_counts))

    @property
    def p(self) -> int:
        return self.decoration.p

    @property
    def q(self) -> int:
        return self.decoration.q

    @property
    def path(self) -> tuple[Slope, ...]:
        return self.decoration.path

    @property
    def blocks(self) -> tuple[int, ...]:
        return self.decoration.blocks

    @property
    def sign_string(self) -> str:
        return "".join("+" * plus + "-" * (size - plus) for size, plus in zip(self.blocks, self.plus_counts))


def enumerate_tight(p: int, q: int) -> list[ShuffleClass]:
    """All tight contact structures on L(p,q), one representative per
    shuffle class, in deterministic order."""
    d = decoration(p, q)
    return [
        ShuffleClass(d, plus_counts)
        for plus_counts in itertools.product(*(range(b + 1) for b in d.blocks))
    ]


def class_from_signs(p: int, q: int, signs: str) -> ShuffleClass:
    """Shuffle class containing the decoration given as a +/- string, one
    character per decorated edge.  The length is checked against the chain,
    before the path is walked along the same expansion."""
    require_lens_pair(p, q)
    chain = neg_cf(Slope(-p, q))
    edges = sum(-r - 2 for r in chain)  # a -2 component has none
    if len(signs) != edges:
        raise ValueError(f"L({p},{q}) has {edges} decorated edges, got {len(signs)} signs")
    if any(ch not in "+-" for ch in signs):
        raise ValueError("signs must be a string over '+' and '-'")
    d = _walk(p, q, chain)
    plus_counts = []
    pos = 0
    for size in d.blocks:
        plus_counts.append(signs[pos : pos + size].count("+"))
        pos += size
    return ShuffleClass(d, plus_counts)


def count_tight_lens(p: int, q: int) -> int:
    """Closed-form count |(r_0+1)...(r_n+1)| of tight structures on L(p,q)."""
    require_lens_pair(p, q)
    return math.prod(abs(r + 1) for r in neg_cf(Slope(-p, q)))


def count_tight_solid(slope: Slope) -> int:
    """Number of tight contact structures on a solid torus whose boundary
    has two dividing curves of the given finite slope.

    The slope is first normalized by meridional Dehn twists so that its
    reciprocal shift lands in [-1, 0); the count is then the continued
    fraction product with the bare final coefficient.
    """
    if slope.is_infinite:
        raise ValueError("dividing slope must be finite")
    num, den = slope.num, slope.den
    k = -(num // den) - 1  # slope + k = (num + k*den)/den lies in [-1, 0)
    coeffs = neg_cf(Slope(den, num + k * den))
    return abs(coeffs[-1]) * math.prod(abs(r + 1) for r in coeffs[:-1])


def is_universally_tight(ts: ShuffleClass) -> bool:
    """A class is universally tight iff its decoration is constant (or empty)."""
    total = sum(ts.blocks)
    plus = sum(ts.plus_counts)
    return plus == 0 or plus == total


def standard_structures(p: int, q: int) -> int:
    """How many standard contact structures L(p,q) carries: 1 when the two
    constant-sign decorations are isotopic (q = -1 mod p), else 2."""
    return 1 if q_is_minus_one(p, q) else 2
