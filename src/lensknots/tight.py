"""Tight contact structures on lens spaces as sign-decorated Farey geodesics.

A tight structure on L(p,q) is a decoration of the geodesic from -p/q to 0
by a sign on every edge except the first and the last, taken up to shuffling
signs within blocks of mutually shuffleable edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .farey import geodesic
from .slopes import Slope, dual_fraction, farey_mul, neg_cf, q_is_minus_one, require_lens_pair


def decorated_path(p: int, q: int) -> list[Slope]:
    """The Farey geodesic from -p/q to 0 carrying the decoration."""
    require_lens_pair(p, q)
    return geodesic(Slope(-p, q), Slope(0))


def decorated_edge_count(path: list[Slope]) -> int:
    return len(path) - 3


def block_partition(path: list[Slope]) -> list[int]:
    """Sizes of the maximal runs of decorated edges that shuffle with their
    neighbors.

    Decorated edges are indexed by their initial vertex, 1..len(path)-3; two
    consecutive ones shuffle when the endpoints around their shared vertex
    have cross-determinant of absolute value 2.
    """
    n_dec = decorated_edge_count(path)
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


def peak_tb(p: int, q: int) -> tuple[Fraction, Fraction]:
    """Maximal rational Thurston-Bennequin numbers of the cores k1 and k2:
    -(p-q)/p and -(p-p')/p, where p'/q' is the dual fraction of p/q."""
    require_lens_pair(p, q)
    return Fraction(q - p, p), Fraction(dual_fraction(p, q).num - p, p)


@dataclass(frozen=True)
class Decoration:
    """What every tight structure on one L(p,q) shares: the decorated path,
    its shuffle blocks, the edge vector (dnum, dden) = b - a that every
    decorated edge a -> b of a block has in common, and the peak tb of the
    two cores (k1, k2)."""

    p: int
    q: int
    path: tuple[Slope, ...]
    blocks: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]
    peak_tb: tuple[Fraction, Fraction]


def decoration(p: int, q: int) -> Decoration:
    """The shared data of the tight structures on L(p,q).

    Inside a block every edge vector is the same, since each inner vertex
    is the unreduced mediant of its two neighbors (cross-determinant 2), so
    a block's step is that of its first edge.  Decorated-path vertices carry
    negative numerators and positive denominators, and the steps are taken
    componentwise in that form.
    """
    path = tuple(decorated_path(p, q))
    if any(v.num >= 0 for v in path[1:-1]):
        raise ValueError("decorated-path vertices must be negative")
    blocks = tuple(block_partition(path))
    steps = []
    first = 1  # decorated edges start at the second path edge
    for size in blocks:
        a, b = path[first], path[first + 1]
        steps.append((b.num - a.num, b.den - a.den))
        first += size
    return Decoration(p, q, path, blocks, tuple(steps), peak_tb(p, q))


@dataclass(frozen=True)
class ShuffleClass:
    """One isotopy class of tight contact structures on L(p,q).

    The sign multiset per shuffle block determines the class; the normal
    form puts every + before every - inside each block.  Every class of one
    lens space references the same Decoration.
    """

    decoration: Decoration
    plus_counts: tuple[int, ...]

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
    def signs(self) -> tuple[str, ...]:
        out = []
        for size, plus in zip(self.blocks, self.plus_counts):
            out.extend(["+"] * plus + ["-"] * (size - plus))
        return tuple(out)

    @property
    def sign_string(self) -> str:
        return "".join(self.signs)


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
    character per decorated edge."""
    d = decoration(p, q)
    if len(signs) != sum(d.blocks):
        raise ValueError(
            f"L({p},{q}) has {sum(d.blocks)} decorated edges, got {len(signs)} signs"
        )
    if any(ch not in "+-" for ch in signs):
        raise ValueError("signs must be a string over '+' and '-'")
    plus_counts = []
    pos = 0
    for size in d.blocks:
        plus_counts.append(signs[pos : pos + size].count("+"))
        pos += size
    return ShuffleClass(d, tuple(plus_counts))


def count_tight_lens(p: int, q: int) -> int:
    """Closed-form count |(r_0+1)...(r_n+1)| of tight structures on L(p,q)."""
    require_lens_pair(p, q)
    count = 1
    for r in neg_cf(Slope(-p, q)):
        count *= abs(r + 1)
    return count


def count_tight_solid(slope: Slope) -> int:
    """Number of tight contact structures on a solid torus whose boundary
    has two dividing curves of the given finite slope.

    The slope is first normalized by meridional Dehn twists so that its
    reciprocal shift lands in [-1, 0); the count is then the continued
    fraction product with the bare final coefficient.
    """
    if slope.is_infinite:
        raise ValueError("dividing slope must be finite")
    t = slope.as_fraction()
    k = -(t.numerator // t.denominator) - 1  # t + k in [-1, 0)
    coeffs = neg_cf(Slope.from_fraction(Fraction(1) / (t + k)), form="solid")
    count = abs(coeffs[-1])
    for r in coeffs[:-1]:
        count *= abs(r + 1)
    return count


def is_universally_tight(ts: ShuffleClass) -> bool:
    """A class is universally tight iff its decoration is constant (or empty)."""
    total = sum(ts.blocks)
    plus = sum(ts.plus_counts)
    return plus == 0 or plus == total


def standard_structures(p: int, q: int) -> int:
    """How many standard contact structures L(p,q) carries: 1 when the two
    constant-sign decorations are isotopic (q = -1 mod p), else 2."""
    return 1 if q_is_minus_one(p, q) else 2
