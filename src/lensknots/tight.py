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
from .slopes import Slope, farey_mul, neg_cf, q_is_minus_one, require_lens_pair


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


@dataclass(frozen=True)
class ShuffleClass:
    """One isotopy class of tight contact structures on L(p,q).

    The sign multiset per shuffle block determines the class; the normal
    form puts every + before every - inside each block.
    """

    p: int
    q: int
    path: tuple[Slope, ...]
    blocks: tuple[int, ...]
    plus_counts: tuple[int, ...]

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
    path = tuple(decorated_path(p, q))
    blocks = tuple(block_partition(list(path)))
    out = []
    for plus_counts in itertools.product(*(range(b + 1) for b in blocks)):
        out.append(ShuffleClass(p, q, path, blocks, plus_counts))
    return out


def class_from_signs(p: int, q: int, signs: str) -> ShuffleClass:
    """Shuffle class containing the decoration given as a +/- string, one
    character per decorated edge."""
    path = tuple(decorated_path(p, q))
    blocks = tuple(block_partition(list(path)))
    if len(signs) != sum(blocks):
        raise ValueError(
            f"L({p},{q}) has {sum(blocks)} decorated edges, got {len(signs)} signs"
        )
    if any(ch not in "+-" for ch in signs):
        raise ValueError("signs must be a string over '+' and '-'")
    plus_counts = []
    pos = 0
    for size in blocks:
        plus_counts.append(signs[pos : pos + size].count("+"))
        pos += size
    return ShuffleClass(p, q, path, blocks, tuple(plus_counts))


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
