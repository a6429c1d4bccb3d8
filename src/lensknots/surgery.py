"""Chain surgery presentations of rational unknots and the linking-matrix
rotation number formula.

The rational unknots in L(p,q) arise from a chain of unknots with framings
given by the negative continued fraction of -p/q, with a meridian hung on
the first or the last component.  All linear algebra is fraction-free
integer elimination; no floats.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .slopes import Slope, _Record, _set, cf_matrix_identity, neg_cf, require_lens_pair

KNOTS = ("k1", "k2")
# Oriented rational unknot -> (index of its core in KNOTS, orientation sign);
# a leading "-" reverses the core, which keeps tb_q and negates rot_q.
_ORIENTED = {"k1": (0, 1), "-k1": (0, -1), "k2": (1, 1), "-k2": (1, -1)}
ORIENTED_KNOTS = tuple(_ORIENTED)


def _knot(knot) -> tuple[int, int]:
    """(core index, orientation sign) of an oriented knot name."""
    try:
        return _ORIENTED[knot]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValueError(f"knot must be one of {ORIENTED_KNOTS}, got {knot!r}") from None


class SurgeryChain(_Record):
    """Chain of unknot surgery components with integer framings <= -2.

    Component i sits at tb = framings[i] + 1; the meridian that realizes
    the rational unknot links the first component (k1) or the last (k2).
    """

    __slots__ = ("framings", "meridian_of")

    def __init__(self, framings: tuple[int, ...], meridian_of: str = "first"):
        if any(r > -2 for r in framings):
            raise ValueError("chain framings must be <= -2")
        if meridian_of not in ("first", "last"):
            raise ValueError("meridian_of must be 'first' or 'last'")
        _set(self, "framings", framings)
        _set(self, "meridian_of", meridian_of)


def build_chain(p: int, q: int, knot: str = "k1") -> SurgeryChain:
    """Surgery chain presenting the rational unknot k1 or k2 in L(p,q)."""
    require_lens_pair(p, q)
    if knot not in KNOTS:
        raise ValueError(f"knot must be one of {KNOTS}, got {knot!r}")
    framings = tuple(neg_cf(Slope(-p, q)))
    return SurgeryChain(framings, "first" if knot == "k1" else "last")


def linking_matrix(chain: SurgeryChain) -> tuple[tuple[int, ...], ...]:
    """Tridiagonal linking matrix: framings on the diagonal, 1 off it."""
    n = len(chain.framings)
    rows = []
    for i, r in enumerate(chain.framings):
        row = [0] * n
        row[i] = r
        if i:
            row[i - 1] = 1
        if i + 1 < n:
            row[i + 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def linking_det(chain: SurgeryChain) -> int:
    """Determinant of the linking matrix, (-1)^n times the continuant p of
    the chain's continued fraction; det_bareiss is the independent check."""
    return (-1) ** len(chain.framings) * cf_matrix_identity(chain.framings)[0]


def meridian_lk(chain: SurgeryChain) -> tuple[int, ...]:
    """Linking vector of the meridian: a single +1 on its chain component."""
    n = len(chain.framings)
    idx = 0 if chain.meridian_of == "first" else n - 1
    return tuple(1 if i == idx else 0 for i in range(n))


def _rots(r: int) -> range:
    """Rotation numbers of a component framed r, a tb = r+1 unknot:
    r+2, r+4, ..., -(r+2)."""
    return range(r + 2, -r - 1, 2)


def rot_choices(chain: SurgeryChain) -> list[tuple[int, ...]]:
    """All admissible rotation vectors of the chain components: the
    Cartesian product of their rotation numbers, one tuple per
    stabilization pattern."""
    return [tuple(v) for v in itertools.product(*map(_rots, chain.framings))]


def det_bareiss(matrix) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination; every intermediate value is an exact integer.

    Each row is kept as a map from column to nonzero entry, and a step
    reads only the rows with an entry in the pivot column.  Bareiss's step
    k would also scale every other row below the pivot by pivot/previous
    pivot; here such a row is left alone and records the previous pivot
    its entries are current to.  The per-step factors telescope, so when
    the row is next read, as the pivot row or for its entry in the pivot
    column, one multiplication by the current previous pivot and one exact
    division by the recorded one give the eager values.  A zero pivot is
    swapped, recorded pivot and all, with the first row below that is
    nonzero in its column."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    return _eliminate([{j: v for j, v in enumerate(row) if v} for row in matrix])


def _eliminate(rows: list[dict[int, int]]) -> int:
    """det_bareiss's elimination, on rows already held as maps from column
    to entry; it consumes them.  current[i] is the previous pivot that the
    entries of rows[i] are current to."""
    n = len(rows)
    current = [1] * n
    sign = 1
    prev = 1
    for k in range(n):
        if not rows[k].get(k):
            for i in range(k + 1, n):
                if rows[i].get(k):
                    rows[k], rows[i] = rows[i], rows[k]
                    current[k], current[i] = current[i], current[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot_row = rows[k]
        if current[k] != prev:
            at = current[k]
            for j, v in pivot_row.items():
                pivot_row[j] = v * prev // at
        pivot = pivot_row.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            if not row.get(k):
                continue
            # Entries outside the pivot row's columns are only scaled, in
            # one step from `at` to pivot; the others are brought up to
            # prev and then combined with the pivot row.
            at = current[i]
            mult = row.pop(k) * prev // at
            for j, v in row.items():
                if j not in pivot_row:
                    row[j] = v * pivot // at
                elif at != prev:
                    row[j] = v * prev // at
            for j, b in pivot_row.items():
                row[j] = (row.get(j, 0) * pivot - mult * b) // prev
            current[i] = pivot
        prev = pivot
    return sign * prev


def solve_exact(matrix, rhs) -> list[Fraction]:
    """Exact solution of an integer linear system by Cramer's rule on
    Bareiss determinants.

    det_bareiss gives the denominator.  The matrix's sparse rows, maps from
    column to nonzero entry, are built once; the matrix of the numerator of
    x[col] is a copy of them with column col set to the nonzero entries of
    rhs, and goes to det_bareiss's elimination as it is, with no dense copy
    in between."""
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError(f"right-hand side must have {n} entries, got {len(rhs)}")
    d = det_bareiss(matrix)
    if d == 0:
        raise ValueError("singular linking matrix")
    rows = [{j: v for j, v in enumerate(row) if v} for row in matrix]
    out = []
    for col in range(n):
        replaced = []
        for row, b in zip(rows, rhs):
            row = row.copy()
            row.pop(col, None)
            if b:
                row[col] = b
            replaced.append(row)
        out.append(Fraction(_eliminate(replaced), d))
    return out


def rot_q_surgery(chain: SurgeryChain, rots) -> list[Fraction]:
    """Rational rotation numbers -rot . M^-1 . lk, exactly, one per vector in
    rots (each one that rot_choices lists); M^-1 . lk is solved once and
    put over one denominator, so each vector's sum is over integers."""
    x = solve_exact(linking_matrix(chain), meridian_lk(chain))
    den = math.lcm(*(xi.denominator for xi in x))
    nums = [xi.numerator * (den // xi.denominator) for xi in x]
    allowed = [_rots(r) for r in chain.framings]
    out = []
    for rot in rots:
        if len(rot) != len(allowed):
            raise ValueError("wrong number of rotation numbers")
        if any(v not in a for v, a in zip(rot, allowed)):
            raise ValueError("rotation numbers need |rot_i| <= -r_i - 2 and rot_i = r_i (mod 2)")
        out.append(Fraction(-sum(v * num for v, num in zip(rot, nums)), den))
    return out


def rot_spectrum(p: int, q: int, knot: str = "k1") -> list[Fraction]:
    """Sorted multiset of rational rotation numbers of the given rational
    unknot over all stabilization choices of the chain."""
    chain = build_chain(p, q, knot)
    return sorted(rot_q_surgery(chain, rot_choices(chain)))
