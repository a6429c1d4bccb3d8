"""Chain surgery presentations of rational unknots and the linking-matrix
rotation number formula.

The rational unknots in L(p,q) arise from a chain of unknots with framings
given by the negative continued fraction of -p/q, with a meridian hung on
the first or the last component.  All linear algebra is fraction-free
integer elimination; no floats.
"""

from __future__ import annotations

import itertools

from .slopes import Slope, _fraction, _Record, _set, cf_matrix_identity, neg_cf, require_lens_pair

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

    def __init__(self, framings, meridian_of: str = "first"):
        framings = tuple(framings)
        if not all(isinstance(r, int) for r in framings):
            raise ValueError("chain framings must be integers")
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
    return SurgeryChain(neg_cf(Slope(-p, q)), "first" if knot == "k1" else "last")


def _linking_rows(framings) -> list[dict[int, int]]:
    """The tridiagonal linking matrix as the sparse rows that _eliminate
    reads: each framing on the diagonal, with 1 on either side."""
    rows = [{i: r} for i, r in enumerate(framings)]
    for i in range(1, len(rows)):
        rows[i - 1][i] = rows[i][i - 1] = 1
    return rows


def linking_matrix(chain: SurgeryChain) -> tuple[tuple[int, ...], ...]:
    """Tridiagonal linking matrix: _linking_rows rendered as dense rows."""
    n = len(chain.framings)
    # tuple() of a generator resizes as it grows; from lists the sweep peaks 1.5 MiB lower.
    return tuple([tuple([row.get(j, 0) for j in range(n)]) for row in _linking_rows(chain.framings)])


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


def det_bareiss(matrix) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss)
    elimination (_eliminate), on the rows that _rows reads; every
    intermediate value is an exact integer."""
    return _eliminate(_rows(matrix))


def _rows(matrix) -> list[dict[int, int]]:
    """The rows of a square int matrix from outside, as maps from column to
    nonzero entry; the elimination's floor divisions are exact only on ints."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    if not all(isinstance(v, int) for row in matrix for v in row):
        raise ValueError("matrix entries must be integers")
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def _eliminate(rows: list[dict[int, int]]) -> int:
    """Fraction-free (Bareiss) elimination of rows held as maps from column
    to nonzero entry, returning the determinant; it consumes the rows.

    A step reads only the rows with an entry in the pivot column.
    Bareiss's step k would also scale every other row below the pivot by
    pivot/previous pivot; here such a row is left alone and records the
    previous pivot its entries are current to, current[i] for rows[i].
    The per-step factors telescope, so when the row is next read, as the
    pivot row or for its entry in the pivot column, one multiplication by
    the current previous pivot and one exact division by the recorded one
    give the eager values.  A zero pivot is swapped, recorded pivot and
    all, with the first row below that is nonzero in its column."""
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
    """Exact solution of an integer linear system by Cramer's rule (_cramer)."""
    n = len(matrix)
    if len(rhs) != n:
        raise ValueError(f"right-hand side must have {n} entries, got {len(rhs)}")
    if not all(isinstance(b, int) for b in rhs):
        raise ValueError("right-hand side entries must be integers")
    nums, d = _cramer(_rows(matrix), rhs)
    return [_fraction(v, d) for v in nums]


def _cramer(rows: list[dict[int, int]], rhs) -> tuple[list[int], int]:
    """Cramer's rule on sparse rows, over one denominator: (nums, d), with
    d = det M unreduced and signed, and nums[col] = d * x[col], the
    determinant of the rows with column col set to the nonzero entries of
    rhs.  Each elimination gets its own copy of the rows, none of them dense."""
    d = _eliminate([row.copy() for row in rows])
    if d == 0:
        raise ValueError("singular matrix")
    nums = []
    for col in range(len(rows)):
        replaced = [row.copy() for row in rows]
        for row, b in zip(replaced, rhs):
            row.pop(col, None)
            if b:
                row[col] = b
        nums.append(_eliminate(replaced))
    return nums, d


def _column(chain: SurgeryChain) -> tuple[list[int], int]:
    """M^-1 . lk for the chain's meridian as (nums, d): integers over
    d = det M, unreduced and signed.  The one solve of the rot_Q paths."""
    return _cramer(_linking_rows(chain.framings), meridian_lk(chain))


def rot_q_surgery(chain: SurgeryChain, rots) -> list[Fraction]:
    """Rational rotation numbers -rot . M^-1 . lk, exactly, one per vector in
    rots (each with |rot_i| <= -r_i - 2 and rot_i = r_i mod 2, checked before
    the solve): _rot_sums over det M."""
    sums, d = _rot_sums(chain, rots)
    return [_fraction(s, d) for s in sums]


def _rot_sums(chain: SurgeryChain, rots) -> tuple[list[int], int]:
    """(sums, d): det M times rot_q_surgery(chain, rots), and d = det M.
    M^-1 . lk is solved once, as integers over d, so each vector's sum is
    over integers."""
    allowed, rots = [_rots(r) for r in chain.framings], list(rots)
    for rot in rots:
        if len(rot) != len(allowed):
            raise ValueError("wrong number of rotation numbers")
        if not all(isinstance(v, int) for v in rot):
            raise ValueError("rotation numbers must be integers")
        if any(v not in a for v, a in zip(rot, allowed)):
            raise ValueError("rotation numbers need |rot_i| <= -r_i - 2 and rot_i = r_i (mod 2)")
    nums, d = _column(chain)
    return [-sum(v * num for v, num in zip(rot, nums)) for rot in rots], d


def _spectrum(chain: SurgeryChain) -> tuple[list[int], int]:
    """(sums, d): the rational rotation numbers of a built chain over all its
    rotation vectors v, in increasing order, as integers over d = det M =
    (-1)^n p: -sum v_i * nums_i, one term per component.  Dividing by a
    negative d reverses the order, so the sums are sorted against it."""
    nums, d = _column(chain)
    terms = [[-v * num for v in _rots(r)] for r, num in zip(chain.framings, nums)]
    return sorted(map(sum, itertools.product(*terms)), reverse=d < 0), d


def rot_spectrum(p: int, q: int, knot: str = "k1") -> list[Fraction]:
    """Sorted multiset of rational rotation numbers of the given rational
    unknot over all stabilization choices of the chain: _spectrum over d."""
    sums, d = _spectrum(build_chain(p, q, knot))
    return [_fraction(s, d) for s in sums]
