"""Exact extended-rational slopes and negative continued fractions.

A slope is a reduced fraction num/den with den >= 0, where 1/0 stands for
the slope at infinity.  All arithmetic is exact integer arithmetic; nothing
here ever touches a float.
"""

from __future__ import annotations

import math

_set = object.__setattr__
_Fraction = None  # fractions.Fraction, bound by the first _fraction call


def _fraction(num: int, den: int = 1):
    """Fraction(num, den).  The class is imported on the first call and
    bound once: fractions, with the decimal, numbers and re that it loads,
    stays unloaded in every process that builds no Fraction, such as a CLI
    call that prints its rationals with _ratio."""
    global _Fraction
    if _Fraction is None:
        from fractions import Fraction as _Fraction
    return _Fraction(num, den)


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)), for den != 0, read off the integers: the
    gcd divided out, the sign on the numerator, and a bare integer when
    the denominator divides."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _int(text: str) -> int:
    """The integer that text spells with ASCII digits and an optional sign,
    surrounding whitespace stripped; int() alone would also read digit
    group underscores ("1_0") and non-ASCII digits such as full-width ones."""
    text = text.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


class _Record:
    """Shared dunders of the package's immutable value records.

    A record lists its fields in __slots__ and sets them in its own
    __init__ through object.__setattr__.  Records compare equal only to
    records of the same class with equal fields, hash like the tuple of
    their fields and refuse assignment and deletion.  Hand-written in place
    of frozen dataclasses, whose import pulls in inspect and whose
    decoration execs generated code, both on every CLI start-up.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Slope(_Record):
    """An extended rational number num/den in lowest terms.

    den == 0 encodes infinity, canonicalized as 1/0 (a -1/0 input is
    normalized away).  For finite slopes den > 0 and the sign lives on num.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        _set(self, "num", num)
        _set(self, "den", den)
        # Normalization stays a method looked up on the class:
        # lkbench/layers.py wraps it to count Slope constructions.
        self.__post_init__()

    def __post_init__(self):
        num, den = self.num, self.den
        if den == 0:
            if num == 0:
                raise ValueError("0/0 is not a slope")
            _set(self, "num", 1)
            return
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        if g != 1:
            _set(self, "num", num // g)
            _set(self, "den", den // g)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise ValueError("infinite slope has no rational value")
        return _fraction(self.num, self.den)

    def __neg__(self) -> "Slope":
        return Slope(-self.num, self.den)

    def __str__(self) -> str:
        return "inf" if self.is_infinite else _ratio(self.num, self.den)

    def __repr__(self) -> str:
        return f"Slope({self})"

    @classmethod
    def parse(cls, text: str) -> "Slope":
        """Parse "p/q", a bare integer, or "inf"; round-trips with str()."""
        text = text.strip()
        if text in ("inf", "-inf"):
            return INFINITY
        try:
            terms = [_int(t) for t in text.split("/", 1)]
        except ValueError:
            raise ValueError(f"not a slope: {text!r}") from None
        return cls(*terms)


INFINITY = Slope(1, 0)
ZERO = Slope(0, 1)


def farey_sum(a: Slope, b: Slope) -> Slope:
    """Mediant of two slopes, reduced unconditionally.

    The unreduced mediant is meaningful only for Farey neighbors; we always
    return the reduced fraction and never expose the raw pair.  It is never
    0/0: denominators are >= 0 and infinity is 1/0.
    """
    return Slope(a.num + b.num, a.den + b.den)


def farey_mul(a: Slope, b: Slope) -> int:
    """Cross-determinant a.num*b.den - a.den*b.num.

    Its absolute value is 1 exactly when a and b span an edge of the Farey
    graph, and it is antisymmetric in its arguments.
    """
    return a.num * b.den - a.den * b.num


def neg_cf(x: Slope) -> list[int]:
    """Negative continued fraction coefficients [r_0, ..., r_n] of x <= -1.

    x = r_0 - 1/(r_1 - 1/(... - 1/r_n)).  Every r_i <= -2, except that
    x = -1 expands to [-1]; a lens space's -p/q < -1 never ends in -1.
    """
    if x.is_infinite:
        raise ValueError("cannot expand an infinite slope")
    num, den = x.num, x.den  # den > 0, so num/den <= -1 iff num <= -den
    if num > -den:
        raise ValueError(f"needs x <= -1, got {x}")
    coeffs = []
    while True:
        r, rem = divmod(num, den)
        coeffs.append(r)
        if rem == 0:
            return coeffs
        # x - r = rem/den lies in (0, 1); the expansion goes on with -1/(x - r).
        num, den = -den, rem


def eval_neg_cf(coeffs: list[int]) -> Slope:
    """Evaluate [r_0, ..., r_n] back to the slope it expands."""
    if not coeffs:
        raise ValueError("empty coefficient list")
    if not all(isinstance(r, int) for r in coeffs):
        raise ValueError("coefficients must be integers")
    # The tail [r_k, ..., r_n] is num/den; r - 1/(num/den) = (r*num - den)/num.
    num, den = coeffs[-1], 1
    for r in reversed(coeffs[:-1]):
        if not num:
            raise ValueError(f"{coeffs} divides by zero: a tail evaluates to 0")
        num, den = r * num - den, num
    return Slope(num, den)


def cf_matrix_identity(coeffs: list[int]) -> tuple[int, int, int, int]:
    """Entries (p, p', q, q') of the product of the matrices
    [[-r_i, 1], [-1, 0]] over the lens-form coefficients of -p/q.

    The product equals [[p, p'], [-q, -q']]; it satisfies pq' - p'q = -1,
    and reversing the coefficients expands -p/p'.
    """
    a, b, c, d = 1, 0, 0, 1
    for r in coeffs:
        a, b, c, d = a * (-r) + b * (-1), a, c * (-r) + d * (-1), c
    return a, b, -c, -d


def require_lens_pair(p: int, q: int) -> None:
    """Reject (p, q) unless it names a lens space L(p,q): coprime p > q > 0."""
    if not (p > q > 0) or math.gcd(p, q) != 1:
        raise ValueError(f"need coprime p > q > 0, got ({p}, {q})")


def q_is_minus_one(p: int, q: int) -> bool:
    """Whether q = -1 mod p, for a lens pair (p, q)."""
    require_lens_pair(p, q)
    return q == p - 1


def dual_fraction(p: int, q: int) -> Slope:
    """The largest extended rational p'/q' with pq' - p'q = -1.

    "Largest" puts 1/0 above every finite rational, so the answer is 1/0
    exactly when q == 1; otherwise it is the solution with the smallest
    positive q'.
    """
    require_lens_pair(p, q)
    q_ = (-pow(p, -1, q)) % q
    p_ = (p * q_ + 1) // q
    return Slope(p_, q_)
