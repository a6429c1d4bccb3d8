import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lensknots.checks import lens_pairs
from lensknots.slopes import (
    INFINITY,
    ZERO,
    Slope,
    cf_matrix_identity,
    dual_fraction,
    eval_neg_cf,
    farey_mul,
    farey_sum,
    neg_cf,
    _ratio,
)

def nonzero_slopes():
    return st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    ).filter(lambda t: t != (0, 0)).map(lambda t: Slope(*t))


class TestSlope:
    def test_canonical_infinity(self):
        assert Slope(3, 0) == INFINITY
        assert Slope(-1, 0) == INFINITY
        assert INFINITY.is_infinite

    def test_zero_zero_rejected(self):
        with pytest.raises(ValueError):
            Slope(0, 0)

    def test_reduction_and_sign(self):
        assert Slope(6, -4) == Slope(-3, 2)
        assert Slope(-3, 2).num == -3
        assert Slope(-3, 2).den == 2

    @pytest.mark.parametrize("text", ["-12/5", "0", "inf", "7", "-1"])
    def test_parse_roundtrip(self, text):
        assert str(Slope.parse(text)) == text

    def test_parse_extra(self):
        for text in ("1/0", "+1/0", "  -1/0 ", "-inf", "3/0"):
            assert Slope.parse(text) == INFINITY
        with pytest.raises(ValueError, match="0/0 is not a slope"):
            Slope.parse("0/0")
        assert Slope.parse("6/-4") == Slope(-3, 2)
        assert Slope.parse(" +3 / +4 ") == Slope(3, 4)

    @pytest.mark.parametrize("text", ["1_0", "1/2_0", "４", "1/２", "²", "+-1", "--1", "", "/2"])
    def test_parse_takes_ascii_digits_only(self, text):
        with pytest.raises(ValueError, match="not a slope"):
            Slope.parse(text)

    def test_as_fraction(self):
        assert Slope(-12, 5).as_fraction() == Fraction(-12, 5)
        with pytest.raises(ValueError):
            INFINITY.as_fraction()

    @given(nonzero_slopes())
    def test_neg_involution(self, s):
        assert -(-s) == s

    @given(st.tuples(st.integers(), st.integers()).filter(lambda t: t != (0, 0)))
    def test_parse_inverts_str(self, pair):
        s = Slope(*pair)
        assert Slope.parse(str(s)) == s


def test_farey_sum_examples():
    assert farey_sum(Slope(-1, 2), Slope(0, 1)) == Slope(-1, 3)
    assert farey_sum(Slope(1, 1), INFINITY) == Slope(2, 1)
    # opposite slopes are never both canonical with zero mediant; the
    # reduced mediant of 1 and -1 is just 0
    assert farey_sum(Slope(1, 1), Slope(-1, 1)) == ZERO
    assert farey_sum(INFINITY, INFINITY) == INFINITY


def test_farey_mul_examples():
    assert farey_mul(Slope(-1, 2), ZERO) == -1
    assert farey_mul(INFINITY, Slope(5, 1)) == 1
    assert farey_mul(Slope(-12, 5), Slope(-7, 3)) == -1


@given(nonzero_slopes(), nonzero_slopes())
def test_farey_mul_antisymmetric(a, b):
    assert farey_mul(a, b) == -farey_mul(b, a)
    if a == b:
        assert farey_mul(a, b) == 0


@given(nonzero_slopes(), nonzero_slopes())
def test_mediant_is_neighbor_of_neighbors(a, b):
    # |ad - bc| = 1 makes the mediant a Farey neighbor of both parents
    if abs(farey_mul(a, b)) != 1:
        return
    m = farey_sum(a, b)
    assert abs(farey_mul(a, m)) == 1
    assert abs(farey_mul(m, b)) == 1


class TestNegCF:
    @pytest.mark.parametrize(
        "slope,coeffs",
        [
            (Slope(-5, 2), [-3, -2]),
            (Slope(-12, 5), [-3, -2, -3]),
            (Slope(-2, 1), [-2]),
            (Slope(-5, 4), [-2, -2, -2, -2]),
        ],
    )
    def test_lens_examples(self, slope, coeffs):
        assert neg_cf(slope) == coeffs
        assert eval_neg_cf(coeffs) == slope

    def test_solid_form_allows_minus_one(self):
        # count_tight_solid expands the reciprocal of a slope in [-1, 0).
        assert neg_cf(Slope(-1, 1)) == [-1]
        assert neg_cf(Slope(-3, 2)) == [-2, -2]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            neg_cf(Slope(-1, 2))
        with pytest.raises(ValueError):
            neg_cf(ZERO)
        with pytest.raises(ValueError):
            neg_cf(INFINITY)
        with pytest.raises(ValueError, match="empty coefficient list"):
            eval_neg_cf([])
        with pytest.raises(ValueError, match="divides by zero"):
            eval_neg_cf([-2, 0])

    @pytest.mark.parametrize("coeffs", [[0.1], [1.5], ["-3"]], ids=["float", "half", "str"])
    def test_eval_rejects_non_integer_coefficients(self, coeffs):
        # Fraction once took each of these, and a slope came back.
        with pytest.raises(ValueError, match="^coefficients must be integers$"):
            eval_neg_cf(coeffs)

    @pytest.mark.parametrize(
        "x,message",
        [
            (INFINITY, "cannot expand an infinite slope"),
            (Slope(-1, 2), "needs x <= -1, got -1/2"),
            (Slope(3, 2), "needs x <= -1, got 3/2"),
        ],
    )
    def test_domain_error_messages(self, x, message):
        with pytest.raises(ValueError) as exc:
            neg_cf(x)
        assert str(exc.value) == message

    def test_roundtrip_every_lens_pair(self):
        for p, q in lens_pairs(200):
            coeffs = neg_cf(Slope(-p, q))
            assert all(r <= -2 for r in coeffs), (p, q)
            assert eval_neg_cf(coeffs) == Slope(-p, q), (p, q)

    def test_solid_roundtrip(self):
        # Every x <= -1 with numerator down to -60; only x = -1 ends in -1.
        for num in range(-60, 0):
            for den in range(1, -num + 1):
                x = Slope(num, den)
                coeffs = neg_cf(x)
                assert eval_neg_cf(coeffs) == x, x
                assert x == Slope(-1) or all(r <= -2 for r in coeffs), x
        assert neg_cf(Slope(-1)) == [-1]

    @given(st.integers(2, 200), st.integers(1, 199))
    def test_roundtrip(self, p, q):
        q = q % p
        if q == 0 or math.gcd(p, q) != 1:
            return
        coeffs = neg_cf(Slope(-p, q))
        assert all(r <= -2 for r in coeffs)
        assert eval_neg_cf(coeffs) == Slope(-p, q)


def test_cf_matrix_identity():
    p, p_, q, q_ = cf_matrix_identity([-3, -2])
    assert (p, p_, q, q_) == (5, 3, 2, 1)
    assert p * q_ - p_ * q == -1


def test_dual_fraction_values():
    assert dual_fraction(5, 2) == Slope(3, 1)
    assert dual_fraction(5, 4) == Slope(4, 3)
    # 1/0 exactly when q = 1, where pow(p, -1, 1) is 0, so q' = 0 and p' = 1.
    assert all(dual_fraction(p, 1) == INFINITY for p in range(2, 201))
    assert all(dual_fraction(p, q).den > 0 for p, q in lens_pairs(60) if q > 1)
    with pytest.raises(ValueError):
        dual_fraction(4, 2)


def test_dual_fraction_matches_matrix_identity():
    for p, q in lens_pairs(40):
        coeffs = neg_cf(Slope(-p, q))
        mp, mp_, mq, mq_ = cf_matrix_identity(coeffs)
        assert (mp, mq) == (p, q)
        assert dual_fraction(p, q) == Slope(mp_, mq_)
        assert mp * mq_ - mp_ * mq == -1
        assert eval_neg_cf(list(reversed(coeffs))) == Slope(-mp, mp_)


_NINETEEN_DIGITS = st.integers(-(10**19), 10**19)


@given(_NINETEEN_DIGITS, _NINETEEN_DIGITS.filter(bool))
def test_ratio_is_str_of_the_fraction(num, den):
    """_ratio renders num/den from the integers as str(Fraction) does, for
    a negative denominator as well as a positive one."""
    assert _ratio(num, den) == str(Fraction(num, den))
