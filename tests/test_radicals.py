from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diotrans.errors import PrecisionExhausted
from diotrans.intervals import Enclosure
from diotrans.radicals import (
    Radical,
    exact_div,
    exact_eq,
    exact_floor,
    exact_le,
    exact_lt,
    exact_max,
    exact_min,
    exact_mul,
    exact_pow,
)


def test_perfect_power_reduces_to_rational():
    r = Radical(8, 3)
    assert r.is_rational()
    assert r.as_fraction() == 2


def test_sqrt2_squared_is_two():
    s = Radical(2, 2)
    assert not s.is_rational()
    prod = s * s
    assert prod.as_fraction() == 2


def test_exact_comparisons_straddle_sqrt2():
    s = Radical(2, 2)
    assert Fraction(7, 5) < s < Fraction(3, 2)
    assert exact_lt(Fraction(141, 100), s)
    assert exact_le(s, Fraction(142, 100))


def test_rational_power():
    # (2^(1/2))^(3/2) = 2^(3/4) = 8^(1/4)
    v = Radical(2, 2) ** Fraction(3, 2)
    assert v.index == 4
    assert v.radicand == 8


def test_negative_power_inverts():
    v = Radical(4) ** Fraction(-1, 2)
    assert v.as_fraction() == Fraction(1, 2)


def test_division_and_mixed_ops():
    a = Radical(3, 2)
    assert (a / a).as_fraction() == 1
    assert exact_mul(a, a).as_fraction() if isinstance(exact_mul(a, a), Radical) else True
    q = exact_div(Fraction(3), a)  # 3/sqrt3 = sqrt3
    assert q == Radical(3, 2)


def test_exact_max_min_floor():
    s = Radical(2, 2)
    assert exact_max(s, Fraction(1)) == s
    assert exact_min(s, Fraction(1)) == Fraction(1)
    assert exact_floor(s) == 1
    assert exact_floor(Fraction(7, 2)) == 3


def test_exact_pow_on_fractions():
    assert exact_pow(Fraction(4), Fraction(1, 2)) == 2
    v = exact_pow(Fraction(2), Fraction(1, 3))
    assert isinstance(v, Radical) and v.index == 3


def test_floor_at_every_magnitude():
    rho = Fraction(2**700 + 1, 3)
    f = Radical(rho, 3).floor()
    assert f**3 <= rho < (f + 1) ** 3
    rho = Fraction(3, 2**900 + 7)
    assert Radical(rho, 2).floor() == 0
    assert Radical(Fraction(10**40 + 1), 40).floor() == 10
    assert Radical(Fraction(10**40 - 1), 40).floor() == 9


def test_float_at_every_magnitude():
    huge = Radical(Fraction(2**1200 + 1, 3), 2)
    assert float(huge) == pytest.approx(2.0**600 / 3**0.5, rel=1e-12)
    assert float(Radical(Fraction(1, 2**1200), 2)) == pytest.approx(2.0**-600, rel=1e-12)
    assert float(Radical(Fraction(2**1500, 3**400), 5)) == pytest.approx(
        2.0**300 / 3.0**80, rel=1e-12
    )
    assert float(Radical(Fraction(7, 3), 2)) == (7 / 3) ** 0.5


SQRT2 = Radical(2, 2)
UNDECIDED = (Enclosure(1, 3), Enclosure(2, 4))  # overlapping: no order is certain


def test_exact_mul_on_mixed_operands_and_zeros():
    assert exact_mul(2, 3) == 6 and isinstance(exact_mul(2, 3), Fraction)
    assert exact_mul(SQRT2, SQRT2) == 2 and isinstance(exact_mul(SQRT2, SQRT2), Fraction)
    assert exact_mul(Fraction(1, 2), SQRT2) == Radical(Fraction(1, 2), 2)
    for other in (SQRT2, Fraction(5), Enclosure(1, 2)):
        for zero in (0, Fraction(0)):
            assert exact_mul(zero, other) == 0 and isinstance(exact_mul(zero, other), Fraction)
            assert exact_mul(other, zero) == 0 and isinstance(exact_mul(other, zero), Fraction)
    prod = exact_mul(Enclosure(2, 3), SQRT2)
    assert isinstance(prod, Enclosure) and 2 * 1.4142 < prod.lo and prod.hi < 3 * 1.4143
    assert exact_mul(Fraction(3), Enclosure(1, 2)).lo == 3


def test_exact_div_and_pow_on_mixed_operands_and_zeros():
    assert exact_div(0, SQRT2) == 0 and isinstance(exact_div(0, SQRT2), Fraction)
    assert exact_div(Fraction(0), Enclosure(1, 2)) == 0
    with pytest.raises(ZeroDivisionError):
        exact_div(1, 0)
    assert exact_div(SQRT2, SQRT2) == 1 and isinstance(exact_div(SQRT2, SQRT2), Fraction)
    q = exact_div(Enclosure(2, 4), 2)
    assert (q.lo, q.hi) == (1, 2)
    assert exact_pow(0, Fraction(1, 2)) == 0
    assert exact_pow(SQRT2, 4) == 4 and isinstance(exact_pow(SQRT2, 4), Fraction)
    p = exact_pow(Enclosure(4, 9), Fraction(1, 2))
    assert isinstance(p, Enclosure) and p.lo <= 2 and 3 <= p.hi < Fraction(301, 100)
    sq = exact_pow(Enclosure(2, 3), 2)
    assert (sq.lo, sq.hi) == (4, 9)


def test_exact_le_is_surely_le_on_enclosures():
    a, b = UNDECIDED
    assert not exact_le(a, b) and not exact_le(b, a)
    assert exact_le(Enclosure(1, 2), Enclosure(2, 3))
    assert exact_le(Enclosure(1, Fraction(141, 100)), SQRT2)
    assert not exact_le(SQRT2, Enclosure(1, Fraction(141, 100)))
    assert exact_le(0, SQRT2) and not exact_le(SQRT2, 0)
    assert exact_le(Fraction(-1), Enclosure(0, 1))


def test_exact_lt_raises_when_enclosures_cannot_decide():
    a, b = UNDECIDED
    with pytest.raises(PrecisionExhausted):
        exact_lt(a, b)
    assert exact_lt(Enclosure(1, 2), Enclosure(3, 4))
    assert not exact_lt(Enclosure(3, 4), Enclosure(1, 3))
    assert exact_lt(0, SQRT2) and not exact_lt(SQRT2, 1)


def test_exact_eq_is_overlap_on_enclosures():
    a, b = UNDECIDED
    assert exact_eq(a, b)
    assert not exact_eq(Enclosure(1, 2), Enclosure(3, 4))
    assert exact_eq(Enclosure(1, 2), SQRT2)
    assert exact_eq(exact_mul(SQRT2, SQRT2), 2)
    assert not exact_eq(0, SQRT2) and exact_eq(0, Fraction(0))


def test_exact_max_is_interval_max_on_enclosures():
    a, b = UNDECIDED
    top = exact_max(a, b)
    assert top is not a and top is not b
    assert (top.lo, top.hi) == (2, 4)
    top = exact_max(Fraction(0), Enclosure(1, 2))
    assert (top.lo, top.hi) == (1, 2)
    assert exact_max(SQRT2, 0) is SQRT2 and exact_max(1, SQRT2) is SQRT2


def test_rejects_nonpositive():
    with pytest.raises(ValueError):
        Radical(0)
    with pytest.raises(ValueError):
        Radical(-2, 3)


@given(
    num=st.integers(1, 500),
    den=st.integers(1, 500),
    k=st.integers(1, 6),
)
def test_kth_power_roundtrip(num, den, k):
    x = Fraction(num, den)
    v = Radical(x, k) ** k
    assert v.is_rational() and v.as_fraction() == x


@given(
    a=st.fractions(min_value=Fraction(1, 50), max_value=50),
    b=st.fractions(min_value=Fraction(1, 50), max_value=50),
    k=st.integers(1, 4),
    j=st.integers(1, 4),
)
def test_comparison_agrees_with_floats(a, b, j, k):
    x, y = Radical(a, j), Radical(b, k)
    fx, fy = float(a) ** (1.0 / j), float(b) ** (1.0 / k)
    if abs(fx - fy) > 1e-9:  # floats are only trusted away from ties
        assert (x < y) == (fx < fy)
