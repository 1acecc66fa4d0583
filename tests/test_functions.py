from fractions import Fraction

import math

import pytest

from diotrans.errors import DomainError
from diotrans.functions import FunctionSpec, power_spec
from diotrans.intervals import Enclosure
from diotrans.radicals import Radical


def test_power_value_and_inverse_are_exact():
    f = power_spec(Fraction(1, 2), Fraction(-3))
    assert f.value(Fraction(2)) == Fraction(1, 16)
    assert f.inverse_at(Fraction(1, 16)) == 2
    assert not f.increasing


def test_power_with_radical_result():
    f = power_spec(1, Fraction(-1, 2))
    v = f.value(2)
    assert isinstance(v, Radical)
    assert v == Radical(Fraction(1, 2), 2)


def test_power_log_value_encloses_float():
    f = FunctionSpec("power_log", 1, -2, -1)
    t = Fraction(100)
    v = f.value(t)
    truth = 100.0**-2 / math.log(100.0)
    assert v.lo <= Fraction(truth).limit_denominator(10**12) <= v.hi or abs(
        float(v) - truth
    ) < 1e-12


def test_power_log_domain_restriction():
    # t^{1/2} (ln t)^{-1} is monotone only past exp(2)
    f = FunctionSpec("power_log", 1, Fraction(1, 2), -1)
    assert f.t_min > 7
    with pytest.raises(DomainError):
        f.value(2)


def test_exp_family_inverse_bisection():
    f = FunctionSpec("exp", 1, Fraction(-1, 10))
    target = f.value(Fraction(5))
    inv = f.inverse_at(target)
    assert inv.lo <= 5 <= inv.hi or abs(float(inv) - 5) < 1e-9


def test_bisection_inverse_of_power_log():
    f = FunctionSpec("power_log", 1, -2, -1)
    s = f.value(Fraction(50))
    inv = f.inverse_at(s)
    assert abs(float(inv) - 50) < 1e-6


def test_inverse_of_a_wide_target_holds_every_preimage():
    # f is decreasing, so the preimage of [f(50), f(5)] is [5, 50]
    f = FunctionSpec("power_log", 1, -2, -1)
    inv = f.inverse_at(Enclosure(f.value(Fraction(50)).lo, f.value(Fraction(5)).hi))
    assert inv.lo <= 5 and 50 <= inv.hi
    assert inv.hi - inv.lo < 46
    g = FunctionSpec("exp", 2, Fraction(1, 3))
    inv = g.inverse_at(Enclosure(g.value(Fraction(1)).lo, g.value(Fraction(9)).hi))
    assert inv.lo <= 1 and 9 <= inv.hi


def test_inverse_of_a_target_outside_the_range_raises():
    # e^(t/10) >= 1 on t > 0, and t^(1/2) / ln t has its minimum e/2 at t = e^2
    with pytest.raises(DomainError):
        FunctionSpec("exp", 1, Fraction(1, 10)).inverse_at(Fraction(1, 2))
    with pytest.raises(DomainError):
        FunctionSpec("power_log", 1, Fraction(1, 2), -1).inverse_at(Fraction(1, 10))
    # decreasing: t^-2 / ln t reaches 10^7 only below t_min + 10^-6 = 1 + 10^-6,
    # where the bisection starts
    with pytest.raises(DomainError):
        FunctionSpec("power_log", 1, -2, -1).inverse_at(10**7)


def test_inverse_of_a_target_at_or_below_zero_raises():
    # every family is positive on its domain; a decreasing f only tends to 0
    for f in (FunctionSpec("power_log", 1, -2, -1), FunctionSpec("exp", 1, Fraction(-1, 10))):
        for s in (0, -1):
            with pytest.raises(DomainError):
                f.inverse_at(s)


def test_inverse_of_a_target_inside_the_range_still_inverts():
    for f, t in ((FunctionSpec("exp", 1, Fraction(1, 10)), Fraction(7)),
                 (FunctionSpec("power_log", 1, Fraction(1, 2), -1), Fraction(40))):
        inv = f.inverse_at(f.value(t))
        assert inv.lo <= t <= inv.hi and inv.hi - inv.lo < Fraction(1, 10**9)


def test_power_log_value_is_c_t_to_the_g_times_ln_t_to_the_b():
    f = FunctionSpec("power_log", Fraction(3, 2), Fraction(-1, 2), 2)
    t = Fraction(1000)
    v = f.value(t)
    lnt = Enclosure(t).ln()
    root = Enclosure(t).pow(Fraction(-1, 2))
    assert v.lo <= Fraction(3, 2) * root.hi * lnt.hi**2 and Fraction(3, 2) * root.lo * lnt.lo**2 <= v.hi
    assert (v.hi - v.lo) / v.lo < Fraction(1, 2**150)


def test_validation_errors():
    with pytest.raises(DomainError):
        FunctionSpec("power", 1, 0)
    with pytest.raises(DomainError):
        FunctionSpec("power", -1, -1)
    with pytest.raises(DomainError):
        FunctionSpec("power", 1, -1, log_exponent=1)
    with pytest.raises(DomainError):
        FunctionSpec("power_log", 1, -1, 0)
    with pytest.raises(DomainError):
        FunctionSpec("nosuch", 1, -1)


def test_describe_mentions_parameters():
    assert "t^(-2)" in power_spec(1, -2).describe()
