import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import diotrans
from diotrans.intervals import Enclosure
from diotrans.radicals import Radical


def test_point_enclosure_arithmetic_is_exact():
    a = Enclosure(Fraction(1, 3))
    b = Enclosure(Fraction(1, 6))
    assert (a * b).lo == Fraction(1, 18) == (a * b).hi
    assert (a / b).lo == 2 == (a / b).hi


def test_interval_multiplication_hull():
    a = Enclosure(-1, 2)
    b = Enclosure(-3, 1)
    prod = a * b
    assert prod.lo == -6 and prod.hi == 3


def test_division_by_straddling_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Enclosure(1) / Enclosure(-1, 1)


def test_exp_ln_roundtrip_contains_truth():
    x = Enclosure(Fraction(3, 7))
    y = x.exp().ln()
    assert y.lo <= Fraction(3, 7) <= y.hi
    assert y.hi - y.lo < Fraction(1, 10**30)


def test_ln_of_nonpositive_raises():
    with pytest.raises(ValueError):
        Enclosure(0, 1).ln()


def test_integer_pow_is_exact():
    v = Enclosure(Fraction(2, 3)).pow(Fraction(3))
    assert v.lo == Fraction(8, 27) == v.hi


def test_fractional_pow_encloses():
    v = Enclosure(2).pow(Fraction(1, 2))
    assert v.lo < Fraction(1414214, 10**6) < v.hi or math.isclose(float(v), math.sqrt(2))
    assert abs(float(v) - math.sqrt(2)) < 1e-12


def test_radical_conversion_tight():
    e = Enclosure.of(Radical(2, 2))
    assert e.hi - e.lo < Fraction(1, 10**30)
    assert e.lo**2 < 2 < e.hi**2


@pytest.mark.parametrize("k", range(2, 8))
def test_radical_enclosure_is_strict_and_160_bits_wide_at_every_magnitude(k):
    rng = random.Random(k)
    for e10 in (-3000, -1000, -100, -7, -1, 0, 1, 7, 100, 1000, 3000):
        for _ in range(4):
            rho = Fraction(rng.randint(2, 10**12), rng.randint(1, 10**12)) * Fraction(10) ** e10
            rad = Radical(rho, k)
            if rad.index != k:  # a perfect power: Radical reduced it
                continue
            e = Enclosure.of(rad)
            assert e.lo**k < rho < e.hi**k
            assert (e.hi - e.lo) / e.lo <= Fraction(1, 2**158)


def test_radical_enclosure_of_a_reduced_index():
    # 8^(1/6) reduces to 2^(1/2); (27/8)^(1/3) to the rational 3/2
    e = Enclosure.of(Radical(8, 6))
    assert e.lo**2 < 2 < e.hi**2
    e = Enclosure.of(Radical(Fraction(27, 8), 3))
    assert e.lo == e.hi == Fraction(3, 2)


def test_radicals_leave_mpmath_unloaded_until_exp_or_ln():
    # radicals go by integer roots; only the exp and power_log families need mpmath
    src = str(Path(diotrans.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from diotrans import System, best_approx_table, get_preset\n"
        "from diotrans.functions import FunctionSpec, power_spec\n"
        "from diotrans.transfer import alphas_core, mahler_transfer, semicore, verify_certificate\n"
        "plastic = get_preset('plastic').build()\n"
        "assert verify_certificate(mahler_transfer(\n"
        "    System(1, 2, ((Fraction(1, 3), Fraction(1, 5)),)), 4, Fraction(1, 4)))[0]\n"
        "records = best_approx_table(plastic, 'primal', 5).records\n"
        "assert verify_certificate(\n"
        "    semicore(plastic, 3, records[0].psi, records[1].psi, 1, budget=10**6))[0]\n"
        "assert verify_certificate(alphas_core(plastic, power_spec(1, Fraction(-1, 2)),\n"
        "                                      power_spec(Fraction(1, 100), -2), 20))[0]\n"
        "print('mpmath' in sys.modules)\n"
        "v = FunctionSpec('exp', 3, -2).value(Fraction(1, 2))\n"
        "print('mpmath' in sys.modules, v.lo, v.hi)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert out[:2] == ["False", "True"]
    lo, hi = map(Fraction, out[2:])
    # 3 exp(-1) = 3/e, with e between two partial sums of its series
    e_below = sum(Fraction(1, math.factorial(j)) for j in range(60))
    e_above = e_below + Fraction(2, math.factorial(60))
    assert lo * e_above < 3 < hi * e_below
    assert (hi - lo) / lo < Fraction(1, 2**150)


def test_ordering_queries():
    a = Enclosure(1, 2)
    b = Enclosure(3, 4)
    assert a.surely_le(b) and a.surely_lt(b)
    assert a.lo <= b.hi and not b.surely_le(a)


def test_empty_enclosure_rejected():
    with pytest.raises(ValueError):
        Enclosure(2, 1)
