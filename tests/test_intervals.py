import hashlib
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath.ctx_iv import MPIntervalContext

import diotrans
from diotrans.intervals import DEFAULT_PREC, Enclosure
from diotrans.radicals import Radical, exact_le, exact_lt


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


def test_mpmath_is_never_loaded():
    # radicals go by integer roots and exp, ln and rational powers by integer
    # series, so no library path imports mpmath, the exp and power_log
    # families and the uniform-bounds campaign included
    src = str(Path(diotrans.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from diotrans import System, best_approx_table, get_preset\n"
        "from diotrans.functions import FunctionSpec, power_spec\n"
        "from diotrans.harness import campaign_uniform_bounds\n"
        "from diotrans.transfer import alphas_core, mahler_transfer, semicore, verify_certificate\n"
        "plastic = get_preset('plastic').build()\n"
        "assert verify_certificate(mahler_transfer(\n"
        "    System(1, 2, ((Fraction(1, 3), Fraction(1, 5)),)), 4, Fraction(1, 4)))[0]\n"
        "records = best_approx_table(plastic, 'primal', 5).records\n"
        "assert verify_certificate(\n"
        "    semicore(plastic, 3, records[0].psi, records[1].psi, 1, budget=10**6))[0]\n"
        "assert verify_certificate(alphas_core(plastic, power_spec(1, Fraction(-1, 2)),\n"
        "                                      power_spec(Fraction(1, 100), -2), 20))[0]\n"
        "f = FunctionSpec('power_log', 1, -2, -1)\n"
        "assert f.inverse_at(f.value(Fraction(50))).lo < 50\n"
        "assert campaign_uniform_bounds().all_passed\n"
        "phi = FunctionSpec('power_log', 1, Fraction(-1, 2), -1)\n"
        "assert verify_certificate(alphas_core(get_preset('plastic_dual').build(), phi,\n"
        "                                      power_spec(Fraction(1, 50), -2), 40))[0]\n"
        "v = FunctionSpec('exp', 3, -2).value(Fraction(1, 2))\n"
        "print('mpmath' in sys.modules, v.lo, v.hi)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout.split()
    assert out[0] == "False"
    lo, hi = map(Fraction, out[1:])
    # 3 exp(-1) = 3/e, with e between two partial sums of its series
    e_below = sum(Fraction(1, math.factorial(j)) for j in range(60))
    e_above = e_below + Fraction(2, math.factorial(60))
    assert lo * e_above < 3 < hi * e_below
    assert (hi - lo) / lo < Fraction(1, 2**150)


def _mp_interval(name, x, prec):
    """mpmath.iv's enclosure of exp or log at x, at prec bits, as Fractions."""
    iv = MPIntervalContext()
    iv.prec = prec
    y = getattr(iv, name)(iv.mpf(x.numerator) / iv.mpf(x.denominator))
    ends = []
    for sign, man, exp, _ in y._mpi_:
        v = Fraction(man) * Fraction(2) ** exp
        ends.append(-v if sign else v)
    return Enclosure(*ends)


def _ulp(v):
    """An upper bound of the unit in the last place of |v| at DEFAULT_PREC bits."""
    v = abs(v)
    return Fraction(2) ** (v.numerator.bit_length() - v.denominator.bit_length() + 1 - DEFAULT_PREC)


def _rationals(rng, magnitudes):
    for j in magnitudes:
        for _ in range(2):
            yield Fraction(rng.randint(2**40, 2**41), rng.randint(2**40, 2**41)) * Fraction(2) ** j


LN_ARGUMENTS = [
    *_rationals(random.Random(1), range(-200, 201, 10)),
    Fraction(1), Fraction(2), Fraction(1, 2**200), Fraction(4, 3), Fraction(2, 3),
    1 + Fraction(1, 2**100), 1 - Fraction(1, 2**90), Fraction(2**60 + 1, 2**60 - 1),
    Fraction(3**100, 2**159), Fraction(10**60 + 7, 10**20),
]
EXP_ARGUMENTS = [
    *_rationals(random.Random(2), range(-200, 21, 10)),
    *(-x for x in _rationals(random.Random(3), range(-200, 21, 10))),
    Fraction(0), Fraction(1), Fraction(-1), Fraction(10**6), Fraction(-10**6),
    Fraction(-999999, 7), Fraction(10**6 - 1, 3), Fraction(-3, 10**30),
]


@pytest.mark.parametrize("name, args", [("ln", LN_ARGUMENTS), ("exp", EXP_ARGUMENTS)])
def test_exp_and_ln_enclose_mpmath_and_are_at_most_a_few_ulps_wider(name, args):
    # each enclosure contains mpmath's at 800 bits (so the true value) and is
    # at most 4 ulps of DEFAULT_PREC wider than mpmath.iv's at DEFAULT_PREC
    for x in args:
        ours = getattr(Enclosure(x), name)()
        tight = _mp_interval(name.replace("ln", "log"), x, 800)
        assert ours.lo <= tight.lo and tight.hi <= ours.hi, x
        if tight.hi != 0:
            ref = _mp_interval(name.replace("ln", "log"), x, DEFAULT_PREC)
            assert ours.hi - ours.lo <= ref.hi - ref.lo + 4 * _ulp(tight.hi), x


def _hex(q):
    return f"{q.numerator:x}/{q.denominator:x}"


def test_exp_and_ln_endpoints_are_unchanged_by_point_and_ln2_reuse():
    # SHA-256 of every endpoint on the grids above, of point enclosures and of
    # the hulls of consecutive arguments, as computed when exp and ln
    # evaluated both ends of a point enclosure and ln 2 anew on every call
    digest = hashlib.sha256()
    for name, args in (("ln", LN_ARGUMENTS), ("exp", EXP_ARGUMENTS)):
        for x in args:
            e = getattr(Enclosure(x), name)()
            digest.update(f"{name} {_hex(x)} {_hex(e.lo)} {_hex(e.hi)}\n".encode())
        for x, y in zip(args, args[1:]):
            e = getattr(Enclosure(min(x, y), max(x, y)), name)()
            digest.update(f"{name} {_hex(x)} {_hex(y)} {_hex(e.lo)} {_hex(e.hi)}\n".encode())
    assert digest.hexdigest() == "85173821e5543098ef6d4335a048ef58abe53589c168670e9e9d16486bc86351"


def test_exp_of_ln_encloses_the_argument():
    for x in LN_ARGUMENTS:
        y = Enclosure(x).ln().exp()
        assert y.lo <= x <= y.hi, x
        assert (y.hi - y.lo) / x < Fraction(1, 2**150)


def test_exp_and_ln_of_a_wide_enclosure_take_the_hull_of_its_ends():
    e = Enclosure(Fraction(-3, 2), Fraction(5, 7))
    assert e.exp().lo == Enclosure(e.lo).exp().lo and e.exp().hi == Enclosure(e.hi).exp().hi
    e = Enclosure(Fraction(1, 9), 40)
    assert e.ln().lo == Enclosure(e.lo).ln().lo and e.ln().hi == Enclosure(e.hi).ln().hi


POW_CASES = [
    (Enclosure(2), Fraction(1, 2)),
    (Enclosure(Fraction(7, 3)), Fraction(-5, 3)),
    (Enclosure(Fraction(1, 10**40), Fraction(3, 10**40)), Fraction(2, 7)),
    (Enclosure(4, 9), Fraction(1, 2)),
    (Enclosure(Fraction(99, 100), Fraction(101, 100)), Fraction(-1, 2)),
    (Enclosure(10**50, 10**50 + 1), Fraction(11, 6)),
    (Enclosure(Fraction(1, 3), 5), Fraction(-3, 4)),
]


@pytest.mark.parametrize("base, e", POW_CASES)
def test_rational_pow_contains_the_true_power_and_is_no_wider_than_the_exp_ln_route(base, e):
    p, q = e.numerator, e.denominator
    v = base.pow(e)
    ends = [base.lo**p, base.hi**p]
    assert v.lo**q <= min(ends) and max(ends) <= v.hi**q
    # the old route: exp(e ln x) at each end by mpmath.iv, then their hull
    iv = MPIntervalContext()
    iv.prec = DEFAULT_PREC
    old = [Fraction(man) * Fraction(2) ** exp
           for x in (base.lo, base.hi)
           for _, man, exp, _ in iv.exp(iv.log(iv.mpf(x.numerator) / iv.mpf(x.denominator))
                                        * (iv.mpf(p) / q))._mpi_]
    assert v.hi - v.lo <= max(old) - min(old)


def test_rational_pow_of_a_nonpositive_enclosure_raises():
    with pytest.raises(ValueError):
        Enclosure(0, 1).pow(Fraction(1, 2))
    with pytest.raises(ValueError):
        Enclosure(-2, -1).pow(Fraction(1, 3))


def test_ordering_queries():
    a = Enclosure(1, 2)
    b = Enclosure(3, 4)
    assert exact_le(a, b) and exact_lt(a, b)
    assert a.lo <= b.hi and not exact_le(b, a) and not exact_lt(b, a)


def test_empty_enclosure_rejected():
    with pytest.raises(ValueError):
        Enclosure(2, 1)
