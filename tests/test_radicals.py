import random
import signal
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from diotrans.errors import PrecisionExhausted
from diotrans.intervals import Enclosure
from diotrans.radicals import (
    Radical,
    exact_div,
    exact_eq,
    exact_le,
    exact_lt,
    exact_max,
    exact_min,
    exact_mul,
    exact_pow,
    floor_within,
    power_le,
    _int_nth_root,
    _power64_bounds,
    _rational_if_possible,
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
    assert floor_within(s) == 1
    assert floor_within(Fraction(7, 2)) == 3


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


# The generic dispatch of exact_le, exact_mul, exact_div and exact_pow, as it
# stands without their rational short-circuit: the reference for that path.
def _generic_le(a, b):
    a = a.hi if isinstance(a, Enclosure) else a
    b = b.lo if isinstance(b, Enclosure) else b
    if isinstance(a, Radical):
        return a <= b
    if isinstance(b, Radical):
        return b >= a
    return Fraction(a) <= Fraction(b)


def _generic_mul(a, b):
    if a == 0 or b == 0:
        return Fraction(0)
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        return Enclosure.of(a) * Enclosure.of(b)
    if isinstance(a, Radical) or isinstance(b, Radical):
        return _rational_if_possible(Radical.of(a) * Radical.of(b))
    return Fraction(a) * Fraction(b)


def _generic_div(a, b):
    if a == 0 and b != 0:
        return Fraction(0)
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        return Enclosure.of(a) / Enclosure.of(b)
    if isinstance(a, Radical) or isinstance(b, Radical):
        return _rational_if_possible(Radical.of(a) / Radical.of(b))
    return Fraction(a) / Fraction(b)


def _generic_pow(a, exponent):
    e = Fraction(exponent)
    if isinstance(a, Enclosure):
        return a.pow(e)
    if not isinstance(a, Radical) and (e.denominator == 1 or a == 0):
        return Fraction(a) ** e.numerator
    return _rational_if_possible(Radical.of(a) ** e)


def _outcome(f, *args):
    """(type, value) of f's result, or the class of the exception it raises."""
    try:
        out = f(*args)
    except (ValueError, ZeroDivisionError, PrecisionExhausted) as exc:
        return type(exc)
    return type(out), (out.lo, out.hi) if isinstance(out, Enclosure) else out


_small = st.integers(-40, 40)
_operands = st.one_of(
    _small, st.just(0), st.just(Fraction(0)), st.booleans(),
    st.builds(Fraction, _small, st.integers(1, 40)),
    st.builds(Radical, st.builds(Fraction, st.integers(1, 40), st.integers(1, 40)),
              st.integers(1, 4)),
    st.builds(lambda lo, w: Enclosure(lo, lo + w),
              st.builds(Fraction, _small, st.integers(1, 9)), st.fractions(0, 3)),
)


@given(_operands, _operands, st.one_of(st.integers(-3, 3), st.booleans(),
                                       st.fractions(-3, 3, max_denominator=4)))
def test_exact_ops_equal_their_generic_dispatch(a, b, exponent):
    # same result type and value (or the same exception) on every operand
    # kind, so the int and Fraction short-circuit changes nothing
    for exact, generic in ((exact_le, _generic_le), (exact_mul, _generic_mul),
                           (exact_div, _generic_div)):
        assert _outcome(exact, a, b) == _outcome(generic, a, b), (exact, a, b)
    assert _outcome(exact_pow, a, exponent) == _outcome(_generic_pow, a, exponent)


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


def test_enclosure_ends_meet_a_radical_exactly():
    # q and p lie within 2^-200 above and below sqrt(2), closer than its
    # 160-bit enclosure can tell; an enclosure's end is compared exactly
    p = Fraction(isqrt(2 * 4**200), 2**200)
    q = p + Fraction(1, 2**200)
    assert p * p < 2 < q * q
    above, below = Enclosure(q, q + 1), Enclosure(p - 1, p)
    assert exact_le(SQRT2, above) and exact_lt(SQRT2, above)
    assert exact_le(below, SQRT2) and exact_lt(below, SQRT2)
    assert not exact_le(above, SQRT2) and not exact_lt(SQRT2, below)
    assert not exact_eq(SQRT2, above) and not exact_eq(below, SQRT2)
    assert exact_eq(Enclosure(p, q), SQRT2)


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


@contextmanager
def _time_limit(seconds):
    """Raise TimeoutError in the body once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"took longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_floor_within_huge_radicand_is_one_root():
    # the cube root is about 2^233, far past the 53 bits of a float guess
    bound = Radical(Fraction(2**700 + 1, 3), 3)
    with _time_limit(1):
        y = floor_within(bound)
    assert y == bound.floor()
    assert exact_le(Fraction(y), bound)
    assert exact_lt(bound, Fraction(y + 1))


@given(
    num=st.integers(1, 10**6),
    den=st.integers(1, 10**6),
    scale=st.sampled_from([-700, -300, -60, 0, 60, 300, 700]),
    index=st.sampled_from([1, 2, 3, 5]),
)
def test_floor_within_brackets_the_bound(num, den, scale, index):
    bound = Radical(Fraction(num, den) * Fraction(2) ** scale, index)
    if bound.is_rational():
        bound = bound.as_fraction()
    y = floor_within(bound)
    assert exact_le(Fraction(y), bound)
    assert exact_lt(bound, Fraction(y + 1))


def _root_cases(k):
    """0 and 1, small n, exact k-th powers with their neighbours, and seeded
    random n of up to 10**4 bits."""
    rng = random.Random(k)
    yield from range(0, 300)
    for bits in (1, 2, 8, 53, 64, 200, 1000, 4000, 10**4):
        root = rng.getrandbits(max(bits // k, 1)) | 1
        yield from (root**k - 1, root**k, root**k + 1, 2**bits - 1, 2**bits, 2**bits + 1)
        for _ in range(5):
            yield rng.getrandbits(bits)


@pytest.mark.parametrize("k", range(2, 8))
def test_int_nth_root_brackets_the_root(k):
    for n in _root_cases(k):
        root, exact = _int_nth_root(n, k)
        assert root**k <= n < (root + 1) ** k, (n, k)
        assert exact == (root**k == n)


def test_huge_radicand_normalises_in_one_root():
    # a 60 000-bit radicand: a root found one bit at a time takes seconds
    big = 3 * 2**60000 + 1
    with _time_limit(1):
        s = Radical(big, 2)
        square = Radical(big**2, 2)
        cube = Radical(Fraction(big, 7), 3)
        floors = (s.floor(), cube.floor())
    assert (s.radicand, s.index) == (big, 2)
    assert square.is_rational() and square.as_fraction() == big
    assert cube.index == 3
    assert floors[0] ** 2 <= big < (floors[0] + 1) ** 2
    assert 7 * floors[1] ** 3 <= big < 7 * (floors[1] + 1) ** 3


def _normalised_by_every_p(radicand, index):
    """The index reduction that tries every p = 2..index, composites
    included, and takes both integer roots before testing either."""
    radicand = Fraction(radicand)
    p = 2
    while p <= index:
        while index % p == 0:
            rn, okn = _int_nth_root(radicand.numerator, p)
            rd, okd = _int_nth_root(radicand.denominator, p)
            if okn and okd:
                radicand = Fraction(rn, rd)
                index //= p
            else:
                break
        p += 1
    return radicand, index


@pytest.mark.parametrize("k", range(1, 13))
def test_normalisation_on_prime_indices_matches_every_p(k):
    # perfect k-th powers u^k / v^k and their near misses, at every index
    # 1..24, so composite and repeated prime factors meet powers of each order
    rng = random.Random(k)
    for _ in range(12):
        u, v = rng.randint(1, 10**6), rng.randint(1, 10**6)
        cases = (Fraction(u**k, v**k), Fraction(u**k + 1, v**k), Fraction(u**k, v**k + 1),
                 Fraction(2**k * 3 ** (2 * k), 5**k), u**k)
        for radicand in cases:
            for index in range(1, 25):
                r = Radical(radicand, index)
                assert (r.radicand, r.index) == _normalised_by_every_p(radicand, index)


def _head_verdict(psi, t, p):
    """What the top 64 bits of psi's numerator and denominator alone say of
    psi**64 * t**p <= 1: True, False, or None when their bounds straddle it."""

    def bounds(n):
        s = max(n.bit_length() - 64, 0)
        return (n >> s) << s, ((n >> s) + (s > 0)) << s

    (n_lo, n_hi), (d_lo, d_hi) = bounds(psi.numerator), bounds(psi.denominator)
    if n_hi**64 * t**p <= d_lo**64:
        return True
    if n_lo**64 * t**p > d_hi**64:
        return False
    return None


def _power_le_cases():
    """Exact ties, near-ties and clear cases with 400- to 10 000-bit psi,
    t up to 10**12 and p up to 3200."""
    # ties psi = 2^-a, t = 2^b with 64a = pb, and their neighbours
    for a, b, p in ((2, 2, 64), (10, 40, 16), (400, 8, 3200), (625, 25, 1600), (2000, 40, 3200)):
        yield Fraction(1, 2**a), 2**b, p
        for k in (1, 400):
            yield Fraction(2**k - 1, 2 ** (a + k)), 2**b, p
            yield Fraction(2**k + 1, 2 ** (a + k)), 2**b, p
    # ties psi = t^-k, p = 64k, with t = 10^12: the heads of t^k are inexact
    t = 10**12
    for k in (1, 7, 50):
        for den in (t**k - 1, t**k, t**k + 1):
            yield Fraction(1, den), t, 64 * k
    # near-ties, moved by 1, by a 2^-80 share (the heads straddle) and by a
    # 2^-30 share (the heads decide)
    def moves(num):
        return (num, num + 1, num - (num >> 80), num + (num >> 80) + 1,
                num - (num >> 30), num + (num >> 30) + 1)

    rng = random.Random(19)
    for bits in (400, 1000, 2000):
        # psi = floor(2^E t^(-p/64)) / 2^E, and the same over a random den
        for den in (2**bits, rng.getrandbits(bits) | 1 << (bits - 1)):
            t = rng.choice([3, rng.randint(2, 10**6), rng.randint(2, 10**12)])
            p = rng.randint(0, min(3200, 64 * (bits - 1) // t.bit_length()))
            num = _int_nth_root(den**64 // t**p, 64)[0]
            yield from ((Fraction(moved, den), t, p) for moved in moves(num))
    for bits in (400, 2000, 10**4):
        # p = 64k: psi <= t^-k reads num * t^k <= den
        for _ in range(2):
            num = rng.getrandbits(bits) | 1 << (bits - 1)
            t, k = rng.randint(2, 10**12), rng.randint(0, 50)
            yield from ((Fraction(num, den), t, 64 * k) for den in moves(num * t**k))
    yield Fraction(2**10**4 + 1, 3), 10**12, 3200  # psi > 1


def test_power_le_matches_the_full_powers_at_every_magnitude():
    verdicts = Counter()
    for psi, t, p in _power_le_cases():
        assert power_le(psi, t, p) == (psi.numerator**64 * t**p <= psi.denominator**64), (psi, t, p)
        verdicts[_head_verdict(psi, t, p)] += 1
    # both head verdicts and the exact comparison are reached
    assert verdicts[True] > 10 and verdicts[False] > 10 and verdicts[None] > 10


@given(
    num=st.integers(1, 2**64 - 1),
    den=st.integers(1, 2**64 - 1),
    t=st.integers(1, 10**12),
    p=st.integers(0, 3200),
)
def test_power_le_heads_are_exact_below_2_to_the_64(num, den, t, p):
    psi = Fraction(num, den)
    assert _head_verdict(psi, t, p) is not None
    assert power_le(psi, t, p) == (psi.numerator**64 * t**p <= psi.denominator**64)


def _bits(draw, most=10**4):
    # one of a spread of sizes from 1 bit to `most`, each as likely
    sizes = (1, 2, 10, 32, 63, 64, 65, 100, 400, 1000, 4000, 10**4)
    return min(most, draw(st.sampled_from(sizes)) + draw(st.integers(0, 3)))


def _odd_or_power_of_two(draw, bits, odd):
    # a number of exactly `bits` bits: odd, or 2**(bits - 1)
    return draw(st.integers(0, 2 ** (bits - 1) - 1)) | 2 ** (bits - 1) | 1 if odd else 2 ** (bits - 1)


@st.composite
def _power_le_triples(draw):
    """A batch of (psi, t, p), psi of 1 to 10**4 bits over a 2**k or an odd
    denominator, t <= 10**12, p <= 3200: a random psi, or an exact tie
    psi = c / (c N) with N = t**(p/64) and its four +-1 neighbours."""
    p = draw(st.integers(0, 3200))
    odd = draw(st.booleans())
    if draw(st.booleans()):
        t = draw(st.integers(1, 10**12))
        nbits, dbits = _bits(draw), _bits(draw)
        num = draw(st.integers(1, 2**nbits - 1))
        den = _odd_or_power_of_two(draw, dbits, odd)
        return [(Fraction(num, den), t, p)]
    # t = u**g with g = 64 / gcd(p, 64), so that t**(p/64) = u**(g p / 64) is an integer
    g = 64 // gcd(p, 64)
    if odd:
        u = 2 * draw(st.integers(0, (_int_nth_root(10**12, g)[0] - 1) // 2)) + 1
    else:
        u = 2 ** draw(st.integers(0, 39 // g))
    t, big_n = u**g, u ** (g * p // 64)
    cbits = _bits(draw, max(1, 10**4 - big_n.bit_length()))
    c = _odd_or_power_of_two(draw, cbits, odd)
    triples = [(Fraction(c, c * big_n), t, p), (Fraction(c + 1, c * big_n), t, p),
               (Fraction(c, c * big_n + 1), t, p)]
    if c > 1:
        triples.append((Fraction(c - 1, c * big_n), t, p))
    if c * big_n > 1:
        triples.append((Fraction(c, c * big_n - 1), t, p))
    return triples


def test_power_le_squared_heads_decide_or_fall_back_exactly():
    # psi_num**64 and psi_den**64 are bounded by squared 64-bit heads; the
    # bounds decide when they do not straddle the inequality, and the full
    # powers decide the rest.  Every path is reached.
    paths = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_power_le_triples())
    def check(triples):
        for psi, t, p in triples:
            tp = t**p
            full = [n**64 for n in (psi.numerator, psi.denominator)]
            bounds = []
            for n, power in zip((psi.numerator, psi.denominator), full):
                lo, hi, s = _power64_bounds(n)
                assert lo << s <= power <= hi << s and hi.bit_length() <= 65
                assert (hi - lo) << 55 < lo  # hi / lo < 1 + 2**-55
                bounds.append((lo << s, hi << s))
            (n_lo, n_hi), (d_lo, d_hi) = bounds
            expected = full[0] * tp <= full[1]
            assert power_le(psi, t, p) == expected, (psi, t, p)
            fast = True if n_hi * tp <= d_lo else False if n_lo * tp > d_hi else None
            assert fast in (None, expected)
            paths[fast] += 1

    check()
    assert paths[True] > 10 and paths[False] > 10 and paths[None] > 10, paths
