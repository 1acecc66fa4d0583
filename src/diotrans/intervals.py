"""Closed intervals with exact rational endpoints.

Rational operands stay exact.  Every other value is enclosed by the
library's own integer arithmetic at DEFAULT_PREC significant bits, rounded
outward:

* a radical rho**(1/k) becomes its floor and ceiling, by one integer k-th
  root, and a rational power of a positive enclosure the interval between
  its endpoints' powers;
* ln and exp become fixed-point series whose truncation and rounding errors
  are bounded in integers: ln x = k ln 2 + 2 atanh((x'-1)/(x'+1)) with
  x' = x/2**k in [2/3, 4/3) and ln 2 = 2 atanh(1/3); exp x = 2**k exp(r)
  with r = x - k ln 2 in [0, ln 2) by Taylor.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

DEFAULT_PREC = 160  # bits
_GUARD = 24  # bits the series carry above DEFAULT_PREC; their error bounds take 12


def _rounded(a: int, err: int, e: int) -> "Enclosure":
    """[(a - err) 2**e, (a + err) 2**e] rounded outward to DEFAULT_PREC
    significant bits."""
    drop = max(a.bit_length() - DEFAULT_PREC, 0)
    scale = Fraction(2) ** (e + drop)
    return Enclosure(((a - err) >> drop) * scale, -(-(a + err) >> drop) * scale)


def _atanh(u: int, v: int, f: int) -> tuple[int, int]:
    """(a, err) with |a - atanh(u/v) 2**f| <= err, for v > 0 and |u| <= v/3.

    The series sum of y**(2j+1)/(2j+1) runs in f-bit fixed point on |y|, so
    every power is floored toward 0 and the last one is 0.  Each power is
    within 3/2 of the truth, each term within 5/2, and the tail after the
    first zero power is below 2."""
    power = (abs(u) << f) // v
    square = (u * u << f) // (v * v)
    total = j = 0
    while power:
        total += power // (2 * j + 1)
        power = power * square >> f
        j += 1
    return (total if u >= 0 else -total), 3 * j + 2


@lru_cache(maxsize=64)
def _half_ln2(f: int) -> tuple[int, int]:
    """_atanh(1, 3, f): ln 2 / 2 in f-bit fixed point, computed once per f."""
    return _atanh(1, 3, f)


def _ln(x: Fraction) -> "Enclosure":
    """ln x for a rational x > 0."""
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    num, den = (p, q << k) if k >= 0 else (p << -k, q)  # x / 2**k in (1/2, 2)
    if 3 * num >= 4 * den:
        k, den = k + 1, 2 * den
    elif 3 * num < 2 * den:
        k, num = k - 1, 2 * num
    # x' = num/den is in [2/3, 4/3), so y = (x'-1)/(x'+1) is in [-1/5, 1/7) and
    # |ln x| is at least |2y| for k = 0 and 1/4 otherwise: f keeps the error
    # below 2**-(DEFAULT_PREC + 12) of it.
    u, v = num - den, num + den
    extra = v.bit_length() - u.bit_length() if u else 0
    f = DEFAULT_PREC + _GUARD + abs(k).bit_length() + extra
    half_ln2, half_ln2_err = _half_ln2(f)
    t, t_err = _atanh(u, v, f)
    return _rounded(2 * (k * half_ln2 + t), 2 * (abs(k) * half_ln2_err + t_err), -f)


def _exp(x: Fraction) -> "Enclosure":
    """exp x for a rational x."""
    # f grows with |x|: r below carries |k| <= 1.45 |x| + 2 times the error of ln 2
    f = DEFAULT_PREC + _GUARD + (abs(x.numerator) // x.denominator).bit_length() + 1
    half_ln2, half_ln2_err = _half_ln2(f)
    ln2 = 2 * half_ln2
    xf = (x.numerator << f) // x.denominator
    k = xf // ln2
    r = xf - k * ln2  # in [0, ln2): r 2**-f is x - k ln 2 within r_err 2**-f
    r_err = 1 + 2 * abs(k) * half_ln2_err
    # Taylor in f-bit fixed point: each term is within 4 of r**j/j! 2**f, the
    # tail after the first zero term is below 8, and exp' < 3 on [0, ln 2].
    total, term, j = 0, 1 << f, 0
    while term:
        total += term
        j += 1
        term = (term * r >> f) // j
    return _rounded(total, 4 * j + 8 + 3 * r_err, k - f)


class Enclosure:
    """A closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("empty enclosure")

    @staticmethod
    def of(value) -> "Enclosure":
        from .radicals import Radical, _int_nth_root  # deferred: radicals imports this module
        if isinstance(value, Enclosure):
            return value
        if not isinstance(value, Radical):
            return Enclosure(Fraction(value))
        p, q, k = value.radicand.numerator, value.radicand.denominator, value.index
        if k == 1:
            return Enclosure(value.radicand)
        # n = floor(v * 2^s) keeps about DEFAULT_PREC bits of v = (p/q)^(1/k);
        # v is irrational once Radical has reduced it, so lo < v < hi.
        s = DEFAULT_PREC - (p.bit_length() - q.bit_length()) // k
        if s >= 0:
            n = _int_nth_root((p << s * k) // q, k)[0]
            return Enclosure(Fraction(n, 1 << s), Fraction(n + 1, 1 << s))
        n = _int_nth_root(p // (q << -s * k), k)[0]
        return Enclosure(n << -s, (n + 1) << -s)

    # -- exact arithmetic ----------------------------------------------

    def __mul__(self, other):
        other = Enclosure.of(other)
        prods = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Enclosure(min(prods), max(prods))

    def __truediv__(self, other):
        other = Enclosure.of(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("enclosure straddles zero")
        inv = Enclosure(1 / other.hi, 1 / other.lo)
        return self * inv

    def __rtruediv__(self, other):
        return Enclosure.of(other) / self

    # -- transcendental steps -------------------------------------------

    # exp and ln are increasing, so each endpoint's image bounds the image;
    # a point enclosure is its one endpoint's image.

    def exp(self) -> "Enclosure":
        if self.lo == self.hi:
            return _exp(self.lo)
        return Enclosure(_exp(self.lo).lo, _exp(self.hi).hi)

    def ln(self) -> "Enclosure":
        if self.lo <= 0:
            raise ValueError("log of non-positive enclosure")
        if self.lo == self.hi:
            return _ln(self.lo)
        return Enclosure(_ln(self.lo).lo, _ln(self.hi).hi)

    def pow(self, exponent: Fraction) -> "Enclosure":
        """self**(p/q) for a positive enclosure: the lower end of one
        endpoint's power and the upper end of the other's, each enclosed by
        one integer q-th root."""
        from .radicals import Radical  # deferred: radicals imports this module

        if self.lo <= 0:
            raise ValueError("power of a non-positive enclosure")
        e = Fraction(exponent)
        lo, hi = (self.lo, self.hi) if e >= 0 else (self.hi, self.lo)
        return Enclosure(Enclosure.of(Radical(lo**e.numerator, e.denominator)).lo,
                         Enclosure.of(Radical(hi**e.numerator, e.denominator)).hi)

    # -- queries ----------------------------------------------------------

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self):
        return float(self.midpoint())

    def __repr__(self):
        return f"Enclosure({float(self.lo)!r}, {float(self.hi)!r})"
