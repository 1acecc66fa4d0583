"""Exact positive reals of the form rho**(1/k) with rational rho.

This tiny class of algebraic numbers is closed under multiplication,
division, rational powers, and exact comparison.  It is all that is needed
to carry quantities like sqrt(2d(d-1)) or Delta_d**(-1/(d-1)) through the
transference machinery without ever rounding: two radicals are compared by
raising both to the lcm of their root indices, which lands in Q.

The exact_* functions are the one mixed-type arithmetic: they take int,
Fraction, Radical and Enclosure operands, keep rational results in Fraction,
and turn an Enclosure operand into an Enclosure result or an endpoint test.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Union

from .errors import PrecisionExhausted
from .intervals import Enclosure

Exact = Union[int, Fraction, "Radical"]


def _int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor of n**(1/k) for n >= 0, plus an exactness flag."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n, True
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**k <= n:
            lo = mid
        else:
            hi = mid
    return lo, lo**k == n


class Radical:
    """The positive real number ``radicand ** (1/index)``."""

    __slots__ = ("radicand", "index")

    def __init__(self, radicand, index: int = 1):
        radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        index = int(index)
        if index < 1:
            raise ValueError("index must be >= 1")
        # Reduce the index whenever the radicand is a perfect power.
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
        self.radicand = radicand
        self.index = index

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value: Exact) -> "Radical":
        if isinstance(value, Radical):
            return value
        return Radical(Fraction(value))

    def is_rational(self) -> bool:
        return self.index == 1

    def as_fraction(self) -> Fraction:
        if self.index != 1:
            raise ValueError(f"{self!r} is irrational")
        return self.radicand

    # -- arithmetic ----------------------------------------------------

    def __mul__(self, other) -> "Radical":
        other = Radical.of(other)
        k = lcm(self.index, other.index)
        return Radical(
            self.radicand ** (k // self.index) * other.radicand ** (k // other.index), k
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Radical":
        other = Radical.of(other)
        return self * Radical(1 / other.radicand, other.index)

    def __rtruediv__(self, other) -> "Radical":
        return Radical.of(other) / self

    def __pow__(self, exponent) -> "Radical":
        e = Fraction(exponent)
        if e == 0:
            return Radical(1)
        rad, k = self.radicand, self.index
        if e < 0:
            rad, e = 1 / rad, -e
        return Radical(rad**e.numerator, k * e.denominator)

    # -- comparison ----------------------------------------------------

    def _cmp(self, other) -> int:
        if isinstance(other, Rational) and not isinstance(other, Radical):
            other = Fraction(other)
            if other <= 0:
                return 1
            other = Radical(other)
        k = lcm(self.index, other.index)
        a = self.radicand ** (k // self.index)
        b = other.radicand ** (k // other.index)
        return (a > b) - (a < b)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (Radical, Rational)):
            return self._cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        if self.index == 1:
            return hash(self.radicand)
        return hash((self.radicand, self.index))

    # -- misc ----------------------------------------------------------

    def __float__(self) -> float:
        num, den = self.radicand.numerator, self.radicand.denominator
        # Scale each into float range; the root takes the powers of two back out.
        shift_num = max(num.bit_length() - 500, 0)
        shift_den = max(den.bit_length() - 500, 0)
        ratio = (num >> shift_num) / (den >> shift_den)
        return ratio ** (1.0 / self.index) * 2.0 ** ((shift_num - shift_den) / self.index)

    def floor(self) -> int:
        # (p/q)^(1/k) = (p q^(k-1))^(1/k) / q, and floor(y/q) = floor(floor(y)/q)
        p, q, k = self.radicand.numerator, self.radicand.denominator, self.index
        return _int_nth_root(p * q ** (k - 1), k)[0] // q

    def __repr__(self):
        if self.index == 1:
            return f"Radical({self.radicand})"
        return f"Radical({self.radicand}, {self.index})"


def _rational_if_possible(r: Radical):
    return r.as_fraction() if r.is_rational() else r


def exact_le(a, b) -> bool:
    """a <= b; with an enclosure "surely <=", so False when undecided."""
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        return Enclosure.of(a).surely_le(b)
    if isinstance(a, Radical):
        return a <= b
    if isinstance(b, Radical):
        return b >= a
    return Fraction(a) <= Fraction(b)


def exact_lt(a, b) -> bool:
    """a < b; raises PrecisionExhausted when enclosures cannot decide."""
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        a, b = Enclosure.of(a), Enclosure.of(b)
        if a.surely_lt(b):
            return True
        if b.surely_le(a):
            return False
        raise PrecisionExhausted("enclosures too wide to order")
    return not exact_le(b, a)


def exact_eq(a, b) -> bool:
    """a == b; enclosures count as equal when they overlap."""
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        a, b = Enclosure.of(a), Enclosure.of(b)
        return a.lo <= b.hi and b.lo <= a.hi
    return a == b


def exact_max(a, b):
    """The larger operand; with an enclosure the interval max [max lo, max hi]."""
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        a, b = Enclosure.of(a), Enclosure.of(b)
        return Enclosure(max(a.lo, b.lo), max(a.hi, b.hi))
    return b if exact_le(a, b) else a


def exact_min(a, b):
    return a if exact_le(a, b) else b


def exact_mul(a, b):
    """a * b; Fraction(0) if either is a rational zero, else an enclosure
    operand gives the interval product."""
    if a == 0 or b == 0:  # a Radical is positive, an Enclosure never == 0
        return Fraction(0)
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        return Enclosure.of(a) * Enclosure.of(b)
    if isinstance(a, Radical) or isinstance(b, Radical):
        return _rational_if_possible(Radical.of(a) * Radical.of(b))
    return Fraction(a) * Fraction(b)


def exact_div(a, b):
    """a / b; Fraction(0) for a rational zero over a nonzero b, else an
    enclosure gives the interval quotient (ZeroDivisionError if it holds 0)."""
    if a == 0 and b != 0:
        return Fraction(0)
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        return Enclosure.of(a) / Enclosure.of(b)
    if isinstance(a, Radical) or isinstance(b, Radical):
        return _rational_if_possible(Radical.of(a) / Radical.of(b))
    return Fraction(a) / Fraction(b)


def exact_pow(a, exponent):
    """a ** exponent for a rational exponent; an enclosure gives its power."""
    e = Fraction(exponent)
    if isinstance(a, Enclosure):
        return a.pow(e)
    if not isinstance(a, Radical) and (e.denominator == 1 or a == 0):
        return Fraction(a) ** e.numerator
    return _rational_if_possible(Radical.of(a) ** e)


def exact_floor(bound) -> int:
    """Largest integer <= bound (bound a Fraction or positive Radical)."""
    if isinstance(bound, Radical):
        return bound.floor()
    f = Fraction(bound)
    return f.numerator // f.denominator


def floor_within(bound, shift: Fraction) -> int:
    """Largest integer y with y + shift <= bound."""
    if not isinstance(bound, Radical):
        f = Fraction(bound) - shift
        return f.numerator // f.denominator
    y = int(float(bound) - float(shift))
    while exact_le(Fraction(y + 1) + shift, bound):
        y += 1
    while not exact_le(Fraction(y) + shift, bound):
        y -= 1
    return y
