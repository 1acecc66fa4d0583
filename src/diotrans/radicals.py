"""Exact positive reals of the form rho**(1/k) with rational rho.

This tiny class of algebraic numbers is closed under multiplication,
division, rational powers, and exact comparison.  It is all that is needed
to carry quantities like sqrt(2d(d-1)) or Delta_d**(-1/(d-1)) through the
transference machinery without ever rounding: two radicals are compared by
raising both to the lcm of their root indices, which lands in Q.

The exact_* functions are the one mixed-type arithmetic: they take int,
Fraction, Radical and Enclosure operands, keep rational results in Fraction,
and turn an Enclosure operand into an Enclosure result or an exact test of an end.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from numbers import Rational
from typing import Union

from .errors import PrecisionExhausted
from .intervals import Enclosure

Exact = Union[int, Fraction, "Radical"]
# rational operands, matched by exact type (so bool takes the generic path):
# exact_le, exact_mul, exact_div and exact_pow answer them without dispatch
_RATIONAL = (int, Fraction)


def _int_nth_root(n: int, k: int) -> tuple[int, bool]:
    """Floor of n**(1/k) for n >= 0, plus an exactness flag."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n, True
    if k == 2:
        root = isqrt(n)
    else:
        # Integer Newton from the power of two just above the root: by AM-GM
        # no iterate falls below the floor of the root, and every iterate
        # above it is strictly smaller than the one before.
        root = 1 << -(-n.bit_length() // k)
        while True:
            step = ((k - 1) * root + n // root ** (k - 1)) // k
            if step >= root:
                break
            root = step
    return root, root**k == n


class Radical:
    """The positive real number ``radicand ** (1/index)``."""

    __slots__ = ("radicand", "index")

    def __init__(self, radicand, index: int = 1):
        if not isinstance(radicand, Fraction):
            radicand = Fraction(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        index = int(index)
        if index < 1:
            raise ValueError("index must be >= 1")
        # Reduce the index whenever the radicand is a perfect power.  Only
        # the primes p of the index are tried: a perfect (p*s)-th power is a
        # perfect p-th power, which is taken out at p, and a root taken at a
        # later prime is a p-th power only if the radicand was one.
        rest, p = index, 2
        while rest > 1:
            if p * p > rest:
                p = rest
            if rest % p == 0:
                while rest % p == 0:
                    rest //= p
                while index % p == 0:
                    rn, exact = _int_nth_root(radicand.numerator, p)
                    if not exact:
                        break
                    rd, exact = _int_nth_root(radicand.denominator, p)
                    if not exact:
                        break
                    radicand = Fraction(rn, rd)
                    index //= p
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


def _ends(x) -> tuple:
    """(lo, hi): an Enclosure's ends, or an exact value twice."""
    return (x.lo, x.hi) if isinstance(x, Enclosure) else (x, x)


def exact_le(a, b) -> bool:
    """a <= b, exact; an Enclosure is read at its end on its side, hi on the
    left and lo on the right: "surely <=", so False when undecided."""
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return a <= b
    a, b = _ends(a)[1], _ends(b)[0]
    if isinstance(a, Radical):
        return a <= b
    if isinstance(b, Radical):
        return b >= a
    return Fraction(a) <= Fraction(b)


def exact_lt(a, b) -> bool:
    """a < b; with an Enclosure operand "surely <", read at its ends as in
    ``exact_le``, raising PrecisionExhausted when they cannot decide."""
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        (a_lo, a_hi), (b_lo, b_hi) = _ends(a), _ends(b)
        if not exact_le(b_lo, a_hi):
            return True
        if exact_le(b_hi, a_lo):
            return False
        raise PrecisionExhausted("enclosures too wide to order")
    return not exact_le(b, a)


def exact_eq(a, b) -> bool:
    """a == b; enclosures count as equal when they overlap, compared exactly."""
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        (a_lo, a_hi), (b_lo, b_hi) = _ends(a), _ends(b)
        return exact_le(a_lo, b_hi) and exact_le(b_lo, a_hi)
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
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        p = a * b
        return p if type(p) is Fraction else Fraction(p)
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
    if type(a) in _RATIONAL and type(b) in _RATIONAL:
        return Fraction(a, b)
    if a == 0 and b != 0:
        return Fraction(0)
    if isinstance(a, Enclosure) or isinstance(b, Enclosure):
        return Enclosure.of(a) / Enclosure.of(b)
    if isinstance(a, Radical) or isinstance(b, Radical):
        return _rational_if_possible(Radical.of(a) / Radical.of(b))
    return Fraction(a) / Fraction(b)


def exact_pow(a, exponent):
    """a ** exponent for a rational exponent; an enclosure gives its power."""
    if type(a) in _RATIONAL and type(exponent) is int:
        return Fraction(a) ** exponent
    e = Fraction(exponent)
    if isinstance(a, Enclosure):
        return a.pow(e)
    if not isinstance(a, Radical) and (e.denominator == 1 or a == 0):
        return Fraction(a) ** e.numerator
    return _rational_if_possible(Radical.of(a) ** e)


def _power64_bounds(n: int) -> tuple[int, int, int]:
    """(lo, hi, s) with lo * 2**s <= n**64 <= hi * 2**s, for n >= 1.

    The top 64 bits of n bound it from both sides, and the bounds are
    squared six times; after each squaring they are cut back to 64 bits,
    the low end floored and the high end ceiled.  hi / lo stays below
    1 + 2**-55, and lo == hi while the powers fit in 64 bits."""
    s = max(n.bit_length() - 64, 0)
    lo = n >> s
    hi = lo + (s > 0)
    for _ in range(6):
        hi *= hi
        k = hi.bit_length() - 64
        if k > 0:
            lo, hi, s = lo * lo >> k, -(-hi >> k), 2 * s + k
        else:  # still exact: s == 0 and lo == hi
            lo *= lo
    return lo, hi, s


def power_le(psi: Fraction, t: int, p: int) -> bool:
    """psi <= t**(-p/64), that is psi_num**64 * t**p <= psi_den**64, exact.

    psi > 0, t >= 1, p >= 0.  psi_num**64 and psi_den**64 are first bounded
    by 64-bit interval heads carried through six truncating squarings
    (``_power64_bounds``).  Those bounds, times the exact t**p, decide the
    inequality across one shift unless they straddle it, which needs
    psi**64 * t**p within a factor 1 + 2**-54 of 1; only then are the full
    64th powers compared.  No float enters."""
    n_lo, n_hi, a = _power64_bounds(psi.numerator)
    d_lo, d_hi, b = _power64_bounds(psi.denominator)
    tp = t**p
    # num**64 t**p <= den**64, with num**64 in [n_lo, n_hi] * 2**a and
    # den**64 in [d_lo, d_hi] * 2**b
    ls, rs = max(a - b, 0), max(b - a, 0)
    if (n_hi * tp) << ls <= d_lo << rs:
        return True
    if (n_lo * tp) << ls > d_hi << rs:
        return False
    return psi.numerator**64 * tp <= psi.denominator**64


def floor_within(bound) -> int:
    """Largest integer <= bound (a Fraction or positive Radical), exact at
    every magnitude."""
    if isinstance(bound, Radical):
        return bound.floor()
    f = Fraction(bound)
    return f.numerator // f.denominator
