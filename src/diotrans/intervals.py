"""Directed-rounding enclosures backed by mpmath's interval arithmetic.

Rational operands stay exact; transcendental steps (exp, ln, real powers)
go through ``mpmath.iv`` at the working precision DEFAULT_PREC and come back
as pairs of Fractions with outward rounding preserved.  ``Enclosure.of``
takes a higher precision for the callers that refine a radical's bounds.
"""
from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction

import mpmath


@contextmanager
def _iv_prec(prec: int):
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        yield
    finally:
        mpmath.iv.prec = old

DEFAULT_PREC = 160  # bits


def _mpf_to_fraction(t) -> Fraction:
    sign, man, exp, _ = t
    f = Fraction(int(man)) * Fraction(2) ** exp
    return -f if sign else f


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
    def of(value, prec: int = DEFAULT_PREC) -> "Enclosure":
        from .radicals import Radical  # deferred: radicals imports this module
        if isinstance(value, Enclosure):
            return value
        if isinstance(value, Radical):
            return Enclosure._root(value.radicand, value.index, prec)
        return Enclosure(Fraction(value))

    @staticmethod
    def _root(rho: Fraction, k: int, prec: int) -> "Enclosure":
        if k == 1:
            return Enclosure(rho)
        with _iv_prec(prec):
            x = mpmath.iv.mpf(rho.numerator) / mpmath.iv.mpf(rho.denominator)
            y = mpmath.iv.exp(mpmath.iv.log(x) / k)
        lo, hi = (_mpf_to_fraction(t) for t in y._mpi_)
        return Enclosure(max(lo, Fraction(0)), hi)

    # -- exact arithmetic ----------------------------------------------

    def __add__(self, other):
        other = Enclosure.of(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-Enclosure.of(other))

    def __rsub__(self, other):
        return Enclosure.of(other) + (-self)

    def __mul__(self, other):
        other = Enclosure.of(other)
        prods = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Enclosure(min(prods), max(prods))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Enclosure.of(other)
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("enclosure straddles zero")
        inv = Enclosure(1 / other.hi, 1 / other.lo)
        return self * inv

    def __rtruediv__(self, other):
        return Enclosure.of(other) / self

    # -- transcendental steps -------------------------------------------

    def _via_iv(self, fn) -> "Enclosure":
        # exp and log are monotone, so the hull of the two endpoint images
        # encloses the image of the whole interval.
        with _iv_prec(DEFAULT_PREC):
            lo = fn(mpmath.iv.mpf(self.lo.numerator) / mpmath.iv.mpf(self.lo.denominator))
            hi = fn(mpmath.iv.mpf(self.hi.numerator) / mpmath.iv.mpf(self.hi.denominator))
        ends = [_mpf_to_fraction(t) for y in (lo, hi) for t in y._mpi_]
        return Enclosure(min(ends), max(ends))

    def exp(self) -> "Enclosure":
        return self._via_iv(mpmath.iv.exp)

    def ln(self) -> "Enclosure":
        if self.lo <= 0:
            raise ValueError("log of non-positive enclosure")
        return self._via_iv(mpmath.iv.log)

    def pow(self, exponent: Fraction) -> "Enclosure":
        e = Fraction(exponent)
        if e.denominator == 1:
            n = e.numerator
            if n >= 0:
                out = Enclosure(1)
                for _ in range(n):
                    out = out * self
                return out
            return 1 / self.pow(-e)
        return (self.ln() * Enclosure(e)).exp()

    # -- queries ----------------------------------------------------------

    def surely_le(self, other) -> bool:
        other = Enclosure.of(other)
        return self.hi <= other.lo

    def surely_lt(self, other) -> bool:
        other = Enclosure.of(other)
        return self.hi < other.lo

    def possibly_le(self, other) -> bool:
        other = Enclosure.of(other)
        return self.lo <= other.hi

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self):
        return float(self.midpoint())

    def __contains__(self, value) -> bool:
        v = Fraction(value)
        return self.lo <= v <= self.hi

    def __repr__(self):
        return f"Enclosure({float(self.lo)!r}, {float(self.hi)!r})"
