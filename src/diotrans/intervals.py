"""Closed intervals with exact rational endpoints.

Rational operands stay exact.  A radical rho**(1/k) becomes its 160-bit
floor and ceiling, computed with one integer k-th root.  Only the truly
transcendental steps (exp and ln, hence real powers) use ``mpmath.iv``, at
the working precision DEFAULT_PREC, and come back as pairs of Fractions with
outward rounding preserved; mpmath is imported on the first such step.
"""
from __future__ import annotations

from fractions import Fraction

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

    def _via_iv(self, name: str) -> "Enclosure":
        import mpmath  # deferred: exp and ln are its only use

        iv = mpmath.iv
        fn = getattr(iv, name)
        old, iv.prec = iv.prec, DEFAULT_PREC
        try:
            # exp and log are monotone, so the hull of the two endpoint images
            # encloses the image of the whole interval.
            ys = [fn(iv.mpf(x.numerator) / iv.mpf(x.denominator)) for x in (self.lo, self.hi)]
        finally:
            iv.prec = old
        ends = [_mpf_to_fraction(t) for y in ys for t in y._mpi_]
        return Enclosure(min(ends), max(ends))

    def exp(self) -> "Enclosure":
        return self._via_iv("exp")

    def ln(self) -> "Enclosure":
        if self.lo <= 0:
            raise ValueError("log of non-positive enclosure")
        return self._via_iv("log")

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

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self):
        return float(self.midpoint())

    def __repr__(self):
        return f"Enclosure({float(self.lo)!r}, {float(self.hi)!r})"
