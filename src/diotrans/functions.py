"""Monotone function families for approximation rates.

Three families cover everything the transference procedures consume:

* ``power``       c * t**g                 (exact: values are radicals)
* ``power_log``   c * t**g * (ln t)**b     (enclosure arithmetic)
* ``exp``         c * exp(g * t)           (enclosure arithmetic)

Each spec evaluates, inverts, and reports its monotonicity.  Power-family
values and inverses are exact ``Radical``/``Fraction`` objects so that
downstream membership tests remain decidable; the other families return
``Enclosure`` intervals from ``Enclosure.pow``, ``ln`` and ``exp``, and
invert by bisection: the inverse of an enclosure is the hull of the
preimages of its two ends, which holds every preimage since f is monotone.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PrecisionExhausted
from .intervals import Enclosure
from .radicals import exact_div, exact_mul, exact_pow

FAMILIES = ("power", "power_log", "exp")


@dataclass(frozen=True)
class FunctionSpec:
    """A monotone function on (t_min, +inf)."""

    family: str
    coeff: Fraction = Fraction(1)
    exponent: Fraction = Fraction(-1)
    log_exponent: Fraction = Fraction(0)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        object.__setattr__(self, "coeff", Fraction(self.coeff))
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        object.__setattr__(self, "log_exponent", Fraction(self.log_exponent))
        if self.coeff <= 0:
            raise DomainError("coefficient must be positive")
        if self.family == "power" and self.log_exponent:
            raise DomainError("power family takes no log exponent")
        if self.exponent == 0:
            raise DomainError("exponent must be nonzero for monotonicity")
        if self.family == "power_log" and self.log_exponent == 0:
            raise DomainError("power_log requires a nonzero log exponent")

    # -- basic shape ----------------------------------------------------

    @property
    def increasing(self) -> bool:
        return self.exponent > 0

    @property
    def t_min(self) -> Fraction:
        """Left end of the domain on which the function is monotone.

        For power_log the sign of g*ln(t) + b flips at ln(t) = -b/g, so the
        domain starts at a rational upper bound of exp(-b/g) when that
        threshold exceeds 1.
        """
        if self.family == "power_log":
            ratio = -self.log_exponent / self.exponent
            if ratio > 0:
                return max(Fraction(1), Enclosure(ratio).exp().hi)
            return Fraction(1)
        return Fraction(0)

    # -- evaluation -------------------------------------------------------

    def value(self, t):
        """f(t); a Radical/Fraction for the power family at exact t, else an Enclosure."""
        if self.family == "power":
            return exact_mul(self.coeff, exact_pow(t, self.exponent))
        et = Enclosure.of(t)
        if et.lo <= self.t_min:
            raise DomainError(f"t={float(et.lo)} outside domain of {self.family}")
        if self.family == "exp":
            return Enclosure(self.coeff) * (et * Enclosure(self.exponent)).exp()
        return Enclosure(self.coeff) * et.pow(self.exponent) * et.ln().pow(self.log_exponent)

    # -- inversion ----------------------------------------------------------

    def inverse_at(self, s):
        """The t with f(t) = s.

        Exact for the power family.  Otherwise f is monotone, so the
        preimage of s's enclosure lies between those of its two ends; each
        is bisected until its bracket has relative width below 10**-12.
        DomainError when an end of s lies outside f's range on
        t >= t_min + 10**-6, where the bisection starts.
        """
        if self.family == "power":
            return exact_pow(exact_div(s, self.coeff), 1 / self.exponent)
        target = Enclosure.of(s)
        brackets = [self._bisect_inverse(end) for end in {target.lo, target.hi}]
        return Enclosure(min(b.lo for b in brackets), max(b.hi for b in brackets))

    def _bisect_inverse(self, s: Fraction) -> Enclosure:
        """A bracket of the t with f(t) = s, for a rational s; DomainError
        when s <= 0 (every family is positive) or f at the starting lower
        end already lies past s."""

        def past(t):
            v = self.value(t)
            return v.lo > s if self.increasing else v.hi < s

        lo = self.t_min + Fraction(1, 10**6)
        if s <= 0 or past(lo):
            raise DomainError(
                f"target outside the range of {self.describe()} on t >= t_min + 10^-6")
        hi = max(lo * 2, Fraction(2))
        for _ in range(20000):
            if past(hi):
                break
            hi *= 2
        else:
            raise PrecisionExhausted("could not bracket the inverse")
        while hi - lo > Fraction(1, 10**12) * hi:
            mid = (lo + hi) / 2
            v = self.value(mid)
            if v.lo <= s <= v.hi:
                break  # f(mid) is enclosed too widely to tell the side of mid
            if (v.hi < s) == self.increasing:
                lo = mid
            else:
                hi = mid
        return Enclosure(lo, hi)

    # -- presentation ---------------------------------------------------------

    def describe(self) -> str:
        c, g, b = self.coeff, self.exponent, self.log_exponent
        if self.family == "power":
            return f"{c} * t^({g})"
        if self.family == "exp":
            return f"{c} * exp({g} * t)"
        return f"{c} * t^({g}) * (ln t)^({b})"


def power_spec(coeff, exponent) -> FunctionSpec:
    return FunctionSpec("power", Fraction(coeff), Fraction(exponent))
