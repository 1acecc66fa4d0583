"""Monotone function families for approximation rates.

Three families cover everything the transference procedures consume:

* ``power``       c * t**g                 (exact: values are radicals)
* ``power_log``   c * t**g * (ln t)**b     (enclosure arithmetic)
* ``exp``         c * exp(g * t)           (enclosure arithmetic)

Each spec evaluates, inverts, and reports its monotonicity.  Power-family
values and inverses are exact ``Radical``/``Fraction`` objects so that
downstream membership tests remain decidable; the other families return
``Enclosure`` intervals and invert by bisection.
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
        # power_log: c * exp(g ln t) * exp(b ln ln t)
        lnt = et.ln()
        return (
            Enclosure(self.coeff)
            * (lnt * Enclosure(self.exponent)).exp()
            * (lnt.ln() * Enclosure(self.log_exponent)).exp()
        )

    # -- inversion ----------------------------------------------------------

    def inverse_at(self, s, lo=None, hi=None, rel_tol: Fraction = Fraction(1, 10**12)):
        """The t with f(t) = s.

        Exact for the power family.  Otherwise bisects until the bracketing
        enclosure has relative width below ``rel_tol``.
        """
        if self.family == "power":
            return exact_pow(exact_div(s, self.coeff), 1 / self.exponent)
        return self._bisect_inverse(s, lo, hi, rel_tol)

    def _bisect_inverse(self, s, lo, hi, rel_tol):
        target = Enclosure.of(s)
        lo = Fraction(lo) if lo is not None else self.t_min + Fraction(1, 10**6)
        if hi is None:
            hi = max(lo * 2, Fraction(2))
            for _ in range(20000):
                v = self.value(hi)
                if (v.lo > target.hi) == self.increasing:
                    break
                hi *= 2
            else:
                raise PrecisionExhausted("could not bracket the inverse")
        hi = Fraction(hi)
        for _ in range(20000):
            if hi - lo <= rel_tol * hi:
                break
            mid = (lo + hi) / 2
            v = self.value(mid)
            if v.lo > target.hi:
                lo, hi = (lo, mid) if self.increasing else (mid, hi)
            elif v.hi < target.lo:
                lo, hi = (mid, hi) if self.increasing else (lo, mid)
            else:
                # Value enclosure straddles the target: shrink symmetrically.
                quarter = (hi - lo) / 4
                lo, hi = lo + quarter, hi - quarter
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
