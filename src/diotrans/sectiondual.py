"""Central hyperplane sections of the cube.

Delta_d is the normalized diagonal section volume of the sup-norm unit
ball; it controls the improved transference constant Delta_d**(-1/(d-1)).
All volumes are handled as exact squared rationals.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .radicals import Radical


def delta_d(d: int) -> Fraction:
    """Exact Delta_d via the central slice (Eulerian) alternating sum.

    Equals the density at d/2 of a sum of d independent Uniform(0,1)
    variables: (1/(d-1)!) * sum_k (-1)^k C(d,k) (d/2 - k)^(d-1).
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    total = Fraction(0)
    for k in range(d // 2 + 1):
        s = Fraction(d, 2) - k
        if s <= 0:
            continue
        total += (-1) ** k * comb(d, k) * s ** (d - 1)
    return total / factorial(d - 1)


def delta_bounds_ok(d: int) -> bool:
    """1/d <= Delta_d^2 <= 2/d, the Vaaler/Ball sandwich, exact on squares."""
    v = delta_d(d) ** 2
    return Fraction(1, d) <= v <= Fraction(2, d)


def improved_mahler_factor(d: int) -> Radical:
    """Delta_d**(-1/(d-1)), the replacement for Mahler's d-1."""
    return Radical(1 / delta_d(d)) ** Fraction(1, d - 1)


def cube_section_volume_squared(normal: Sequence) -> Fraction:
    """Squared (d-1)-volume of the central section of [-1,1]^d orthogonal
    to a rational normal vector.

    Uses the exact box-spline slice formula: with all a_i > 0,
      vol = |a|_2 * sum_eps sign(eps) (sum eps_i a_i)_+^(d'-1)
            / ((d'-1)! * prod a_i),
    zero coordinates factor out as full cube directions.
    """
    a = [abs(Fraction(v)) for v in normal]
    d = len(a)
    nz = [v for v in a if v != 0]
    dp = len(nz)
    if dp == 0:
        raise ValueError("normal must be nonzero")
    norm_sq = sum(v * v for v in nz)
    total = Fraction(0)
    for mask in range(1 << dp):
        s = Fraction(0)
        sign = 1
        for i in range(dp):
            if mask >> i & 1:
                s += nz[i]
            else:
                s -= nz[i]
                sign = -sign
        if s > 0:
            total += sign * s ** (dp - 1)
        elif s == 0 and dp == 1:
            total += sign
    prod = Fraction(1)
    for v in nz:
        prod *= v
    vol_over_norm = total / (factorial(dp - 1) * prod)
    return norm_sq * vol_over_norm**2 * Fraction(4) ** (d - dp)

