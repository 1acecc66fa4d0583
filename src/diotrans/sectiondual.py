"""Central hyperplane sections of the cube and the section-dual body.

Delta_d is the normalized diagonal section volume of the sup-norm unit
ball; it controls the improved transference constant Delta_d**(-1/(d-1)).
All volumes are handled as exact squared rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .geometry import Box, build_T
from .intervals import Enclosure
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


def _cofactor_matrix(a):
    """det(A) * A^{-T} for a square rational matrix, exact."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        if piv != c:
            m[piv], m[c] = m[c], m[piv]
            inv[piv], inv[c] = inv[c], inv[piv]
            det = -det
        det *= m[c][c]
        f = 1 / m[c][c]
        m[c] = [x * f for x in m[c]]
        inv[c] = [x * f for x in inv[c]]
        for r in range(n):
            if r != c and m[r][c]:
                g = m[r][c]
                m[r] = [x - g * y for x, y in zip(m[r], m[c])]
                inv[r] = [x - g * y for x, y in zip(inv[r], inv[c])]
    # inv is A^{-1}; cofactor = det * (A^{-1})^T
    return [[det * inv[j][i] for j in range(n)] for i in range(n)], det


def box_matrix(box: Box):
    """Rational A with box = A * B_inf^d (requires rational h, r)."""
    h, r = Fraction(box.h), Fraction(box.r)
    T, Tp = build_T(box.system)
    base = T if box.side == "primal" else Tp
    m = box.system.m
    d = box.system.d
    return [
        [base[i][j] * (r if j < m else h) for j in range(d)] for i in range(d)
    ]


CONTAINED = "in"
OUTSIDE = "out"
UNCERTAIN = "boundary-uncertain"


def section_dual_contains_matrix(a_matrix, v: Sequence) -> str:
    """Is v in (A B_inf^d)^wedge?  Exact for rational inputs.

    Decides |v|_2 <= 2^(1-d) vol_{v/|v|}(A B_inf^d) on squares, using the
    pullback w = A^T v and the cofactor-matrix volume scaling.
    """
    v = [Fraction(x) for x in v]
    d = len(v)
    if all(x == 0 for x in v):
        return CONTAINED
    w = [sum(a_matrix[i][j] * v[i] for i in range(d)) for j in range(d)]
    vol_sq = cube_section_volume_squared(w)
    cof, _ = _cofactor_matrix(a_matrix)
    cw = [sum(cof[i][j] * w[j] for j in range(d)) for i in range(d)]
    lhs = sum(x * x for x in v) * sum(x * x for x in w)
    rhs = Fraction(4) ** (1 - d) * vol_sq * sum(x * x for x in cw)
    return CONTAINED if lhs <= rhs else OUTSIDE


def section_dual_contains(box: Box, v: Sequence) -> str:
    """Three-valued M^wedge membership for a parallelepiped box.

    Enclosure bounds are decided conservatively: CONTAINED only if it holds
    for the shrunk box, OUTSIDE only if it fails for the inflated box.
    """
    if isinstance(box.h, Enclosure) or isinstance(box.r, Enclosure):
        lo = section_dual_contains_matrix(box_matrix(box.conservative()), v)
        hi = section_dual_contains_matrix(box_matrix(box.inflated()), v)
        if lo == CONTAINED:
            return CONTAINED
        if hi == OUTSIDE:
            return OUTSIDE
        return UNCERTAIN
    return section_dual_contains_matrix(box_matrix(box), v)


def cube_matrix(d: int):
    return [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]


@dataclass
class WedgeBodyReport:
    d: int
    checked: int
    passed: bool
    counterexample: tuple | None


def verify_cube_wedge_bodies(d: int, rng=None, samples: int = 40) -> WedgeBodyReport:
    """Check that (B_inf^d)^wedge contains the Delta_d cube and the
    capped-octahedron body sum|x_i| <= 2, |x_j| <= 1."""
    import random

    rng = rng or random.Random(0)
    cube = cube_matrix(d)
    delta = delta_d(d)
    points = []
    # Vertices of the Delta_d cube (sampled signs for large d).
    for _ in range(min(2**d, samples)):
        signs = [rng.choice((-1, 1)) for _ in range(d)]
        points.append(tuple(s * delta for s in signs))
    points.append(tuple([delta] * d))
    # Random boundary points of the Delta_d cube: one face coordinate pinned.
    for _ in range(samples):
        p = [delta * Fraction(rng.randint(-100, 100), 100) for _ in range(d)]
        p[rng.randrange(d)] = rng.choice((-1, 1)) * delta
        points.append(tuple(p))
    # Vertices and edge points of the capped octahedron: two coords +-1.
    for i in range(d):
        for j in range(i + 1, d):
            p = [Fraction(0)] * d
            p[i], p[j] = Fraction(1), Fraction(-1)
            points.append(tuple(p))
    # Random boundary points of the face sum |x_i| = 2, |x_i| <= 1.
    for _ in range(samples):
        u = Fraction(rng.randint(0, 100), 100)
        p = [Fraction(0)] * d
        if d >= 3:
            i, j, k = rng.sample(range(d), 3)
            p[i] = Fraction(rng.choice((-1, 1)))
            p[j] = 1 - u
            p[k] = u
        else:
            p[0], p[1] = rng.choice((-1, 1)) * Fraction(1), u
        points.append(tuple(p))
    checked = 0
    for p in points:
        checked += 1
        if section_dual_contains_matrix(cube, p) != CONTAINED:
            return WedgeBodyReport(d, checked, False, p)
    return WedgeBodyReport(d, checked, True, None)
