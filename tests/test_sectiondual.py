import random
from fractions import Fraction

import mpmath
import pytest

from diotrans.geometry import Box, System
from diotrans.intervals import Enclosure
from diotrans.presets import random_rational_system
from diotrans.sectiondual import (
    box_matrix,
    cube_section_volume_squared,
    delta_bounds_ok,
    delta_d,
    improved_mahler_factor,
    section_dual_contains,
    section_dual_contains_matrix,
    verify_cube_wedge_bodies,
)


def _delta_integral(d: int) -> float:
    mpmath.mp.dps = 30
    val = (2 / mpmath.pi) * mpmath.quadosc(
        lambda t: (mpmath.sin(t) / t) ** d if t else mpmath.mpf(1),
        [0, mpmath.inf],
        period=2 * mpmath.pi,
    )
    return float(val)


def test_small_values_exact():
    assert delta_d(2) == 1
    assert delta_d(3) == Fraction(3, 4)
    assert delta_d(4) == Fraction(2, 3)


def test_matches_integral_oracle():
    for d in (2, 3, 5, 8, 12):
        assert abs(float(delta_d(d)) - _delta_integral(d)) < 1e-9


def test_sandwich_bounds_exact_on_squares():
    for d in range(2, 21):
        assert delta_bounds_ok(d)


def test_improved_factor_below_classical():
    f3 = improved_mahler_factor(3)
    e = Enclosure.of(f3)
    assert Fraction(115, 100) < e.lo and e.hi < Fraction(116, 100)
    assert f3 < 2  # d - 1 = 2


def test_improved_factor_tends_to_one():
    values = [improved_mahler_factor(d) for d in range(3, 21)]
    for v in values:
        assert 1 < v < Fraction(6, 5)


def test_rejects_small_dimension():
    with pytest.raises(ValueError):
        delta_d(1)


def test_axis_normal_section_is_a_face():
    for d in (2, 3, 5):
        normal = [0] * (d - 1) + [1]
        assert cube_section_volume_squared(normal) == Fraction(4) ** (d - 1)


def test_diagonal_section_of_cube_is_hexagon():
    # the central section of [-1,1]^3 orthogonal to (1,1,1) is a regular
    # hexagon of side sqrt(2): area 3*sqrt(3), squared 27
    assert cube_section_volume_squared((1, 1, 1)) == 27


def test_section_volume_scale_invariant():
    a = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    b = tuple(30 * v for v in a)
    assert cube_section_volume_squared(a) == cube_section_volume_squared(b)


def test_section_dual_membership():
    system = System(1, 1, ((Fraction(1, 2),),))
    box = Box(system, 1, 1, "primal")
    assert section_dual_contains(box, (Fraction(0), Fraction(0))) == "in"
    assert section_dual_contains(box, (Fraction(100), Fraction(100))) == "out"


def test_cube_wedge_bodies_report():
    report = verify_cube_wedge_bodies(3, samples=15)
    assert report.passed and report.counterexample is None


def _cofactor_matrix(a):
    """det(A) * A^(-T) by Gauss-Jordan elimination: the reference formula."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c])
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
    return [[det * inv[j][i] for j in range(n)] for i in range(n)]


def _contains_by_cofactors(a, v):
    """|v|^2 |w|^2 <= 4^(1-d) vol^2(w) |cof(A) w|^2 with w = A^T v."""
    d = len(v)
    w = [sum(a[i][j] * v[i] for i in range(d)) for j in range(d)]
    cof = _cofactor_matrix(a)
    cw = [sum(cof[i][j] * w[j] for j in range(d)) for i in range(d)]
    lhs = sum(x * x for x in v) * sum(x * x for x in w)
    rhs = Fraction(4) ** (1 - d) * cube_section_volume_squared(w) * sum(x * x for x in cw)
    return "in" if lhs <= rhs else "out"


def test_section_dual_matrix_test_matches_cofactor_formula():
    rng = random.Random(8)
    outcomes = []
    for trial in range(240):
        d = 2 + trial % 4
        n = rng.randint(1, d - 1)
        system = random_rational_system(rng, n, d - n, max_den=9)
        h = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        r = Fraction(rng.randint(1, 40), rng.randint(1, 12))
        a = box_matrix(Box(system, h, r, ("primal", "dual")[trial % 2]))
        scale = Fraction(2) ** rng.randint(-6, 6)
        v = [scale * Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
        if not any(v):
            continue
        got = section_dual_contains_matrix(a, v)
        assert got == _contains_by_cofactors(a, v), (a, v)
        outcomes.append(got)
    assert len(outcomes) >= 200
    assert outcomes.count("in") >= 20 and outcomes.count("out") >= 20


def test_section_dual_errors():
    system = System(1, 1, ((Fraction(1, 2),),))
    with pytest.raises(ValueError, match="singular"):
        section_dual_contains(Box(system, 0, 1, "primal"), (Fraction(1), Fraction(0)))
    with pytest.raises(ValueError, match="nonzero"):
        section_dual_contains_matrix([[1, 2], [2, 4]], (2, -1))
