import random
from fractions import Fraction

import mpmath
import pytest

import diotrans.harness as harness
from diotrans.intervals import Enclosure
from diotrans.sectiondual import (
    cube_section_volume_squared,
    delta_bounds_ok,
    delta_d,
    improved_mahler_factor,
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


def test_diagonal_section_meets_the_delta_cube_check_with_equality():
    # the campaign's Delta_d-cube check 4^(d-1) Delta_d^2 |a|_2^2 <= vol2(a) |a|_inf^2
    # is an equality at a = (1, ..., 1), so no larger cube constant passes
    for d in range(2, 9):
        assert cube_section_volume_squared([1] * d) == 4 ** (d - 1) * d * delta_d(d) ** 2


def test_every_planar_normal_meets_the_delta_cube_check_with_equality():
    rng = random.Random(2)
    for _ in range(200):
        a = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(2)]
        if not any(a):
            continue
        norm2 = sum(v * v for v in a)
        sup = max(map(abs, a))
        assert 4 * delta_d(2) ** 2 * norm2 == cube_section_volume_squared(a) * sup**2


def test_two_coordinate_normal_meets_the_octahedron_check_with_equality():
    # 4^(d-1) |a|_2^2 <= vol2(a) max(|a|_1 / 2, |a|_inf)^2 at a = (1, 1, 0, ..., 0)
    for d in range(2, 9):
        assert 4 ** (d - 1) * 2 == cube_section_volume_squared([1, 1] + [0] * (d - 2))


def test_cube_sections_campaign_fails_a_larger_cube_constant(monkeypatch):
    assert harness.campaign_cube_sections(trials=200, seed=3).all_passed
    monkeypatch.setattr(harness, "delta_d", lambda d: delta_d(d) * Fraction(1001, 1000))
    result = harness.campaign_cube_sections(trials=200, seed=3)
    assert 0 < result.passed < result.trials
