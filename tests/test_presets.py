from fractions import Fraction

import pytest

from diotrans.presets import (
    PRECISION_BITS,
    _grid_root,
    _is_irreducible_cubic,
    cubic_pair_system,
    get_preset,
)


def _bisected_root(a, b, hi):
    """The root of x^3 = a*x + b in [1, hi] by PRECISION_BITS steps of exact
    Fraction bisection: the reference ``_grid_root`` equals bit for bit."""
    lo, hi = Fraction(1), Fraction(hi)
    for _ in range(PRECISION_BITS):
        mid = (lo + hi) / 2
        if mid**3 - a * mid - b <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def test_plastic_snapshots_equal_the_bisection():
    th = _bisected_root(1, 1, 2)
    assert _grid_root(1, 1, 1) == th
    row = [th - 1, th * th - 1]
    assert get_preset("plastic").build().theta == (tuple(row),)
    assert get_preset("plastic_dual").build().theta == tuple((v,) for v in row)


@pytest.mark.parametrize("a", range(1, 12))
def test_cubic_snapshots_equal_the_bisection(a):
    # for a >= 4 the cubic falls before it rises on [1, a + b + 1]
    for b in range(1, 12):
        th = _bisected_root(a, b, a + b + 1)
        assert _grid_root(a, b, a + b) == th, (a, b)
        if _is_irreducible_cubic(a, b):
            t2 = th * th
            row = (th - th.numerator // th.denominator, t2 - t2.numerator // t2.denominator)
            assert cubic_pair_system(a, b).theta == (row,)
