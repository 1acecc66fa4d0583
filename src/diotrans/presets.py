"""Curated systems with known approximation behaviour.

All entries are high-precision rational snapshots of the intended real
numbers: the snapshot error is far below any residual the desk-scale scans
can resolve, so the finite tables are indistinguishable from the real
thing.  Spanning three regimes: badly approximable (quadratic and cubic
algebraics), generic, and Liouville-extreme.  A cubic root (the plastic
number, the x^3 = a*x + b pairs) is snapshot as the largest point of a grid
of step 2^-PRECISION_BITS times the interval's width not past the root,
decided in integers (``_grid_root``).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Optional

from .geometry import System

PRECISION_BITS = 400


def _fib_ratio() -> Fraction:
    """F_240 / F_241, a deep convergent of 1/golden-ratio."""
    a, b = 0, 1
    for _ in range(240):
        a, b = b, a + b
    return Fraction(a, b)


def _sqrt2_frac() -> Fraction:
    """Deep convergent of sqrt(2) - 1 = [0; 2, 2, 2, ...]."""
    p0, q0, p1, q1 = 0, 1, 1, 2
    for _ in range(150):
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    return Fraction(p1, q1)


def _grid_root(a: int, b: int, w: int) -> Fraction:
    """The snapshot of the root rho > 1 of x^3 = a*x + b (a, b >= 1): the
    largest point 1 + j*w / 2^PRECISION_BITS of the grid on [1, 1 + w] not
    past rho (rho < 1 + w), decided in integers.

    On x >= 1, x^3 - a*x - b <= 0 exactly on [1, rho]: it is negative up to
    sqrt(a/3) and increasing after it.  With one = 2^PRECISION_BITS and
    X = one * x, the test is X^3 - a*X*one^2 - b*one^3 <= 0.  Integer Newton
    runs from X = one * (1 + w), above rho: the cubic is convex and increasing
    there, so every step, rounded down, stays at or above one * rho and the
    steps shrink to 0.  The grid index is then moved until the test holds at
    j and fails at j + 1, so the result rests on the exact test alone.
    """
    one = 1 << PRECISION_BITS
    one2, one3 = one * one, one * one * one

    def cubic(x):
        return x * x * x - a * x * one2 - b * one3

    x = one * (1 + w)
    while True:
        step = cubic(x) // (3 * x * x - a * one2)
        if step <= 0:
            break
        x -= step
    j = (x - one) // w
    while cubic(one + j * w) > 0:
        j -= 1
    while cubic(one + (j + 1) * w) <= 0:
        j += 1
    return Fraction(one + j * w, one)


def _liouville() -> Fraction:
    return sum(Fraction(1, 10 ** factorial(k)) for k in range(1, 6))


@dataclass(frozen=True)
class Preset:
    name: str
    n: int
    m: int
    build: Callable[[], System]
    alpha_expected: Optional[Fraction]  # None when not pinned down
    beta_expected: Optional[Fraction]
    note: str


def _sys(n, m, rows) -> System:
    return System(n, m, tuple(tuple(rows[i]) for i in range(n)))


PRESETS: dict[str, Preset] = {}


def _register(p: Preset):
    PRESETS[p.name] = p


_register(
    Preset(
        "golden",
        1,
        1,
        lambda: _sys(1, 1, [[_fib_ratio()]]),
        Fraction(1),
        Fraction(1),
        "inverse golden ratio; the worst approximable number",
    )
)
_register(
    Preset(
        "sqrt2",
        1,
        1,
        lambda: _sys(1, 1, [[_sqrt2_frac()]]),
        Fraction(1),
        Fraction(1),
        "fractional part of sqrt(2); badly approximable",
    )
)


def _plastic_row() -> list[Fraction]:
    th = _grid_root(1, 1, 1)
    return [th - 1, th * th - 1]


_register(
    Preset(
        "plastic",
        1,
        2,
        lambda: _sys(1, 2, [_plastic_row()]),
        Fraction(2),
        Fraction(2),
        "linear form with the plastic-number basis (1, x, x^2), x^3 = x + 1",
    )
)
_register(
    Preset(
        "plastic_dual",
        2,
        1,
        lambda: _sys(2, 1, [[v] for v in _plastic_row()]),
        Fraction(1, 2),
        Fraction(1, 2),
        "simultaneous approximation to the plastic-number pair",
    )
)
_register(
    Preset(
        "liouville",
        1,
        1,
        lambda: _sys(1, 1, [[_liouville()]]),
        None,
        None,
        "truncated factorial series; extreme individual exponent",
    )
)


def _is_irreducible_cubic(a: int, b: int) -> bool:
    # x^3 - a x - b factors over Q iff it has an integer root dividing b.
    for r in range(1, abs(b) + 1):
        if b % r == 0:
            for s in (r, -r):
                if s**3 - a * s - b == 0:
                    return False
    return True


def cubic_pair_system(a: int, b: int) -> System:
    """The 1x2 system (frac(x), frac(x^2)) for the positive root of
    x^3 = a*x + b; a basis of a real cubic field, so both exponents sit at
    the generic value 2 and the transposed uniform exponent at 1/2.  x is
    the root's snapshot on the grid of [1, a + b + 1] (``_grid_root``)."""
    if not _is_irreducible_cubic(a, b):
        raise ValueError(f"x^3 - {a}x - {b} is reducible")
    th = _grid_root(a, b, a + b)
    row = [th - (th.numerator // th.denominator), None]
    t2 = th * th
    row[1] = t2 - (t2.numerator // t2.denominator)
    return _sys(1, 2, [row])


def cubic_pair_family(count: int) -> list[tuple[str, System]]:
    """The first ``count`` irreducible members of the x^3 = a*x + b family."""
    out = []
    for a in range(1, 12):
        for b in range(1, 12):
            if len(out) >= count:
                return out
            if _is_irreducible_cubic(a, b):
                out.append((f"cubic_{a}_{b}", cubic_pair_system(a, b)))
    return out


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {sorted(PRESETS)}") from None


def random_real(rng: random.Random) -> Fraction:
    """A uniform dyadic rational in (0, 1) with enough bits to behave like a
    generic real at desk scale."""
    return Fraction(rng.getrandbits(PRECISION_BITS) | 1, 2**PRECISION_BITS)


def random_system(rng: random.Random, n: int, m: int) -> System:
    rows = [[random_real(rng) for _ in range(m)] for _ in range(n)]
    return System(n, m, tuple(tuple(r) for r in rows))


def random_rational_system(rng: random.Random, n: int, m: int, max_den: int) -> System:
    """Small-denominator rational entries - for certificate campaigns where
    exact enumeration must stay cheap."""
    rows = [
        [Fraction(rng.randint(0, max_den), rng.randint(1, max_den)) for _ in range(m)]
        for _ in range(n)
    ]
    rows = [[v if v.denominator != 1 else v + Fraction(1, 3) for v in row] for row in rows]
    return System(n, m, tuple(tuple(r) for r in rows))
