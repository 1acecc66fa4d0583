"""The d-dimensional embedding of a linear system.

Builds the dual pair of matrices T, T', the primal/dual parallelepipeds,
exact membership and enumeration of their nonzero integer points, and
best-approximation tables for exponent estimation.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import product, repeat
from math import lcm, prod
from typing import NamedTuple, Optional, Sequence

from .errors import BudgetExceeded
from .intervals import Enclosure
from .radicals import exact_floor, exact_le, exact_mul, floor_within

DEFAULT_ENUM_BUDGET = 10**7


def _frac_matrix(theta, n, m):
    rows = tuple(tuple(Fraction(x) for x in row) for row in theta)
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError(f"theta must be {n}x{m}")
    return rows


class IntegerForm(NamedTuple):
    """Theta = rows / den with an integer matrix; cols is its transpose."""

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    den: int


@dataclass(frozen=True)
class System:
    """A system Theta x = y with x in R^m, y in R^n."""

    n: int
    m: int
    theta: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.n + self.m < 2:
            raise ValueError("need positive n, m")
        object.__setattr__(self, "theta", _frac_matrix(self.theta, self.n, self.m))

    @property
    def d(self) -> int:
        return self.n + self.m

    @cached_property
    def integer_form(self) -> IntegerForm:
        """Theta = A / D with A an integer matrix and D the lcm of the
        denominators, so every residual is an integer numerator over D."""
        den = lcm(*(v.denominator for row in self.theta for v in row))
        rows = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in self.theta)
        return IntegerForm(rows, tuple(zip(*rows)), den)

    def transposed(self) -> "System":
        tt = tuple(tuple(self.theta[i][j] for i in range(self.n)) for j in range(self.m))
        return System(self.m, self.n, tt)

    def split(self, z: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        z = tuple(int(v) for v in z)
        return z[: self.m], z[self.m :]

    def primal_numerators(self, z: Sequence[int]) -> list[int]:
        """D * (Theta x + y) for z = (x, y)."""
        x, y = self.split(z)
        form = self.integer_form
        return [_dot(row, x) + form.den * yi for row, yi in zip(form.rows, y)]

    def dual_numerators(self, z: Sequence[int]) -> list[int]:
        """D * (tTheta y - x) for z = (x, y)."""
        x, y = self.split(z)
        form = self.integer_form
        return [_dot(col, y) - form.den * xj for col, xj in zip(form.cols, x)]

    def primal_values(self, z: Sequence[int]) -> tuple[int, Fraction]:
        """(|x|_inf, |Theta x + y|_inf) for z = (x, y)."""
        xinf = max(abs(int(v)) for v in z[: self.m])
        resid = max(abs(v) for v in self.primal_numerators(z))
        return xinf, Fraction(resid, self.integer_form.den)

    def dual_values(self, z: Sequence[int]) -> tuple[int, Fraction]:
        """(|y|_inf, |tTheta y - x|_inf) for z = (x, y)."""
        yinf = max(abs(int(v)) for v in z[self.m :])
        resid = max(abs(v) for v in self.dual_numerators(z))
        return yinf, Fraction(resid, self.integer_form.den)


def _dot(row: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(row, v))


def build_T(system: System):
    """Columns of T are l_1..l_m, e_{m+1}..e_d; of T' are e_1..e_m, l_{m+1}..l_d.

    Satisfies T @ T'^t = identity exactly.
    """
    n, m, d = system.n, system.m, system.d
    T = [[Fraction(0)] * d for _ in range(d)]
    Tp = [[Fraction(0)] * d for _ in range(d)]
    for j in range(m):
        T[j][j] = Fraction(1)
        Tp[j][j] = Fraction(1)
    for i in range(n):
        T[m + i][m + i] = Fraction(1)
        Tp[m + i][m + i] = Fraction(1)
        for j in range(m):
            T[m + i][j] = -system.theta[i][j]
            Tp[j][m + i] = system.theta[i][j]
    return T, Tp


@dataclass(frozen=True)
class Box:
    """Parallelepiped M_{h,r} (side='primal') or M-hat_{h,r} (side='dual').

    h and r may be Fractions, Radicals, or Enclosures.  With an Enclosure
    bound, membership becomes three-valued.
    """

    system: System
    h: object
    r: object
    side: str  # 'primal' | 'dual'

    def __post_init__(self):
        if self.side not in ("primal", "dual"):
            raise ValueError("side must be 'primal' or 'dual'")

    def conservative(self) -> "Box":
        """Shrunk box with exact bounds (lower enclosure endpoints)."""
        h = self.h.lo if isinstance(self.h, Enclosure) else self.h
        r = self.r.lo if isinstance(self.r, Enclosure) else self.r
        return Box(self.system, h, r, self.side)

    def bounds(self) -> tuple[list, list]:
        """Per-coordinate (hbounds, rbounds) of the conservative box."""
        b = self.conservative()
        return [b.h] * self.system.n, [b.r] * self.system.m

    def inflated(self) -> "Box":
        h = self.h.hi if isinstance(self.h, Enclosure) else self.h
        r = self.r.hi if isinstance(self.r, Enclosure) else self.r
        return Box(self.system, h, r, self.side)


def _bound_check(value, bound) -> Optional[bool]:
    """Is |value| <= bound?  None when an enclosure cannot decide."""
    v = abs(Fraction(value))
    if isinstance(bound, Enclosure):
        if v <= bound.lo:
            return True
        if v > bound.hi:
            return False
        return None
    return exact_le(v, bound)


def box_contains(box: Box, z: Sequence[int]) -> Optional[bool]:
    """Exact membership; None only for boundary-uncertain enclosure bounds."""
    sys_ = box.system
    if box.side == "primal":
        first, second = sys_.primal_values(z)
        checks = (_bound_check(first, box.r), _bound_check(second, box.h))
    else:
        first, second = sys_.dual_values(z)
        checks = (_bound_check(first, box.h), _bound_check(second, box.r))
    if False in checks:
        return False
    if None in checks:
        return None
    return True


def enumerate_nonzero_general(
    system: System,
    side: str,
    hbounds: Sequence,
    rbounds: Sequence,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> list[tuple[int, ...]]:
    """Nonzero integer points of a per-coordinate-bounded parallelepiped.

    Primal: |x_j| <= rbounds[j], |(Theta x + y)_i| <= hbounds[i].
    Dual:   |y_i| <= hbounds[i], |(tTheta y - x)_j| <= rbounds[j].
    Lexicographically sorted, exact.
    """
    points = [z for zs in _walk(system, side, hbounds, rbounds, budget) for z in zs if any(z)]
    points.sort()
    return points


def least_point(system: System, side: str, hbounds: Sequence, rbounds: Sequence, accept=None,
                budget: int = DEFAULT_ENUM_BUDGET) -> Optional[tuple[int, ...]]:
    """The first point of ``enumerate_nonzero_general`` that ``accept`` takes
    (any point when None), or None, from a walk that lists nothing.

    Each outer vector's points arrive lexicographically.  On the primal side
    (z = outer + inner) so do the outer vectors, and the first hit is the
    answer; on the dual side (z = inner + outer) it is the least hit over the
    outer vectors, and each vector's walk stops at the incumbent.
    """
    best = None
    for zs in _walk(system, side, hbounds, rbounds, budget):
        for z in zs:
            if best is not None and z >= best:
                break
            if any(z) and (accept is None or accept(z)):
                if side == "primal":
                    return z
                best = z
                break
    return best


def _walk(system, side, hbounds, rbounds, budget):
    """For each outer vector in lexicographic order, an iterator over its
    points z (zero included) in lexicographic order.

    With Theta = A / D, an inner coordinate v is bounded by |D v + N| <= D b
    for the integer center numerator N of the outer vector; the left side is
    an integer, so D b may be replaced by B = floor(D b), decided once per
    box.  Each outer vector then costs integer arithmetic only.
    """
    form = system.integer_form
    den = form.den
    primal = side == "primal"
    if primal:
        outer_bounds, inner_bounds, forms, sign = rbounds, hbounds, form.rows, 1
    else:
        outer_bounds, inner_bounds, forms, sign = hbounds, rbounds, form.cols, -1

    outer_bounds = [exact_floor(b) for b in outer_bounds]
    count = 1
    for b in outer_bounds:
        count *= 2 * b + 1
        if count > budget:
            raise BudgetExceeded(f"outer box has more than {budget} candidates")
    thresholds = [floor_within(exact_mul(den, b), 0) for b in inner_bounds]

    for outer in product(*(range(-b, b + 1) for b in outer_bounds)):
        inner_ranges = []
        for row, B in zip(forms, thresholds):
            # primal: |D y_i + (A x)_i| <= B;  dual: |D x_j - (tA y)_j| <= B
            N = sign * _dot(row, outer)
            lo, hi = -((B + N) // den), (B - N) // den
            if lo > hi:
                break
            inner_ranges.append(range(lo, hi + 1))
        else:
            inner = product(*inner_ranges)
            yield map(outer.__add__, inner) if primal else map(tuple.__add__, inner, repeat(outer))


def enumerate_nonzero(box: Box, budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, ...]]:
    """All nonzero integer points of the closed box, lexicographically."""
    return enumerate_nonzero_general(box.system, box.side, *box.bounds(), budget=budget)


# ---------------------------------------------------------------------------
# Best approximation tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ApproxRecord:
    t: int
    psi: Fraction
    witness: tuple[int, ...]  # full z = (x, y)


@dataclass
class BestApproxTable:
    side: str
    t_max: int
    records: list[ApproxRecord] = field(default_factory=list)

    def psi_at(self, t: int) -> Optional[Fraction]:
        best = None
        for rec in self.records:
            if rec.t <= t:
                best = rec.psi
            else:
                break
        return best

    def to_rows(self):
        return [
            {
                "t": rec.t,
                "psi_num": rec.psi.numerator,
                "psi_den": rec.psi.denominator,
                "witness": list(rec.witness),
            }
            for rec in self.records
        ]

    def to_json(self) -> str:
        return json.dumps(
            {"side": self.side, "t_max": self.t_max, "records": self.to_rows()},
            indent=2,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["t", "psi_num", "psi_den", "witness"])
        for rec in self.records:
            w.writerow(
                [rec.t, rec.psi.numerator, rec.psi.denominator, " ".join(map(str, rec.witness))]
            )
        return buf.getvalue()


def best_approx_table(
    system: System,
    side: str,
    t_max: int,
    budget: int = 10**9,
) -> BestApproxTable:
    """Jump table of psi(t) = min over 0 < |x|_inf <= t of |Theta x - y|_inf.

    side='dual' computes the transposed analog.  Exact for every shape: a
    float residual on the shell |x|_inf = s is within eps(s) = (k+2) s L
    2^-52 + 2^-50 of the exact one (k free variables, L the largest row sum
    of |Theta|), and every point within eps(s) of beating the record is
    decided in integers on ``System.integer_form`` (see ``_scan``).
    """
    form = system.integer_form
    rows = form.rows if side == "primal" else form.cols
    free = len(rows[0])
    if (2 * t_max + 1) ** free > budget:
        raise BudgetExceeded(f"(2*{t_max}+1)^{free} exceeds budget {budget}")
    table = BestApproxTable(side=side, t_max=t_max)
    for e, _, x, y in _scan(rows, form.den, t_max):
        # box convention: psi = |Theta x + y|_inf resp. |tTheta y - x|_inf;
        # on the dual side the free variable is y and -x its nearest vector
        z = x + y if side == "primal" else tuple(-v for v in y) + x
        table.records.append(ApproxRecord(max(map(abs, x)), Fraction(e, form.den), z))
    return table


_BATCH_CAP = 2**14  # points per float batch, bounding the scan's memory


def _scan(rows, den, t_max):
    """Yield (e, err_f, x, y) for each record of psi over the half-shells 1..t_max.

    Theta = rows / den, with k = len(rows[0]) free variables.  Half-shell s
    holds the x with |x|_inf = s whose first coordinate of size s is +s; its
    block (s, a) has x_a = s, |x_b| < s for b < a, |x_b| <= s for b > a, and
    runs lexicographically.  y_i is nearest to -(Theta x)_i (-floor on a half
    tie) and psi(x) = e / den.  A record is a shell whose least e beats every
    earlier one; its witness is the exact minimiser of least err_f, then the
    first one.

    err_f(x) = max_i |v_i - rint(v_i)| for v = fl(x Theta_f^t) is computed
    without rounding (Sterbenz), and distance to Z is 1-Lipschitz, so
    |err_f - psi| <= max_i |v_i - (Theta x)_i| <= gamma_{k+1} s L <= (k+2) u s L
    with u = 2^-53 and L = max_i sum_j |theta_ij|: Theta rounded, k products
    and k - 1 sums in any order (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1).  eps(s) = (k+2) s L 2^-52 + 2^-50 doubles that, which
    absorbs the rounding of L, of eps and of the float thresholds, and adds
    an absolute term for underflow and thresholds near 0.  Residuals are
    integers over den, so only a point with err_f <= (best - 1) / den +
    eps(s) can beat the record best / den, and a shell minimiser has err_f <=
    its block's float minimum + 2 eps(s).  Only such points are decided
    exactly; ties with the record are never re-checked.
    """
    import numpy as np  # kept out of processes that never scan (~13 MB)

    free = len(rows[0])
    theta = np.array([[a / den for a in row] for row in rows])
    slope = (free + 2) * 2.0**-52 * (max(sum(map(abs, row)) for row in rows) / den)
    best = None  # numerator of the current record
    pending = None  # (e, err_f, x, y): the best candidate of the open shell
    for x, shells, counts in _batches(np, free, t_max):
        v = x @ theta.T
        # column by column: .max(axis=1) along the short axis is ~60x slower
        err = reduce(np.maximum, np.abs(v - np.rint(v)).T)
        eps = slope * shells + 2.0**-50
        limit = np.minimum.reduceat(err, np.cumsum(counts) - counts) + 2 * eps
        if best is not None:
            limit = np.minimum(limit, (best - 1) / den + eps)
        for i in np.flatnonzero(err <= np.repeat(limit, counts)):
            point = tuple(int(c) for c in x[i])
            if pending is not None and max(map(abs, point)) > max(map(abs, pending[2])):
                best = pending[0]
                yield pending
                if best == 0:
                    return
                pending = None
            e, y = _nearest(rows, den, point)
            f = float(err[i])
            if (best is None or e < best) and (pending is None or (e, f) < pending[:2]):
                pending = (e, f, point, y)
    if pending is not None:
        yield pending


def _nearest(rows, den, x):
    """(e, y): y_i nearest to -A_i x / den (-floor on a half tie), e = max_i |A_i x + den y_i|."""
    e, y = 0, []
    for row in rows:
        q, r = divmod(_dot(row, x), den)
        up = r > den - r
        y.append(-q - up)
        e = max(e, den - r if up else r)
    return e, tuple(y)


def _batches(np, free, t_max):
    """The half-shells 1..t_max in scan order, a run of whole pieces at a time.

    Yields (points as floats, shell of each piece, size of each piece).  A
    piece is a block, or for a block of more than _BATCH_CAP points a slice
    of it along its leading free coordinate (``_pieces``); a slice's float
    minimum is >= its block's, so the scan's filter stays exact.  Batches
    start at 32 points and double up to _BATCH_CAP, so a scan that stops
    early stays cheap and no batch exceeds the cap.
    """
    size = 32
    if free == 1:
        s = 1
        while s <= t_max:
            shells = np.arange(s, min(s + size, t_max + 1), dtype=float)
            s += len(shells)
            yield shells.reshape(-1, 1), shells, np.ones(len(shells), dtype=int)
            size = min(2 * size, _BATCH_CAP)
        return
    batch, total = [], 0
    for s in range(1, t_max + 1):
        for a in range(free):
            block = [(1 - s, 2 * s - 1)] * a + [(s, 1)] + [(-s, 2 * s + 1)] * (free - 1 - a)
            for piece, count in _pieces(block):
                if batch and total + count > size:
                    yield _filled(np, free, batch, total)
                    batch, total, size = [], 0, min(2 * size, _BATCH_CAP)
                batch.append((s, piece, count))
                total += count
    if batch:
        yield _filled(np, free, batch, total)


def _pieces(ranges):
    """Lexicographic slices of at most _BATCH_CAP points, with their sizes, of
    the block with coordinate b in range(lo_b, lo_b + n_b), given as [(lo_b, n_b)]."""
    lengths = [n for _, n in ranges]
    count = prod(lengths)
    if count <= _BATCH_CAP:
        return [(ranges, count)]
    b = next(b for b, n in enumerate(lengths) if n > 1)
    lo, n = ranges[b]
    step = max(1, _BATCH_CAP // prod(lengths[b + 1 :]))
    return [piece for start in range(lo, lo + n, step) for piece in
            _pieces(ranges[:b] + [(start, min(step, lo + n - start))] + ranges[b + 1 :])]


def _filled(np, free, batch, total):
    """A batch as _batches yields it, from its (shell, piece, size) list."""
    x = np.empty((total, free))
    end = 0
    for _, piece, count in batch:
        view = x[end : end + count].reshape([n for _, n in piece] + [free])
        end += count
        for b, (lo, n) in enumerate(piece):
            axis = [1] * free
            axis[b] = n
            view[..., b] = np.arange(lo, lo + n).reshape(axis)
    return x, np.array([s for s, _, _ in batch], dtype=float), np.array([c for _, _, c in batch])


def minkowski_guaranteed(system: System, h, r) -> bool:
    """Volume test (2r)^m (2h)^n >= 2^d ensuring a nonzero point (det T = 1)."""
    n, m, d = system.n, system.m, system.d
    vol = (2 * Fraction(r)) ** m * (2 * Fraction(h)) ** n
    return vol >= 2**d
