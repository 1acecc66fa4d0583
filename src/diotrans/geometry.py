"""The d-dimensional embedding of a linear system.

Builds the primal/dual parallelepipeds, exact membership and enumeration
of their nonzero integer points, and best-approximation tables for
exponent estimation.
"""
from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat
from math import inf
from typing import Optional, Sequence

from .errors import BudgetExceeded
from .exactlinalg import lll_guided
from .intervals import Enclosure
from .radicals import _int_nth_root, exact_mul, floor_within
from .verify import IntegerForm, dot, residual_numerators, theta_integer_form

DEFAULT_ENUM_BUDGET = 10**7  # outer candidates of one box search


def _frac_matrix(theta, n, m):
    rows = tuple(tuple(Fraction(x) for x in row) for row in theta)
    if len(rows) != n or any(len(r) != m for r in rows):
        raise ValueError(f"theta must be {n}x{m}")
    return rows


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
        """Theta = A / D (``verify.theta_integer_form``), computed once."""
        return theta_integer_form(self.theta)

    def transposed(self) -> "System":
        tt = tuple(tuple(self.theta[i][j] for i in range(self.n)) for j in range(self.m))
        return System(self.m, self.n, tt)

    def split(self, z: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(x, y) for z = (x, y); ValueError unless z has d coordinates."""
        z = tuple(int(v) for v in z)
        if len(z) != self.d:
            raise ValueError(f"expected d = {self.d} coordinates, got {len(z)}")
        return z[: self.m], z[self.m :]

    def primal_numerators(self, z: Sequence[int]) -> list[int]:
        """D * (Theta x + y) for z = (x, y)."""
        return residual_numerators(self.integer_form, "primal", *self.split(z))[1]

    def dual_numerators(self, z: Sequence[int]) -> list[int]:
        """D * (tTheta y - x) for z = (x, y)."""
        return residual_numerators(self.integer_form, "dual", *self.split(z))[1]

    def primal_values(self, z: Sequence[int]) -> tuple[int, Fraction]:
        """(|x|_inf, |Theta x + y|_inf) for z = (x, y)."""
        resid = max(map(abs, self.primal_numerators(z)))  # split checks len(z)
        xinf = max(map(abs, map(int, z[: self.m])))
        return xinf, Fraction(resid, self.integer_form.den)

    def dual_values(self, z: Sequence[int]) -> tuple[int, Fraction]:
        """(|y|_inf, |tTheta y - x|_inf) for z = (x, y)."""
        resid = max(map(abs, self.dual_numerators(z)))  # split checks len(z)
        yinf = max(map(abs, map(int, z[self.m :])))
        return yinf, Fraction(resid, self.integer_form.den)


def _check_side(side: str) -> None:
    if side not in ("primal", "dual"):
        raise ValueError("side must be 'primal' or 'dual'")


@dataclass(frozen=True)
class Box:
    """Parallelepiped M_{h,r} (side='primal') or M-hat_{h,r} (side='dual').

    h and r may be Fractions, Radicals, or Enclosures; an Enclosure bound
    stands for its lower endpoint, so the box is never larger than the true
    one.
    """

    system: System
    h: object
    r: object
    side: str  # 'primal' | 'dual'

    def __post_init__(self):
        _check_side(self.side)

    def bounds(self) -> tuple[list, list]:
        """Per-coordinate (hbounds, rbounds)."""
        return [self.h] * self.system.n, [self.r] * self.system.m


def in_box(system: System, side: str, z: Sequence[int], hbounds: Sequence,
           rbounds: Sequence) -> bool:
    """Exact membership of z in the per-coordinate-bounded parallelepiped of
    ``enumerate_nonzero_general``, decided in integers on the bounds that the
    walk reads (``_integer_bounds``); ValueError unless z has d coordinates."""
    outer, nums = residual_numerators(system.integer_form, side, *system.split(z))
    outer_bounds, thresholds = _integer_bounds(system, side, hbounds, rbounds)
    return all(abs(c) <= b for c, b in zip(outer + tuple(nums), outer_bounds + thresholds))


def box_contains(box: Box, z: Sequence[int]) -> bool:
    """Is z in the box, with enclosure bounds taken at their lower end?"""
    return in_box(box.system, box.side, z, *box.bounds())


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
    Lexicographically sorted, exact.  The library's searches walk instead
    (``_walk``, ``least_point``); the list is the tests' reference.
    """
    return sorted(_walk(system, side, hbounds, rbounds, budget))


def least_point(system: System, side: str, hbounds: Sequence, rbounds: Sequence, accept=None,
                budget: int = DEFAULT_ENUM_BUDGET) -> Optional[tuple[int, ...]]:
    """The first point of ``_walk`` that ``accept`` takes (any when None), or None."""
    return next(filter(accept, _walk(system, side, hbounds, rbounds, budget)), None)


def least_multiple(system: System, side: str, w: Sequence[int], hbounds: Sequence,
                   rbounds: Sequence) -> Optional[tuple[int, ...]]:
    """``least_point`` over the nonzero multiples of w, without a walk.

    The box holds k w iff |k| <= K, K the least floor(B / |c|) over the
    nonzero outer coordinates and inner numerators c of w and their integer
    bounds B (``_integer_bounds``).  The walk's order is lexicographic in the
    outer then the inner coordinates, so of the points k w, 0 < |k| <= K,
    it meets first the one whose first nonzero coordinate in that order is
    the most negative: -K w or K w.  None when K = 0.
    """
    x, y = system.split(w)
    outer, nums = residual_numerators(system.integer_form, side, x, y)
    if not any(x + y):
        raise ValueError("w must be nonzero")
    outer_bounds, thresholds = _integer_bounds(system, side, hbounds, rbounds)
    bounds = outer_bounds + thresholds
    if min(bounds) < 0:
        return None
    k = min(b // abs(c) for b, c in zip(bounds, outer + tuple(nums)) if c)
    if k == 0:
        return None
    # the first nonzero in walk order is in outer, or else in x + y, whose nonzeros are then inner
    if next(v for v in outer + x + y if v) > 0:
        k = -k
    return tuple(k * v for v in x + y)


def _integer_bounds(system, side, hbounds, rbounds):
    """The box as ``_walk`` reads it: (outer, inner) lists of integer bounds,
    |outer coordinate| <= floor(b) and |inner numerator| <= floor(D b), an
    Enclosure b read at its lower end (``Box``).

    The outer coordinates are x on the primal side and y on the dual side;
    the inner numerators are those of ``verify.residual_numerators``.
    """
    den = system.integer_form.den
    outer, inner = (rbounds, hbounds) if side == "primal" else (hbounds, rbounds)
    outer, inner = ([b.lo if isinstance(b, Enclosure) else b for b in bounds]
                    for bounds in (outer, inner))
    return [floor_within(b) for b in outer], [floor_within(exact_mul(den, b)) for b in inner]


def _walk(system, side, hbounds, rbounds, budget):
    """The box's nonzero points z in walk order: outer coordinates first, x
    then y on the primal side and y then x on the dual side, each
    lexicographically.  On the primal side that is the order of z itself.

    With Theta = A / D, an inner coordinate v is bounded by |D v + N| <= D b
    for the integer center numerator N of the outer vector; the left side is
    an integer, so D b may be replaced by B = floor(D b), decided once per
    box.  Each outer vector then costs integer arithmetic only.
    """
    _check_side(side)
    form = system.integer_form
    den = form.den
    primal = side == "primal"
    forms, sign = (form.rows, 1) if primal else (form.cols, -1)
    outer_bounds, thresholds = _integer_bounds(system, side, hbounds, rbounds)
    count = 1
    for b in outer_bounds:
        count *= 2 * b + 1
        if count > budget:
            raise BudgetExceeded(f"outer box has more than {budget} candidates")

    for outer in product(*(range(-b, b + 1) for b in outer_bounds)):
        inner_ranges = []
        for row, B in zip(forms, thresholds):
            # primal: |D y_i + (A x)_i| <= B;  dual: |D x_j - (tA y)_j| <= B
            N = sign * dot(row, outer)
            lo, hi = -((B + N) // den), (B - N) // den
            if lo > hi:
                break
            inner_ranges.append(range(lo, hi + 1))
        else:
            inner = product(*inner_ranges)
            yield from filter(any, map(outer.__add__, inner) if primal
                              else map(tuple.__add__, inner, repeat(outer)))


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


def best_approx_table(system: System, side: str, t_max: int) -> BestApproxTable:
    """Jump table of psi(t) = min over 0 < |x|_inf <= t of |Theta x - y|_inf.

    side='dual' computes the transposed analog.  Exact for every shape, in
    integers on ``System.integer_form`` Theta = A / D (see ``_records``).
    After a record psi = e / D, the next record is the least |x|_inf among
    the points (x, A x + D y) of a lattice with |A x + D y|_inf <= e - 1.
    By Minkowski's theorem one of them has |x|_inf <= S = ceil((D / (e -
    1))^(n/k)), for n forms in k free variables (S = D when e = 1), so the
    search stays in |x|_inf <= min(t_max, S).

    A record's witness is the first exact minimiser of its half-shell (the
    x with |x|_inf = t whose first coordinate of size t is +t): the one with
    the least index a with |x_a| = t, then the lexicographically least x.
    The rule depends on the point alone.
    """
    _check_side(side)
    form = system.integer_form
    rows = form.rows if side == "primal" else form.cols
    table = BestApproxTable(side=side, t_max=t_max)
    for s, e, x, y in _records(rows, form.den, t_max):
        # box convention: psi = |Theta x + y|_inf resp. |tTheta y - x|_inf;
        # on the dual side the free variable is y and -x its nearest vector
        z = x + y if side == "primal" else tuple(-v for v in y) + x
        table.records.append(ApproxRecord(s, Fraction(e, form.den), z))
    return table


def _records(rows, den, t_max):
    """Yield (s, e, x, y) for each record psi(s) = e / den, 1 <= s <= t_max.

    Theta = rows / den = A / D, with n = len(rows) forms in k = len(rows[0])
    free variables; y_i is nearest to -(A x)_i / D (-floor on a half tie).
    Shell 1 is decided point by point.  Each later record is the least
    point of ``_least_point`` on the lattice spanned by the rows (e_j, A e_j)
    and (0, D e_i), in the box |x|_inf <= min(t_max, S), |r|_inf <= e - 1
    (S from ``best_approx_table``); there |r_i| < D / 2, so r = A x + D y
    holds the nearest y.  The basis is carried from record to record and
    walked as it is while its walk is narrow: while the outer coefficient
    ranges of ``_least_point`` (d - 1 of them, d = k + n) hold at most 3^d
    vectors.  A wider walk is refused before it starts; the basis is then
    LLL-reduced with weights that make the box a cube, and walked again.  A
    walk of up to 3^d outer vectors costs less than a reduction would save
    on the benchmark's record scans (always reducing, or reducing past
    3^(d-1), 2 3^d or 3^(d+1), took longer there).
    ``exactlinalg.lll_guided`` reduces it: doubles choose the steps, which are
    exact integer row operations on ``basis`` and ``dual``; the integral
    ``lll_reduce`` runs instead on Gram diagonals of at most 64 bits and
    finishes when the doubles fail.  Any basis of the lattice gives the same
    records, since ``_least_point`` bounds its coefficients from the exact
    dual pairing; the reduction and the gate only set the cost of the walk.
    """
    if t_max < 1:
        return
    k, n = len(rows[0]), len(rows)
    half_shell = [(0,) * a + (1,) + tail for a in range(k)
                  for tail in product((-1, 0, 1), repeat=k - 1 - a)]
    x, e, y = min(((x, *_nearest(rows, den, x)) for x in half_shell), key=lambda p: p[1])
    yield 1, e, x, y
    # A reduced to residues of least size mod D spans the same lattice
    centered = [[(a + den // 2) % den - den // 2 for a in row] for row in rows]
    basis = [[int(i == j) for i in range(k)] + [row[j] for row in centered] for j in range(k)]
    basis += [[0] * k + [den * (i == l) for l in range(n)] for i in range(n)]
    dual = [[den * (i == j) for i in range(k)] + [0] * n for j in range(k)]
    dual += [[-a for a in centered[i]] + [int(i == l) for l in range(n)] for i in range(n)]
    s, den_n, narrow = 1, den**n, 3 ** (k + n)
    while e and s < t_max:
        bound = e - 1
        if bound:
            root, exact = _int_nth_root(-(-den_n // bound**n), k)
            reach = min(t_max, root + (not exact))
        else:
            reach = min(t_max, den)
        point = _least_point(basis, dual, den, k, reach, bound, narrow)
        if point is _WIDE:
            # weights that make the box a cube: x scaled by bound, r by reach
            wx, wr = max(bound // reach, 1) ** 2, max(reach // max(bound, 1), 1) ** 2
            lll_guided(basis, [wx] * k + [wr] * n, dual)
            point = _least_point(basis, dual, den, k, reach, bound, inf)
        if point is None:
            return
        s, e, x, r = point
        yield s, e, x, tuple((ri - dot(row, x)) // den for row, ri in zip(rows, r))


_WIDE = "wide"  # _least_point's answer for a walk wider than its limit


def _least_point(basis, dual, den, k, reach, bound, limit):
    """(s, e, x, r) for the least nonzero lattice point v = (x, r) with
    |x|_inf <= reach and |r|_inf <= bound, or None; ``_WIDE``, without a
    walk, when the outer coefficient ranges hold more than ``limit`` vectors.

    Points are ordered by (s, e, a, x) with s = |x|_inf, e = |r|_inf and a the
    least index with |x_a| = s, each taken with the sign that makes x_a = +s.
    ``dual`` pairs with ``basis`` as den times the identity, so v's
    coefficient c_j = <v, dual_j> / den is at most (reach |dual_j x-part|_1 +
    bound |dual_j r-part|_1) / den in size.  The outer coefficients run over
    these ranges, the first nonzero one positive (-v is in the box with v);
    the innermost, on the vector of the widest range, is the exact integer
    interval that keeps every coordinate in the box.  Once a point is found
    the x-bound shrinks to its shell.
    """
    d = len(basis)
    norms = [(sum(map(abs, m[:k])), sum(map(abs, m[k:]))) for m in dual]
    order = sorted(range(d), key=lambda j: reach * norms[j][0] + bound * norms[j][1])
    levels = [(basis[j], *norms[j]) for j in order[:-1]]
    width = 1
    for _, nx, nr in levels:
        width *= 2 * ((reach * nx + bound * nr) // den) + 1
        if width > limit:
            return _WIDE
    inner = basis[order[-1]]
    box = [reach] * k + [bound] * (d - k)
    best = None

    def walk(level, p, signed):
        nonlocal best
        if level < d - 1:
            b, nx, nr = levels[level]
            walk(level + 1, p, signed)
            c = 1
            while c * den <= box[0] * nx + bound * nr:
                walk(level + 1, [a + c * u for a, u in zip(p, b)], True)
                if signed:
                    walk(level + 1, [a - c * u for a, u in zip(p, b)], True)
                c += 1
            return
        # |p_l + c b_l| <= w_l for every coordinate l
        lo, hi = [], []
        for pl, bl, w in zip(p, inner, box):
            if bl > 0:
                lo.append(-((w + pl) // bl))
                hi.append((w - pl) // bl)
            elif bl < 0:
                lo.append(-((w - pl) // -bl))
                hi.append((w + pl) // -bl)
            elif abs(pl) > w:
                return
        for c in range(max(lo) if signed else max(*lo, 1), min(hi) + 1):
            v = [a + c * u for a, u in zip(p, inner)]
            x, r = v[:k], v[k:]
            s = max(map(abs, x))
            e = max(map(abs, r))
            if best is not None and (s, e) > best[:2]:
                continue
            a = next(a for a, xa in enumerate(x) if abs(xa) == s)
            if x[a] < 0:
                x, r = [-v for v in x], [-v for v in r]
            if best is None or (s, e, a, x) < best[:4]:
                best = (s, e, a, x, r)
                box[:k] = [s] * k

    walk(0, [0] * d, False)
    if best is None:
        return None
    s, e, _, x, r = best
    return s, e, tuple(x), tuple(r)


def _nearest(rows, den, x):
    """(e, y): y_i nearest to -A_i x / den (-floor on a half tie), e = max_i |A_i x + den y_i|."""
    e, y = 0, []
    for row in rows:
        q, r = divmod(dot(row, x), den)
        up = r > den - r
        y.append(-q - up)
        e = max(e, den - r if up else r)
    return e, tuple(y)
