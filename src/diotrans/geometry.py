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
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetExceeded
from .intervals import Enclosure
from .radicals import exact_le, exact_floor, floor_within

DEFAULT_ENUM_BUDGET = 10**7


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

    def transposed(self) -> "System":
        tt = tuple(tuple(self.theta[i][j] for i in range(self.n)) for j in range(self.m))
        return System(self.m, self.n, tt)

    def split(self, z: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        z = tuple(int(v) for v in z)
        return z[: self.m], z[self.m :]

    def primal_values(self, z: Sequence[int]) -> tuple[int, Fraction]:
        """(|x|_inf, |Theta x + y|_inf) for z = (x, y)."""
        x, y = self.split(z)
        xinf = max(abs(v) for v in x)
        resid = Fraction(0)
        for i in range(self.n):
            v = sum(self.theta[i][j] * x[j] for j in range(self.m)) + y[i]
            resid = max(resid, abs(v))
        return xinf, resid

    def dual_values(self, z: Sequence[int]) -> tuple[int, Fraction]:
        """(|y|_inf, |tTheta y - x|_inf) for z = (x, y)."""
        x, y = self.split(z)
        yinf = max(abs(v) for v in y)
        resid = Fraction(0)
        for j in range(self.m):
            v = sum(self.theta[i][j] * y[i] for i in range(self.n)) - x[j]
            resid = max(resid, abs(v))
        return yinf, resid


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
    n, m = system.n, system.m
    if side == "primal":
        outer_bounds = [exact_floor(b) for b in rbounds]
        inner_bounds = hbounds
    else:
        outer_bounds = [exact_floor(b) for b in hbounds]
        inner_bounds = rbounds

    count = 1
    for b in outer_bounds:
        count *= 2 * b + 1
        if count > budget:
            raise BudgetExceeded(f"outer box has more than {budget} candidates")

    points = []

    def emit(outer_vec):
        # Residual centers for each inner coordinate.
        if side == "primal":
            centers = [
                sum(system.theta[i][j] * outer_vec[j] for j in range(m)) for i in range(n)
            ]
            # y_i in [-h_i - c_i, h_i - c_i]
            for inner_vec in _product_ranges(centers, inner_bounds):
                z = tuple(outer_vec) + tuple(inner_vec)
                if any(z):
                    points.append(z)
        else:
            centers = [
                -sum(system.theta[i][j] * outer_vec[i] for i in range(n)) for j in range(m)
            ]
            # x_j in [tThetaY_j - r_j, tThetaY_j + r_j] i.e. |x_j + c_j| <= r_j
            for inner_vec in _product_ranges(centers, inner_bounds):
                z = tuple(inner_vec) + tuple(outer_vec)
                if any(z):
                    points.append(z)

    _iterate_cube(outer_bounds, emit)
    points.sort()
    return points


def _product_ranges(centers, bounds):
    """All integer vectors v with |v_i + centers_i| <= bounds_i."""
    ranges = []
    for c, b in zip(centers, bounds):
        hi = floor_within(b, c)  # largest v with v + c <= b
        lo = -floor_within(b, -c)  # smallest v with -(v + c) <= b
        if lo > hi:
            return
        ranges.append(range(lo, hi + 1))
    out = [()]
    for r in ranges:
        out = [t + (v,) for t in out for v in r]
    yield from out


def _iterate_cube(bounds, fn, prefix=()):
    if not bounds:
        fn(prefix)
        return
    b = bounds[0]
    for v in range(-b, b + 1):
        _iterate_cube(bounds[1:], fn, prefix + (v,))


def enumerate_nonzero(box: Box, budget: int = DEFAULT_ENUM_BUDGET) -> list[tuple[int, ...]]:
    """All nonzero integer points of the closed box, lexicographically."""
    b = box.conservative()
    n, m = box.system.n, box.system.m
    return enumerate_nonzero_general(
        box.system, box.side, [b.h] * n, [b.r] * m, budget=budget
    )


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


def _nearest_residual(theta_rows, x):
    """Exact (psi, y) with y the nearest integer vector to -Theta x."""
    ys = []
    err = Fraction(0)
    for row in theta_rows:
        v = sum(t * xi for t, xi in zip(row, x))
        # nearest integer to -v
        y = -(v.numerator // v.denominator)
        best = abs(v + y)
        for cand in (y - 1, y + 1):
            e = abs(v + cand)
            if e < best:
                best, y = e, cand
        ys.append(y)
        err = max(err, best)
    return err, tuple(ys)


def best_approx_table(
    system: System,
    side: str,
    t_max: int,
    budget: int = 10**9,
) -> BestApproxTable:
    """Jump table of psi(t) = min over 0 < |x|_inf <= t of |Theta x - y|_inf.

    side='dual' computes the transposed analog.  Exact for one free
    variable; a vectorized float scan (with exact re-evaluation of each
    witness) for two or more.
    """
    work = system if side == "primal" else system.transposed()
    n_eff, m_eff = work.n, work.m
    if (2 * t_max + 1) ** m_eff > budget:
        raise BudgetExceeded(f"(2*{t_max}+1)^{m_eff} exceeds budget {budget}")
    table = BestApproxTable(side=side, t_max=t_max)
    if m_eff == 1:
        _scan_exact_1d(work, t_max, table, system, side)
    else:
        _scan_float(work, t_max, table, system, side)
    return table


def _record(table, system, side, t, x, psi, y):
    """Append (t, psi) with witness stored in the original system's layout.

    Witnesses use the box convention: psi = |Theta x + y|_inf (primal) or
    |tTheta y - x|_inf (dual), so every witness lies in M_{psi,t} resp.
    M-hat_{t,psi}.
    """
    if side == "primal":
        z = tuple(x) + tuple(y)
    else:
        # work system was the transpose: its free variable is the original y
        # and its negated-nearest vector is -x.
        z = tuple(-v for v in y) + tuple(x)
    table.records.append(ApproxRecord(t=t, psi=psi, witness=z))


def _scan_exact_1d(work, t_max, table, system, side):
    theta = [row[0] for row in work.theta]
    nums = [f.numerator for f in theta]
    dens = [f.denominator for f in theta]
    best = None
    for t in range(1, t_max + 1):
        err = Fraction(0)
        ys = []
        for p, q in zip(nums, dens):
            r = (p * t) % q
            if r <= q - r:
                e, nearest = r, (p * t - r) // q
            else:
                e, nearest = q - r, (p * t + (q - r)) // q
            ys.append(-nearest)
            err = max(err, Fraction(e, q))
        if best is None or err < best:
            best = err
            _record(table, system, side, t, (t,), err, tuple(ys))
            if best == 0:
                break


def _scan_float(work, t_max, table, system, side):
    n_eff, m_eff = work.n, work.m
    theta = np.array([[float(v) for v in row] for row in work.theta])
    best = None  # exact Fraction of current record
    best_f = np.inf
    for s in range(1, t_max + 1):
        cand = _shell_argmin(theta, n_eff, m_eff, s)
        if cand is None:
            continue
        val_f, x = cand
        if val_f > best_f * (1 + 1e-9):  # slack so near-ties get the exact check
            continue
        err, ys = _nearest_residual(work.theta, x)
        if best is None or err < best:
            best = err
            best_f = float(err)
            _record(table, system, side, s, x, err, ys)
            if err == 0:
                break


def _shell_argmin(theta, n_eff, m_eff, s):
    """Float min of |theta x mod 1|_inf over the shell |x|_inf = s (mod +-)."""
    best_val = None
    best_x = None
    for axis in range(m_eff):
        grids = []
        for b in range(m_eff):
            if b == axis:
                continue
            if b < axis:
                grids.append(np.arange(-(s - 1), s))
            else:
                grids.append(np.arange(-s, s + 1))
        if grids:
            mesh = np.meshgrid(*grids, indexing="ij")
            pts = np.stack([g.ravel() for g in mesh], axis=-1)
        else:
            pts = np.zeros((1, 0), dtype=int)
        x_full = np.insert(pts, axis, s, axis=1)
        v = x_full @ theta.T  # shape (N, n_eff)
        err = np.abs(v - np.rint(v)).max(axis=1)
        i = int(err.argmin())
        if best_val is None or err[i] < best_val:
            best_val = float(err[i])
            best_x = tuple(int(c) for c in x_full[i])
    if best_x is None:
        return None
    return best_val, best_x


def minkowski_guaranteed(system: System, h, r) -> bool:
    """Volume test (2r)^m (2h)^n >= 2^d ensuring a nonzero point (det T = 1)."""
    n, m, d = system.n, system.m, system.d
    vol = (2 * Fraction(r)) ** m * (2 * Fraction(h)) ** n
    return vol >= 2**d
