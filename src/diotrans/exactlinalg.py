"""Exact integer/rational linear algebra.

Hermite normal form over the columns, integer kernels, lattice saturation,
orthogonal integer lattices, one fraction-free determinant for Gram
determinants, wedge norms and Grassmann coordinates, and integral LLL
reduction.
Matrices are plain lists of rows; lattice bases are tuples of vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DependentInput, NotSaturated

Vec = tuple[int, ...]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def _row_hnf(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF: returns (H, U) with H = U @ mat, U unimodular.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).
    """
    h = [list(map(int, row)) for row in mat]
    rows = len(h)
    cols = len(h[0]) if rows else 0
    u = identity_matrix(rows)
    pivot_row = 0
    pivots = []
    for col in range(cols):
        # Euclid on the entries of this column below pivot_row.
        while True:
            nz = [i for i in range(pivot_row, rows) if h[i][col]]
            if len(nz) <= 1:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            for i in nz:
                if i == i0:
                    continue
                q = h[i][col] // h[i0][col]
                h[i] = [a - q * b for a, b in zip(h[i], h[i0])]
                u[i] = [a - q * b for a, b in zip(u[i], u[i0])]
        nz = [i for i in range(pivot_row, rows) if h[i][col]]
        if not nz:
            continue
        i0 = nz[0]
        if i0 != pivot_row:
            h[i0], h[pivot_row] = h[pivot_row], h[i0]
            u[i0], u[pivot_row] = u[pivot_row], u[i0]
        if h[pivot_row][col] < 0:
            h[pivot_row] = [-a for a in h[pivot_row]]
            u[pivot_row] = [-a for a in u[pivot_row]]
        p = h[pivot_row][col]
        for i in range(pivot_row):
            q = h[i][col] // p
            if q:
                h[i] = [a - q * b for a, b in zip(h[i], h[pivot_row])]
                u[i] = [a - q * b for a, b in zip(u[i], u[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    return h, u


def hnf(mat: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Column-style HNF: (H, U) with H = mat @ U and U unimodular."""
    ht, ut = _row_hnf(transpose(mat))
    return transpose(ht), transpose(ut)


def integer_kernel(mat: Sequence[Sequence[int]]) -> list[Vec]:
    """Basis of {z in Z^cols : mat @ z = 0}; the kernel lattice is saturated."""
    cols = len(mat[0]) if mat else 0
    if not mat:
        return [tuple(row) for row in identity_matrix(cols)]
    h, u = hnf(mat)
    basis = []
    for j in range(cols):
        if all(h[i][j] == 0 for i in range(len(h))):
            basis.append(tuple(u[i][j] for i in range(cols)))
    return basis


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square integer or rational matrix, exact.

    Each row is scaled to integers by the lcm of its denominators, the
    integer matrix is reduced by fraction-free (Bareiss) elimination, whose
    divisions are exact, and the product of the scales is divided out.
    """
    m, scale = [], 1
    for row in rows:
        s = lcm(*(v.denominator for v in row))
        m.append([int(v * s) for v in row])
        scale *= s
    k = len(m)
    sign, prev = 1, 1
    for c in range(k - 1):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[piv], m[c] = m[c], m[piv]
            sign = -sign
        top, p = m[c], m[c][c]
        for r in range(c + 1, k):
            row, a = m[r], m[r][c]
            for j in range(c + 1, k):
                row[j] = (p * row[j] - a * top[j]) // prev
        prev = p
    return Fraction(sign * m[-1][-1], scale) if k else Fraction(1)


def gram_det(vectors: Sequence[Sequence]) -> Fraction:
    """det(<v_i, v_j>) computed exactly for integer or rational entries."""
    return det([[sum(map(mul, vi, vj)) for vj in vectors] for vi in vectors])


def wedge_norm_squared(vectors: Sequence[Sequence]) -> Fraction:
    """Squared Euclidean norm of v_1 ^ ... ^ v_k; 0 for dependent inputs."""
    return gram_det(vectors)


@dataclass(frozen=True)
class GrassmannCoords:
    """k x k minors of the row matrix of the input vectors, lexicographic."""

    dimension: int
    rank: int
    subsets: tuple[tuple[int, ...], ...]
    coefficients: tuple


def grassmann(vectors: Sequence[Sequence]) -> GrassmannCoords:
    k = len(vectors)
    d = len(vectors[0])
    subsets = tuple(combinations(range(d), k))
    coeffs = []
    all_int = all(isinstance(x, int) for v in vectors for x in v)
    for s in subsets:
        c = det([[row[j] for j in s] for row in vectors])
        coeffs.append(int(c) if all_int else c)
    return GrassmannCoords(d, k, subsets, tuple(coeffs))


@dataclass(frozen=True)
class Lattice:
    """A rank-k sublattice of Z^d given by an independent column basis."""

    basis: tuple[Vec, ...]  # k vectors of length d
    det_squared: Fraction

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def dimension(self) -> int:
        return len(self.basis[0]) if self.basis else 0

    @staticmethod
    def from_basis(vectors: Sequence[Sequence[int]]) -> "Lattice":
        vecs = tuple(tuple(int(x) for x in v) for v in vectors)
        ds = gram_det(vecs)
        if vecs and ds == 0:
            raise DependentInput("basis vectors are linearly dependent")
        return Lattice(vecs, ds)

    def contains(self, z: Sequence[int]) -> bool:
        """Exact membership: the row HNF is canonical, so z is in the lattice
        exactly when appending it leaves the HNF's nonzero rows unchanged."""
        def hnf_rows(vectors):
            return [row for row in _row_hnf(vectors)[0] if any(row)]

        if any(x != int(x) for x in z):  # _row_hnf would truncate it
            return False
        return hnf_rows(self.basis) == hnf_rows(self.basis + (tuple(z),))


def saturate(span_basis: Sequence[Sequence[int]]) -> Lattice:
    """The lattice (R-span of the columns) intersect Z^d."""
    vecs = [tuple(int(x) for x in v) for v in span_basis]
    if gram_det(vecs) == 0:
        raise DependentInput("span basis is linearly dependent")
    d = len(vecs[0])
    k = len(vecs)
    # z in span <=> z is orthogonal to the orthogonal complement lattice.
    normals = integer_kernel([list(v) for v in vecs]) if k < d else []
    if not normals:
        return Lattice.from_basis(identity_matrix(d))
    sat = integer_kernel([list(nv) for nv in normals])
    return Lattice.from_basis(sat)


def orthogonal_lattice(lat: Lattice) -> Lattice:
    """Integer points of the orthogonal complement of a saturated lattice."""
    if lat.rank == 0:
        return Lattice.from_basis(identity_matrix(lat.dimension))
    resat = saturate(lat.basis)
    if resat.det_squared != lat.det_squared:
        raise NotSaturated("input lattice is not saturated")
    if lat.rank == lat.dimension:
        return Lattice((), Fraction(1))
    perp = integer_kernel([list(v) for v in lat.basis])
    return Lattice.from_basis(perp)


def lll_reduce(basis: list[list[int]], weights: Sequence[int], dual: list[list[int]]) -> None:
    """LLL-reduce the rows of ``basis`` in place, with delta = 3/4, for the
    inner product sum_l weights[l] * u_l * v_l (positive integer weights).

    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    Algorithm 2.6.7): ``dd[i]`` is the Gram determinant of the first i rows
    and ``lam[i][j] = dd[j + 1] * mu_ij``, so every step is an exact integer
    operation.  ``dual`` follows the opposite operations (``basis[k] -= q *
    basis[l]`` adds ``q * dual[k]`` to ``dual[l]``, a swap swaps), so the
    pairings <basis[a], dual[b]> keep their values: a dual basis stays one.
    """
    def dot(u, v):
        return sum(map(mul, weights, map(mul, u, v)))

    n = len(basis)
    dd = [1, dot(basis[0], basis[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce_against(k, l):
        two_lam, den = 2 * lam[k][l], dd[l + 1]
        if abs(two_lam) > den:
            q = (two_lam + den) // (2 * den)  # nearest integer to lam / den
            basis[k] = [a - q * b for a, b in zip(basis[k], basis[l])]
            dual[l] = [a + q * b for a, b in zip(dual[l], dual[k])]
            row, pivot = lam[k], lam[l]
            row[l] -= q * den
            for i in range(l):
                row[i] -= q * pivot[i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            row = lam[k]
            for j in range(k + 1):
                u = dot(basis[k], basis[j])
                for i in range(j):
                    u = (dd[i + 1] * u - row[i] * lam[j][i]) // dd[i]
                if j < k:
                    row[j] = u
                elif u == 0:
                    raise DependentInput("basis vectors are linearly dependent")
                else:
                    dd[k + 1] = u
        reduce_against(k, k - 1)
        mu = lam[k][k - 1]
        if 4 * dd[k + 1] * dd[k - 1] < 3 * dd[k] ** 2 - 4 * mu * mu:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            dual[k - 1], dual[k] = dual[k], dual[k - 1]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new = (dd[k - 1] * dd[k + 1] + mu * mu) // dd[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (dd[k + 1] * lam[i][k - 1] - mu * t) // dd[k]
                lam[i][k - 1] = (new * t + mu * lam[i][k]) // dd[k + 1]
            dd[k] = new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce_against(k, l)
            k += 1
