"""Exact integer/rational linear algebra.

Hermite normal form over the columns, integer kernels, lattice saturation,
orthogonal integer lattices, one fraction-free determinant behind the Gram
determinant, and LLL reduction: float-guided with exact integer updates,
and integral.
Matrices are plain lists of rows; lattice bases are tuples of vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DependentInput, NotSaturated
from .verify import dot

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
    """det(<v_i, v_j>) computed exactly for integer or rational entries: the
    squared Euclidean norm of the wedge v_1 ^ ... ^ v_k, 0 for dependent
    inputs."""
    return det([[dot(vi, vj) for vj in vectors] for vi in vectors])


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
    The library reaches it only through ``lll_guided``: on Gram diagonals of
    at most 64 bits, and as the fallback when the doubles fail.
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


DELTA = 0.75  # Lovasz constant of the float test
ETA = 0.51  # size-reduction bound of the float test
_WORD_BITS = 64  # Gram diagonals this narrow go to the integral LLL
_EXP_BITS = 1000  # doubles span 2^-1074 .. 2^1024; Gram values stay in 2^(+-1000)
_ROUNDS = 8  # size-reduction passes of one row before the doubles are given up


def lll_guided(basis: list[list[int]], weights: Sequence[int], dual: list[list[int]]) -> None:
    """LLL-reduce the rows of ``basis`` in place for the inner product
    sum_l weights[l] * u_l * v_l (positive integer weights): doubles choose
    every step, and every step is an exact integer row operation
    (Schnorr & Euchner 1994; Nguyen & Stehle's L^2, SIAM J. Comput. 39, 2009).

    The weighted Gram matrix G is kept exactly in integers: ``basis[k] -= q *
    basis[j]`` turns G_kk into G_kk - 2q G_kj + q^2 G_jj and G_ki into
    G_ki - q G_ji, and a swap permutes rows and columns.  The Gram-Schmidt
    coefficients mu_kj and squared lengths r_kk are computed in doubles from
    G over one common power of two.  Row k is size-reduced by q = round(mu_kj)
    and its mu recomputed from the new G until every |mu_kj| <= ETA; it is
    then swapped with row k - 1 when r_kk < (DELTA - mu_k,k-1^2) r_k-1,k-1.
    ``basis`` and ``dual`` change only by ``lll_reduce``'s unimodular row
    operations, so the pairings <basis[a], dual[b]> keep their values.

    The result is reduced for DELTA and ETA in doubles; the tests check it
    exactly for delta = 0.74 and eta = 0.52, which leaves room for their
    rounding.  ``lll_reduce`` (delta = 3/4, eta = 1/2) reduces the basis
    instead when every G_ii has at most 64 bits, where its integers are one
    word wide and it is the cheaper (the bound len(weights) * max weight *
    max entry^2 on G_ii decides this first when the largest weight has at
    most 64 bits, and the exact diagonal otherwise); and it finishes the
    reduction from the current basis when the doubles fail: G's diagonal
    spans more bits than a double's exponent holds, some r_kk <= 0 or a
    value overflows, a row is not size-reduced after ``_ROUNDS`` passes, or
    the steps exceed the bound of LLL's potential argument (every swap
    shrinks the product of the Gram determinants of the leading rows, an
    integer >= 1, by a factor < 0.76).
    """
    heaviest = max(weights)
    if heaviest.bit_length() <= _WORD_BITS:
        big = max(map(abs, chain.from_iterable(basis)))
        if (len(weights) * heaviest * big * big).bit_length() <= _WORD_BITS:
            lll_reduce(basis, weights, dual)
            return
    d = len(basis)
    diag = [sum(map(mul, weights, map(mul, b, b))) for b in basis]
    top, low = max(diag).bit_length(), min(diag).bit_length()
    shift = max(top - _EXP_BITS, 0)
    if top > _WORD_BITS and low > shift - _EXP_BITS:
        try:
            if _guided_steps(basis, weights, dual, diag, 1 << shift, 3 * d * d * top):
                return
        except OverflowError:  # a Gram value or a mu past the doubles' range
            pass
    lll_reduce(basis, weights, dual)


def _guided_steps(basis, weights, dual, diag, unit, steps):
    """The float-guided loop of ``lll_guided`` on the Gram values over
    ``unit``; False (or OverflowError) when the doubles fail.  ``basis`` and
    ``dual`` are a dual pair of bases between any two steps, which
    ``lll_reduce`` can finish."""
    d = len(basis)
    gram = [[0] * d for _ in range(d)]
    for i, b in enumerate(basis):
        weighted = list(map(mul, weights, b))
        gram[i][i] = diag[i]
        for j in range(i):
            gram[i][j] = gram[j][i] = dot(weighted, basis[j])
    rdiag = [0.0] * d
    r = [[0.0] * d for _ in range(d)]  # r[k][j] = <b_k, b_j*> for j < k
    mu = [[0.0] * d for _ in range(d)]
    k = 0
    while k < d:
        steps -= 1
        if steps < 0:
            return False
        rk, muk, gk = r[k], mu[k], gram[k]
        for _ in range(_ROUNDS):
            size = 0.0
            for j in range(k):
                rkj, muj = gk[j] / unit, mu[j]
                for l in range(j):
                    rkj -= muj[l] * rk[l]
                rk[j] = rkj
                muk[j] = rkj / rdiag[j]
                size = max(size, abs(muk[j]))
            if size <= ETA:
                break
            for j in range(k - 1, -1, -1):
                q = round(muk[j])
                if q:
                    muj, gj = mu[j], gram[j]
                    for l in range(j):
                        muk[l] -= q * muj[l]
                    basis[k] = [a - q * b for a, b in zip(basis[k], basis[j])]
                    dual[j] = [a + q * b for a, b in zip(dual[j], dual[k])]
                    gk[k] += q * (q * gj[j] - 2 * gk[j])
                    for i in range(d):
                        if i != k:
                            gk[i] -= q * gj[i]
                            gram[i][k] = gk[i]
        else:
            return False
        # s = r_kk + mu_k,k-1 r_k,k-1, tested before its last term is taken
        # off: a b_k that is short against b_k-1* makes r_kk a cancellation
        s = gk[k] / unit
        for j in range(k - 1):
            s -= muk[j] * rk[j]
        if k and s < DELTA * rdiag[k - 1]:
            basis[k - 1], basis[k] = basis[k], basis[k - 1]
            dual[k - 1], dual[k] = dual[k], dual[k - 1]
            gram[k - 1], gram[k] = gram[k], gram[k - 1]
            for row in gram:
                row[k - 1], row[k] = row[k], row[k - 1]
            k -= 1
            continue
        rdiag[k] = s - muk[k - 1] * rk[k - 1] if k else s
        if not rdiag[k] > 0:
            return False
        k += 1
    return True
