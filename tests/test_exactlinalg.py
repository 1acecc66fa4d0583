import random
from fractions import Fraction
from itertools import combinations, permutations
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from diotrans.errors import DependentInput, NotSaturated
from diotrans.exactlinalg import (
    Lattice,
    det,
    gram_det,
    grassmann,
    hnf,
    integer_kernel,
    lll_reduce,
    orthogonal_lattice,
    saturate,
    wedge_norm_squared,
)


def test_gram_det_example_matches_minors():
    vecs = ((1, 2, 0), (0, 1, 1))
    assert gram_det(vecs) == 6
    g = grassmann(vecs)
    assert g.norm_squared() == 6  # 1^2 + 1^2 + 2^2


def test_wedge_of_dependent_vectors_is_zero():
    assert wedge_norm_squared(((1, 2), (2, 4))) == 0


def _mat_mul(a, b):
    """Reference matrix product of lists of rows."""
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def test_hnf_is_unimodular_transform():
    mat = [[4, 6, 2], [2, 2, 0]]
    h, u = hnf(mat)  # column-style: H = mat @ U with U unimodular
    assert _mat_mul(mat, u) == h
    # u is square integer with det +-1: recover via gram determinant
    assert gram_det(u) == 1


def test_integer_kernel_annihilates():
    mat = [[1, 2, 3], [0, 1, 1]]
    ker = integer_kernel(mat)
    assert len(ker) == 1
    (k,) = ker
    for row in mat:
        assert sum(a * b for a, b in zip(row, k)) == 0


def test_lattice_contains():
    lat = Lattice.from_basis([(2, 0), (1, 3)])
    assert lat.contains((3, 3))
    assert not lat.contains((1, 0))
    assert not Lattice.from_basis([(1, 0), (0, 1)]).contains((Fraction(1, 2), 0))


def test_from_basis_rejects_dependent():
    with pytest.raises(DependentInput):
        Lattice.from_basis([(1, 1), (2, 2)])


def test_saturate_divides_out_content():
    lat = saturate([(2, 0, 0)])
    assert lat.rank == 1
    assert lat.det_squared == 1
    assert lat.contains((1, 0, 0))


def test_orthogonal_lattice_requires_saturated():
    unsat = Lattice.from_basis([(2, 0, 0)])
    with pytest.raises(NotSaturated):
        orthogonal_lattice(unsat)


def test_orthogonal_covolume_equality_example():
    lat = saturate([(1, 2, 0), (0, 1, 1)])
    perp = orthogonal_lattice(lat)
    assert perp.rank == 1
    assert perp.det_squared == lat.det_squared == 6


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_covolume_equality_random(seed):
    rng = random.Random(seed)
    d = rng.randint(2, 6)
    k = rng.randint(1, d - 1)
    vecs = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(k)]
    if gram_det(vecs) == 0:
        return
    lat = saturate(vecs)
    perp = orthogonal_lattice(lat)
    assert perp.rank == d - lat.rank
    assert perp.det_squared == lat.det_squared
    # double-orthogonal returns to the original lattice
    back = orthogonal_lattice(perp)
    assert back.det_squared == lat.det_squared
    for v in lat.basis:
        assert back.contains(v)


def test_grassmann_norm_equals_gram_det_random():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.randint(2, 5)
        k = rng.randint(1, d)
        vecs = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(k)]
        assert grassmann(vecs).norm_squared() == gram_det(vecs)


def _leibniz(rows):
    """Determinant as the signed sum over permutations: the test oracle."""
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        term = Fraction(-1) ** sum(a > b for a, b in combinations(perm, 2))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _random_matrices(rng, k):
    """Integer, rational, singular, zero-leading-pivot and 400-bit matrices."""
    small = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
    rational = [[Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(k)]
                for _ in range(k)]
    huge = [[rng.getrandbits(400) - 2**399 for _ in range(k)] for _ in range(k)]
    yield small
    yield rational
    yield huge
    yield [[Fraction(v, rng.getrandbits(400) | 1) for v in row] for row in huge]
    if k >= 1:
        yield [[0] + row[1:] for row in small]  # zero first column: singular
        yield [[0] + rational[0][1:]] + rational[1:]  # zero leading pivot
    if k >= 2:
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        yield rational[:-1] + [[a + c * b for a, b in zip(rational[0], rational[1])]]
        yield [[0, 0] + row[2:] for row in small[:2]] + small[2:]  # pivot needs a swap


def test_det_matches_leibniz_oracle():
    rng = random.Random(2024)
    for k in range(6):
        for _ in range(6):
            for rows in _random_matrices(rng, k):
                got = det(rows)
                assert isinstance(got, Fraction)
                assert got == _leibniz(rows), rows


def _cramer_contains(basis, z):
    """z = sum c_i b_i with c_i = det(basis, row i replaced by z) / det(basis)."""
    d = _leibniz(basis)
    return all(_leibniz(basis[:i] + [list(z)] + basis[i + 1:]) % d == 0
               for i in range(len(basis)))


def test_contains_matches_cramer_on_full_rank_bases():
    rng = random.Random(99)
    checked = members = 0
    while checked < 400:
        k = rng.randint(2, 5)
        basis = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(k)]
        if _leibniz(basis) ** 2 <= 1:
            continue
        lat = Lattice.from_basis(basis)
        coeffs = [rng.randint(-3, 3) for _ in range(k)]
        point = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(k)]
        assert lat.contains(point)
        shifted = list(point)
        shifted[rng.randrange(k)] += 1
        assert lat.contains(shifted) == _cramer_contains(basis, shifted)
        members += lat.contains(shifted)
        checked += 1
    assert 0 < members < checked


def test_lll_reduce_is_reduced_for_its_weights_and_keeps_the_lattice():
    rng = random.Random(17)
    for trial in range(120):
        k = 1 + trial % 5
        basis = [[rng.randint(-10**6, 10**6) for _ in range(k)] for _ in range(k)]
        if _leibniz(basis) == 0:
            continue
        weights = [rng.choice((1, 3, 10**rng.randint(1, 12))) for _ in range(k)]
        # rows of the cofactor matrix: <basis[a], dual[b]> = det * (a == b)
        dual = [[(-1) ** (b + j) * _leibniz([row[:j] + row[j + 1:] for i, row in enumerate(basis)
                                             if i != b]) for j in range(k)] for b in range(k)]
        original = Lattice.from_basis(basis)
        reduced = [list(row) for row in basis]
        lll_reduce(reduced, weights, dual)
        assert all(original.contains(v) for v in reduced)
        assert all(Lattice.from_basis(reduced).contains(v) for v in basis)
        det_ = _leibniz(basis)
        assert [[sum(map(mul, u, v)) for v in dual] for u in reduced] == [
            [det_ * (a == b) for b in range(k)] for a in range(k)]
        # size reduction and the Lovasz condition (delta = 3/4), in rationals
        def dot(u, v):
            return sum(w * a * b for w, a, b in zip(weights, u, v))
        ortho = []
        for i, v in enumerate(reduced):
            star = [Fraction(a) for a in v]
            for j, bj in enumerate(ortho):
                mu = dot(v, bj) / dot(bj, bj)
                assert abs(mu) <= Fraction(1, 2)
                star = [a - mu * b for a, b in zip(star, bj)]
                if j == i - 1:
                    assert dot(star, star) >= (Fraction(3, 4) - mu**2) * dot(bj, bj)
            ortho.append(star)
