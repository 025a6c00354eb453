import random
from fractions import Fraction

import pytest

from polaris.linalg import invert, kernel


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def zero(rows, cols):
    return [[0] * cols for _ in range(rows)]


def mul_vector(m, vector):
    return tuple(sum(a * v for a, v in zip(row, vector)) for row in m)


def naive_rank(m) -> int:
    # straight fraction Gaussian elimination, kept independent of the
    # library's integer-preserving route
    rows = [[Fraction(v) for v in r] for r in m]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / piv[col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], piv)]
        rank += 1
    return rank


def test_identity_kernel_empty():
    assert kernel(identity(3)) == []


def test_zero_matrix_full_kernel():
    basis = kernel(zero(2, 2))
    assert len(basis) == 2
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_pairing_form_kernel():
    # coefficient matrix of dx ^ dz with rows/cols ordered (x, y, z):
    # exactly the middle direction survives
    m = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]]
    assert kernel(m) == [(0, 1, 0)]


def test_kernel_vectors_annihilate():
    rng = random.Random(42)
    for _ in range(150):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(cols)]
             for _ in range(rows)]
        basis = kernel(m)
        for vec in basis:
            assert all(v == 0 for v in mul_vector(m, vec))
        assert len(basis) == cols - naive_rank(m)


def test_kernel_basis_is_normalized():
    basis = kernel([[Fraction(1, 2), 1, 0]])
    for vec in basis:
        assert all(v.denominator == 1 for v in vec)
        lead = next(v for v in vec if v)
        assert lead > 0


def test_invert_roundtrip():
    rng = random.Random(3)
    found = 0
    while found < 20:
        m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        try:
            inv = invert(m)
        except ValueError:
            continue
        found += 1
        product = [mul_vector(inv, col) for col in zip(*m)]
        assert [list(r) for r in zip(*product)] == identity(3)
        assert all(isinstance(v, Fraction) for row in inv for v in row)


def test_invert_singular():
    with pytest.raises(ValueError, match="singular"):
        invert(zero(2, 2))


def test_invert_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        invert([[1, 0, 0], [0, 1, 0]])


def test_ragged_rows_rejected():
    for m in ([[1, 2], [3]], [], [[]]):
        with pytest.raises(ValueError):
            kernel(m)
        with pytest.raises(ValueError):
            invert(m)
