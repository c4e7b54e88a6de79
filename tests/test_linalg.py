import itertools
import random

import numpy as np
import pytest

from helpers import identity, random_matrix
from rackcoop import linalg
from rackcoop.field import gf256, prime_field
from rackcoop.linalg import (
    DimensionError,
    FieldMismatchError,
    Matrix,
    SingularMatrixError,
    cauchy,
    check_U_property,
    check_V_property,
    matmul,
    mds_generator,
    rank,
    solve,
    transpose,
    vandermonde,
    zeros,
)


def test_matmul_identity():
    f = gf256()
    a = random_matrix(f, 3, 5, random.Random(1))
    assert matmul(identity(f, 3), a) == a
    assert matmul(a, identity(f, 5)) == a


def test_rank_zero_matrix():
    assert rank(zeros(gf256(), 2, 4)) == 0


def test_matmul_dimension_and_field_errors():
    f = gf256()
    a = random_matrix(f, 2, 3, random.Random(0))
    with pytest.raises(DimensionError):
        matmul(a, a)
    b = random_matrix(prime_field(7), 3, 2, random.Random(0))
    with pytest.raises(FieldMismatchError):
        matmul(a, b)


def test_solve_vandermonde_against_polynomial_oracle():
    """Solving the transposed Vandermonde system must reproduce the
    coefficients of the interpolating polynomial (oracle: Horner evaluation)."""
    f = prime_field(13)
    pts = [2, 5, 7]
    coeffs = [4, 11, 3]

    def horner(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % 13
        return acc

    v = vandermonde(3, pts, f)
    evals = np.array([horner(x) for x in pts], dtype=np.int64)
    got = solve(transpose(v), evals)
    assert got.tolist() == coeffs


def test_solve_errors_are_distinct():
    f = gf256()
    singular = Matrix(f, np.array([[1, 2], [1, 2]]))
    with pytest.raises(SingularMatrixError):
        solve(singular, np.array([1, 2]))
    rect = zeros(f, 2, 3)
    with pytest.raises(DimensionError):
        solve(rect, np.array([1, 2]))
    sq = identity(f, 2)
    with pytest.raises(DimensionError):
        solve(sq, np.array([1, 2, 3]))


def test_vandermonde_definition():
    f = prime_field(11)
    v = vandermonde(2, [1, 2, 3, 4], f)
    assert v.data.tolist() == [[1, 1, 1, 1], [1, 2, 3, 4]]
    with pytest.raises(linalg.LinalgError):
        vandermonde(2, [1, 1, 3], f)


def test_vandermonde_all_square_column_subsets_invertible():
    f = prime_field(13)
    for t in (2, 3):
        v = vandermonde(t, [1, 2, 3, 5, 8, 11], f)
        for cols in itertools.combinations(range(6), t):
            assert rank(v.take_columns(cols)) == t


def test_vandermonde_top_rows_exhaustive_small():
    """Top m rows of a d-row Vandermonde: every m x m column submatrix
    invertible, exhaustively for d, r <= 6."""
    f = gf256()
    for r in range(2, 7):
        pts = list(range(1, r + 1))
        for d in range(1, min(r, 6) + 1):
            v = vandermonde(d, pts, f)
            for m in range(1, d + 1):
                top = v.take_rows(range(m))
                for cols in itertools.combinations(range(r), m):
                    assert rank(top.take_columns(cols)) == m


# ---------------------------------------------------------------------------
# MDS generators
# ---------------------------------------------------------------------------

def test_mds_square_case():
    g = mds_generator(3, 3, gf256())
    assert rank(g) == 3


def test_mds_2x4_gf7_all_pairs():
    """All six 2x2 column minors nonzero (determinant oracle)."""
    f = prime_field(7)
    g = mds_generator(2, 4, f, points=[1, 2, 3, 4])
    for i, j in itertools.combinations(range(4), 2):
        a, b = int(g.data[0, i]), int(g.data[0, j])
        c, d = int(g.data[1, i]), int(g.data[1, j])
        assert (a * d - b * c) % 7 != 0


def test_mds_18x28_random_subsets():
    g = mds_generator(18, 28, gf256())
    rng = random.Random(5)
    for _ in range(1000):
        cols = sorted(rng.sample(range(28), 18))
        assert rank(g.take_columns(cols)) == 18


def test_mds_too_long_for_field():
    with pytest.raises(linalg.LinalgError):
        mds_generator(2, 256, gf256())


# ---------------------------------------------------------------------------
# U / V structure checks
# ---------------------------------------------------------------------------

def test_check_U_vandermonde_true():
    f = gf256()
    u = vandermonde(2, [1, 2, 3, 4], f)
    assert check_U_property(u, 2, 2)


def test_check_U_repeated_column_false():
    f = gf256()
    bad = Matrix(f, np.array([[1, 1, 2, 3], [5, 5, 7, 9]]))
    assert not check_U_property(bad, 1, 2)


def test_check_V_vandermonde_4x4():
    f = gf256()
    v = vandermonde(4, [1, 2, 3, 4], f)
    assert check_V_property(v, 2, 2, 2)


def test_U_property_implies_solvable_submatrices():
    f = gf256()
    rng = random.Random(3)
    u = vandermonde(3, [5, 9, 17, 33, 65], f)
    assert check_U_property(u, 2, 3)
    for cols in itertools.combinations(range(5), 3):
        sub = u.take_columns(cols)
        x = solve(sub, np.array([rng.randrange(256) for _ in range(3)]))
        assert x.shape == (3,)


def test_cauchy_every_minor_invertible():
    f = prime_field(17)
    c = cauchy(f, [1, 2, 3], [4, 5, 6, 7])
    for size in (1, 2, 3):
        for rows in itertools.combinations(range(3), size):
            for cols in itertools.combinations(range(4), size):
                assert rank(c.take_rows(rows).take_columns(cols)) == size


# ---------------------------------------------------------------------------
# algebraic invariants on random instances
# ---------------------------------------------------------------------------

def test_rank_transpose_invariant():
    rng = random.Random(11)
    for f in (gf256(), prime_field(31)):
        for _ in range(10):
            a = random_matrix(f, rng.randint(1, 6), rng.randint(1, 6), rng)
            assert rank(a) == rank(transpose(a))


def test_matmul_associative_random():
    rng = random.Random(12)
    for f in (gf256(), prime_field(31)):
        for _ in range(5):
            a = random_matrix(f, 3, 4, rng)
            b = random_matrix(f, 4, 2, rng)
            c = random_matrix(f, 2, 5, rng)
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_solve_full_rank_overdetermined():
    f = gf256()
    rng = random.Random(13)
    a = random_matrix(f, 6, 3, rng)
    while rank(a) < 3:
        a = random_matrix(f, 6, 3, rng)
    x = np.array([7, 99, 200], dtype=np.int64)
    b = linalg.mat_vec(a, x)
    assert np.array_equal(linalg.solve_full_rank(a, b), x)
    # inconsistent right-hand side must be detected
    bad = b.copy()
    bad[5] ^= 1
    with pytest.raises(linalg.LinalgError):
        linalg.solve_full_rank(a, bad)
