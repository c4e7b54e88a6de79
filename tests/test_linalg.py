import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    identity,
    random_matrix,
    reference_cauchy,
    reference_matmul,
    reference_rank,
    reference_solve,
    reference_solve_full_rank,
    reference_vandermonde,
)
from rackcoop import linalg
from rackcoop.field import gf256, gf65536, prime_field
from rackcoop.linalg import (
    DimensionError,
    Matrix,
    SingularMatrixError,
    cauchy,
    check_U_property,
    check_V_property,
    full_column_rank,
    products,
    rank,
    solve,
    vandermonde,
)


def test_matmul_identity():
    f = gf256()
    a = random_matrix(f, 3, 5, random.Random(1))
    assert np.array_equal(products(f, identity(f, 3).data, a.data), a.data)
    assert np.array_equal(products(f, a.data, identity(f, 5).data), a.data)


def test_rank_zero_matrix():
    assert rank(Matrix(gf256(), np.zeros((2, 4), dtype=np.int64))) == 0


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
    got = solve(Matrix(f, v.data.T), evals)
    assert got.tolist() == coeffs


def test_solve_errors_are_distinct():
    f = gf256()
    singular = Matrix(f, np.array([[1, 2], [1, 2]]))
    with pytest.raises(SingularMatrixError):
        solve(singular, np.array([1, 2]))
    rect = Matrix(f, np.zeros((2, 3), dtype=np.int64))
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
            assert rank(Matrix(f, v.data[:, list(cols)])) == t


def test_vandermonde_top_rows_exhaustive_small():
    """Top m rows of a d-row Vandermonde: every m x m column submatrix
    invertible, exhaustively for d, r <= 6."""
    f = gf256()
    for r in range(2, 7):
        pts = list(range(1, r + 1))
        for d in range(1, min(r, 6) + 1):
            v = vandermonde(d, pts, f)
            for m in range(1, d + 1):
                for cols in itertools.combinations(range(r), m):
                    assert rank(Matrix(f, v.data[:m, list(cols)])) == m


# ---------------------------------------------------------------------------
# Vandermonde as an MDS generator (the outer code G)
# ---------------------------------------------------------------------------

def test_mds_square_case():
    g = vandermonde(3, [1, 2, 3], gf256())
    assert rank(g) == 3


def test_mds_2x4_gf7_all_pairs():
    """All six 2x2 column minors nonzero (determinant oracle)."""
    f = prime_field(7)
    g = vandermonde(2, [1, 2, 3, 4], f)
    for i, j in itertools.combinations(range(4), 2):
        a, b = int(g.data[0, i]), int(g.data[0, j])
        c, d = int(g.data[1, i]), int(g.data[1, j])
        assert (a * d - b * c) % 7 != 0


def test_mds_18x28_random_subsets():
    f = gf256()
    g = vandermonde(18, range(1, 29), f)
    rng = random.Random(5)
    for _ in range(1000):
        cols = sorted(rng.sample(range(28), 18))
        assert rank(Matrix(f, g.data[:, cols])) == 18


def test_mds_too_long_for_field():
    """GF(2^8) has 256 elements, so 257 points must repeat one.  The build's
    own outer-code length limit is test_build_field_too_small."""
    with pytest.raises(linalg.LinalgError, match="distinct"):
        vandermonde(2, [x % 256 for x in range(1, 258)], gf256())


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
        sub = Matrix(f, u.data[:, list(cols)])
        x = solve(sub, np.array([rng.randrange(256) for _ in range(3)]))
        assert x.shape == (3,)


def test_cauchy_every_minor_invertible():
    f = prime_field(17)
    c = cauchy(f, [1, 2, 3], [4, 5, 6, 7])
    for size in (1, 2, 3):
        for rows in itertools.combinations(range(3), size):
            for cols in itertools.combinations(range(4), size):
                assert rank(Matrix(f, c.data[np.ix_(rows, cols)])) == size


_FIELDS = (gf256(), gf65536(), prime_field(257))


@st.composite
def _distinct_points(draw):
    f = draw(st.sampled_from(_FIELDS))
    points = draw(st.lists(st.integers(0, f.order - 1), unique=True, max_size=12))
    return f, points


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_distinct_points(), st.integers(1, 20), st.data())
def test_constructors_match_per_entry_reference(case, rows, data):
    """The doubling Vandermonde and the one-pass Cauchy build exactly the
    arrays of the row-by-row and entry-by-entry references, including rows
    beyond the number of points and empty xs or ys."""
    f, points = case
    assert vandermonde(rows, points, f) == reference_vandermonde(rows, points, f)
    split = data.draw(st.integers(0, len(points)))
    xs, ys = points[:split], points[split:]
    got = cauchy(f, xs, ys)
    assert got == reference_cauchy(f, xs, ys) and got.data.shape == (len(xs), len(ys))


def test_constructors_edge_cases_match_reference():
    for f in _FIELDS:
        for rows, points in ((1, [3, 5]), (1, []), (3, []), (7, [2, 9]), (16, [1, 2, 3])):
            assert vandermonde(rows, points, f) == reference_vandermonde(rows, points, f)
        for xs, ys in (([], []), ([], [1, 2]), ([1, 2], []), ([4], [7])):
            assert cauchy(f, xs, ys) == reference_cauchy(f, xs, ys)


# ---------------------------------------------------------------------------
# algebraic invariants on random instances
# ---------------------------------------------------------------------------

def test_rank_transpose_invariant():
    rng = random.Random(11)
    for f in (gf256(), prime_field(31)):
        for _ in range(10):
            a = random_matrix(f, rng.randint(1, 6), rng.randint(1, 6), rng)
            assert rank(a) == rank(Matrix(f, a.data.T))


def test_matmul_associative_random():
    rng = random.Random(12)
    for f in (gf256(), prime_field(31)):
        for _ in range(5):
            a, b, c = (random_matrix(f, rows, cols, rng).data
                       for rows, cols in ((3, 4), (4, 2), (2, 5)))
            left = products(f, products(f, a, b), c)
            assert np.array_equal(left, products(f, a, products(f, b, c)))


@st.composite
def _product_operands(draw):
    """A field and two stacks of matrices: shared leading axes on b, the same
    or none on a, and every dimension possibly zero."""
    f = draw(st.sampled_from(_FIELDS))
    batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    rows, inner, cols = (draw(st.integers(0, 5)) for _ in range(3))

    def stack(shape):
        size = int(np.prod(shape))
        entries = draw(st.lists(st.integers(0, f.order - 1), min_size=size, max_size=size))
        return np.array(entries, dtype=np.int64).reshape(shape)

    a_batch = batch if draw(st.booleans()) else ()
    return f, stack(a_batch + (rows, inner)), stack(batch + (inner, cols))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_product_operands())
def test_products_match_loop_reference(case):
    """The broadcast product equals the rank-1-update loop on every matrix of
    the stack, with a 2-D left operand broadcast across b's leading axes."""
    f, a, b = case
    got = products(f, a, b)
    assert got.shape == b.shape[:-2] + (a.shape[-2], b.shape[-1])
    for idx in np.ndindex(b.shape[:-2]):
        left = a[idx] if a.ndim == b.ndim else a
        assert np.array_equal(got[idx], reference_matmul(f, left, b[idx]))


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


# ---------------------------------------------------------------------------
# batched full-column-rank check against the one-matrix rank
# ---------------------------------------------------------------------------

KINDS = ("random", "small", "zero", "repeated_row", "planted")
FIELDS = (gf256(), gf65536(), prime_field(257))


@st.composite
def _stacks(draw):
    """A field and a (b, R, C) stack, wide, square or tall, whose matrices are
    random, small-entried, zero, with a repeated row, or with one column
    planted as a combination of the others."""
    f = draw(st.sampled_from(FIELDS))
    b, rows, cols = (draw(st.integers(1, hi)) for hi in (6, 7, 7))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=b, max_size=b))
    return f, np.stack([_kind_matrix(f, kind, rows, cols, rng) for kind in kinds])


def _kind_matrix(f, kind, rows, cols, rng):
    """A rows x cols matrix of one of the KINDS."""
    top = 3 if kind == "small" else f.order
    m = np.array([[rng.randrange(top) for _ in range(cols)] for _ in range(rows)],
                 dtype=np.int64).reshape(rows, cols)
    if kind == "zero":
        m[:] = 0
    elif kind == "repeated_row" and rows > 1:
        m[rng.randrange(1, rows)] = m[0]
    elif kind == "planted" and cols > 1:
        j = rng.randrange(cols)
        m[:, j] = 0
        for t in range(cols):
            if t != j:
                m[:, j] = f.vec_add(m[:, j], f.vec_mul(m[:, t], rng.randrange(f.order)))
    return m


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_stacks())
def test_full_column_rank_matches_rank(case):
    f, stack = case
    expected = [rank(Matrix(f, m)) == stack.shape[2] for m in stack]
    assert full_column_rank(f, stack).tolist() == expected


def test_full_column_rank_leaves_input_and_handles_empty_shapes():
    f = gf256()
    stack = np.array([[[1, 2], [2, 4]], [[1, 2], [3, 4]]], dtype=np.int64)
    before = stack.copy()
    assert full_column_rank(f, stack).tolist() == [False, True]
    assert np.array_equal(stack, before)
    assert full_column_rank(f, np.zeros((3, 2, 0), dtype=np.int64)).tolist() == [True] * 3
    assert full_column_rank(f, np.zeros((0, 4, 3), dtype=np.int64)).tolist() == []


def test_first_deficient_keeps_subset_order_across_blocks(monkeypatch):
    """Blocks of one matrix each give the same first failure as one block."""
    f = gf256()
    u = Matrix(f, np.array([[1, 1, 2, 3, 3], [5, 5, 7, 9, 9]]))
    subsets = [(0, 2), (3, 4), (1, 2), (0, 1), (3, 4)]

    def gather(idx):
        return u.data[:, idx].transpose(1, 0, 2)

    assert linalg.first_deficient(f, subsets, gather) == (3, 4)
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", 1)
    assert linalg.first_deficient(f, subsets, gather) == (3, 4)
    assert linalg.first_deficient(f, subsets[:1] + subsets[2:3], gather) is None


# ---------------------------------------------------------------------------
# the unscaled elimination kernel against the scaled reference
# ---------------------------------------------------------------------------


@st.composite
def _systems(draw):
    """A field, a square, tall, wide or zero-size matrix of one of the KINDS,
    and a right-hand side: a vector or a matrix of 0..3 columns, either a @ x
    (consistent) or random entries, with one row too many one time in ten."""
    f = draw(st.sampled_from(FIELDS))
    shape = draw(st.sampled_from(("square", "tall", "wide", "zero-size")))
    if shape == "zero-size":
        rows, cols = draw(st.sampled_from([(0, 0), (0, 2), (3, 0)]))
    else:
        small, large = sorted(draw(st.integers(1, 8)) for _ in range(2))
        rows, cols = {"square": (large, large), "tall": (large + 1, small),
                      "wide": (small, large + 1)}[shape]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = _kind_matrix(f, draw(st.sampled_from(KINDS)), rows, cols, rng)
    rhs_cols = draw(st.sampled_from((None, 0, 1, 2, 3)))
    width = 1 if rhs_cols is None else rhs_cols
    if draw(st.booleans()):
        x = np.array([rng.randrange(f.order) for _ in range(cols * width)],
                     dtype=np.int64).reshape(cols, width)
        b = products(f, a, x)
    else:
        b = np.array([rng.randrange(f.order) for _ in range(rows * width)],
                     dtype=np.int64).reshape(rows, width)
    if draw(st.integers(0, 9)) == 0:
        b = np.vstack([b, np.ones((1, width), dtype=np.int64)])
    return Matrix(f, a), b[:, 0] if rhs_cols is None else b


def _outcome(fn, *args):
    try:
        x = fn(*args)
    except linalg.LinalgError as exc:
        return type(exc), str(exc)
    return x.dtype, x.shape, x.tolist()


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(_systems())
def test_elimination_matches_reference_kernel(case):
    """Same rank, same solution, same exception class and message as the
    scaled reference elimination, for solve and solve_full_rank."""
    a, b = case
    assert rank(a) == reference_rank(a)
    assert _outcome(solve, a, b) == _outcome(reference_solve, a, b)
    assert _outcome(linalg.solve_full_rank, a, b) == _outcome(reference_solve_full_rank, a, b)


@pytest.mark.parametrize("f", [gf256(), prime_field(257)], ids=["gf256", "gf257"])
@pytest.mark.parametrize("width", [None, 2])
def test_solvers_leave_inputs_unchanged_and_unaliased(f, width):
    """The kernel eliminates in place, so the caller's matrix and right-hand
    side must come back unchanged and no result may share their memory."""
    rng = random.Random(5)
    a = random_matrix(f, 4, 4, rng)
    while rank(a) < 4:
        a = random_matrix(f, 4, 4, rng)
    tall = Matrix(f, np.vstack([a.data, a.data[:1]]))
    data_before = a.data.copy()
    for m in (a, tall):
        shape = (m.rows,) if width is None else (m.rows, width)
        x = np.array([rng.randrange(f.order) for _ in range(4 * (width or 1))],
                     dtype=np.int64).reshape(4, -1)
        b = products(f, m.data, x).reshape(shape)  # writable, consistent
        b_before = b.copy()
        results = [linalg.solve_full_rank(m, b)] + ([solve(m, b)] if m is a else [])
        assert rank(m) == 4
        for got in results:
            assert np.array_equal(got.reshape(4, -1), x)
            assert not np.shares_memory(got, b) and not np.shares_memory(got, m.data)
        assert np.array_equal(b, b_before)
    assert np.array_equal(a.data, data_before)
