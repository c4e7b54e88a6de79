"""Dense matrix algebra over a finite field.

Matrices carry their field.  ``products`` is the one field matrix product,
on raw arrays.  ``rank``, ``solve`` and ``solve_full_rank`` share one
elimination kernel: unscaled Gauss-Jordan with first-nonzero pivoting,
which is exact over a finite field.  Each pivot costs one in-place rank-1
update through the field's ``sub_outer``, and solutions are divided by
their pivots once at the end.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from .field import Field


class LinalgError(ValueError):
    pass


class DimensionError(LinalgError):
    pass


class SingularMatrixError(LinalgError):
    pass


@dataclass(frozen=True)
class Matrix:
    """Immutable rows x cols matrix with entries in ``field``."""

    field: Field
    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.int64)
        if arr.ndim != 2:
            raise DimensionError(f"matrix data must be 2-D, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.order):
            raise LinalgError("entry outside field range")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and np.array_equal(self.data, other.data)
        )

    def __hash__(self):
        return hash((self.field, self.data.tobytes(), self.data.shape))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def products(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The matrix product ``a @ b`` over ``f``, broadcast over leading axes, as
    one elementwise vec_mul and one vec_sum over the inner axis."""
    return f.vec_sum(f.vec_mul(a[..., :, :, None], b[..., None, :, :]), axis=-2)


def mat_vec(a: Matrix, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64)
    if v.ndim != 1 or v.size != a.cols:
        raise DimensionError(f"vector length {v.size} incompatible with {a.cols} columns")
    return products(a.field, a.data, v[:, None])[:, 0]


def vec_mat(v, a: Matrix) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64)
    if v.ndim != 1 or v.size != a.rows:
        raise DimensionError(f"vector length {v.size} incompatible with {a.rows} rows")
    return products(a.field, v[None, :], a.data)[0, :]


def _eliminate(f: Field, m: np.ndarray, cols: int) -> list[int]:
    """Unscaled Gauss-Jordan elimination of the first ``cols`` columns of
    ``m``, in place; returns the pivot columns.

    Column c's pivot is its first nonzero at or below the next pivot row,
    swapped up.  One rank-1 update, ``m[:, c+1:] -= factors (x) pivot row``
    with ``factors = m[:, c] / pivot`` and the pivot row's own factor zero,
    eliminates column c from every other row.  Column c itself is not
    written: its entries off the pivot are left stale, as no later step
    reads them.  Pivot rows keep their scale, so right of its pivot, pivot
    row i holds the reduced form's row i times ``m[i, pivots[i]]``.
    """
    rows = m.shape[0]
    pivots = []
    for c in range(cols):
        rr = len(pivots)
        if rr == rows:
            break
        nz = m[rr:, c].nonzero()[0]
        if not nz.size:
            continue
        pr = rr + int(nz[0])
        if pr != rr:
            m[[rr, pr]] = m[[pr, rr]]
        factors = f.vec_mul(m[:, c], f.inv(int(m[rr, c])))
        factors[rr] = 0
        f.sub_outer(m[:, c + 1 :], factors, m[rr, c + 1 :])
        pivots.append(c)
    return pivots


def rank(a: Matrix) -> int:
    return len(_eliminate(a.field, a.data.copy(), a.cols))


def full_column_rank(f: Field, stack) -> np.ndarray:
    """For each matrix of a ``(b, R, C)`` stack, whether its rank is C.

    All matrices are eliminated together, one column at a time: each takes
    its first nonzero pivot at or below row c, and only the trailing block
    below and right of the pivot is updated.  A matrix without a pivot in
    some column is rank deficient and leaves the batch.
    """
    m = np.array(stack, dtype=np.int64)
    b, rows, cols = m.shape
    full = np.zeros(b, dtype=bool)
    if cols > rows:
        return full
    live = np.arange(b)
    for c in range(cols):
        nonzero = m[:, c:, c] != 0
        found = nonzero.any(axis=1)
        if not found.all():
            live, m, nonzero = live[found], m[found], nonzero[found]
        if not live.size:
            return full
        at = np.arange(live.size)
        pr = c + nonzero.argmax(axis=1)
        pivot_row = f.vec_mul(m[at, pr, c + 1:], f.vec_inv(m[at, pr, c])[:, None])
        m[at, pr, c:] = m[:, c, c:]  # row c takes the pivot's place; row c is not read again
        m[:, c + 1:, c + 1:] = f.vec_sub(
            m[:, c + 1:, c + 1:], f.vec_mul(m[:, c + 1:, c, None], pivot_row[:, None, :]))
    full[live] = True
    return full


def _reduce_augmented(a: Matrix, b):
    """Eliminated ``[a | b]`` (a fresh array), the rank of ``a``, and whether
    ``b`` is a vector."""
    b = np.asarray(b, dtype=np.int64)
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b
    if rhs.shape[0] != a.rows:
        raise DimensionError(f"rhs has {rhs.shape[0]} rows, expected {a.rows}")
    aug = np.hstack([a.data, rhs])
    return aug, len(_eliminate(a.field, aug, a.cols)), vector


def _solution(f: Field, aug: np.ndarray, cols: int, vector: bool) -> np.ndarray:
    """x from an eliminated ``[a | b]`` with pivots on the first ``cols``
    diagonal entries: each pivot row's right-hand side over its pivot."""
    x = f.vec_mul(aug[:cols, cols:], f.vec_inv(np.diagonal(aug)[:cols])[:, None])
    return x[:, 0] if vector else x


def solve(a: Matrix, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square invertible ``a``."""
    if a.rows != a.cols:
        raise DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    aug, rk, vector = _reduce_augmented(a, b)
    if rk < a.cols:
        raise SingularMatrixError(f"matrix is singular (rank {rk} < {a.cols})")
    return _solution(a.field, aug, a.cols, vector)


def solve_full_rank(a: Matrix, b) -> np.ndarray:
    """Solve a consistent, possibly overdetermined system with rank = cols.

    Raises ``SingularMatrixError`` when the column rank is deficient and
    ``LinalgError`` when the system is inconsistent.
    """
    aug, rk, vector = _reduce_augmented(a, b)
    if rk < a.cols:
        raise SingularMatrixError(f"column rank {rk} < {a.cols}, system underdetermined")
    if np.any(aug[a.cols :, a.cols :]):
        raise LinalgError("inconsistent linear system")
    return _solution(a.field, aug, a.cols, vector)


def vandermonde(rows: int, points, field: Field) -> Matrix:
    """Matrix with entry (i, j) = points[j]**i.

    Every rows x rows column submatrix is a square Vandermonde matrix on
    distinct points and hence invertible, so for rows <= len(points) this is
    the generator of an MDS code; the distinctness check certifies it.
    """
    pts = [field.check(p) for p in points]
    if len(set(pts)) != len(pts):
        raise LinalgError("Vandermonde points must be distinct")
    if rows > field.order:
        raise LinalgError(f"{rows} rows exceed field order {field.order}")
    data = np.ones((rows, len(pts)), dtype=np.int64)
    power = np.array(pts, dtype=np.int64)  # points ** filled
    filled = 1
    while filled < rows:  # rows[f:2f] = rows[:f] * points**f
        step = min(filled, rows - filled)
        data[filled : filled + step] = field.vec_mul(data[:step], power)
        filled += step
        if filled < rows:
            power = field.vec_mul(power, power)
    return Matrix(field, data)


# One subset rule for every sampled check: all k-subsets of n while there
# are at most SUBSET_LIMIT of them, otherwise SUBSET_SAMPLES seeded samples.
SUBSET_LIMIT = 10_000
SUBSET_SAMPLES = 1_000


def _subsets(n: int, k: int, seed: int):
    if math.comb(n, k) <= SUBSET_LIMIT:
        yield from itertools.combinations(range(n), k)
        return
    rng = random.Random(seed)
    for _ in range(SUBSET_SAMPLES):
        yield tuple(sorted(rng.sample(range(n), k)))


# Matrix entries eliminated together in one full_column_rank block.  The
# working set is a few times this many int64 entries (8 MiB each), which keeps
# the (24,12,6,12,2,2) build's peak memory within tens of MB.
BATCH_ENTRIES = 1 << 20


def first_deficient(f: Field, subsets, gather):
    """The first of ``subsets`` whose matrix has rank below its column count,
    or None.  ``gather`` maps a ``(b, size)`` array of subsets to their
    ``(b, R, C)`` stack of matrices.  A repeated subset is checked once."""
    distinct = np.array(list(dict.fromkeys(subsets)), dtype=np.intp)
    if not distinct.size:
        return None
    step = max(1, BATCH_ENTRIES // gather(distinct[:1])[0].size)
    for start in range(0, len(distinct), step):
        block = distinct[start : start + step]
        bad = np.flatnonzero(~full_column_rank(f, gather(block)))
        if bad.size:
            return tuple(int(j) for j in block[bad[0]])
    return None


def check_U_property(u: Matrix, m: int, d: int) -> bool:
    """Every m x m column submatrix of the top m rows invertible, and every
    d x d column submatrix of the whole matrix invertible."""
    if u.rows != d:
        raise DimensionError(f"matrix has {u.rows} rows, expected d={d}")
    return _top_and_full_check(u, m, d)


def check_V_property(v: Matrix, m: int, d: int, f: int) -> bool:
    """Same as the U check with full-size d+f instead of d."""
    if v.rows != d + f:
        raise DimensionError(f"matrix has {v.rows} rows, expected d+f={d + f}")
    return _top_and_full_check(v, m, d + f)


def _top_and_full_check(mat: Matrix, m: int, full: int) -> bool:
    def columns(rows):  # a (b, size) array of column subsets -> (b, len(rows), size)
        return lambda idx: rows[:, idx].transpose(1, 0, 2)

    if first_deficient(mat.field, _subsets(mat.cols, m, 0), columns(mat.data[:m])) is not None:
        return False
    return full > mat.cols or first_deficient(
        mat.field, _subsets(mat.cols, full, 1), columns(mat.data)) is None


def cauchy(field: Field, xs, ys) -> Matrix:
    """Cauchy matrix 1/(x_i - y_j); every square submatrix is invertible."""
    xs = [field.check(x) for x in xs]
    ys = [field.check(y) for y in ys]
    if len(set(xs) | set(ys)) != len(xs) + len(ys):
        raise LinalgError("Cauchy parameters must be pairwise distinct")
    x = np.array(xs, dtype=np.int64)
    y = np.array(ys, dtype=np.int64)
    return Matrix(field, field.vec_inv(field.vec_sub(x[:, None], y[None, :])))
