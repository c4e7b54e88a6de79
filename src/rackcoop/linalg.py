"""Dense matrix algebra over a finite field.

Matrices carry their field; mixing matrices from different fields raises
``FieldMismatchError``.  Elimination uses first-nonzero pivoting, which is
exact over a finite field, and the row operations are vectorized through
the field's ``vec_*`` primitives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .field import Field


class LinalgError(ValueError):
    pass


class DimensionError(LinalgError):
    pass


class FieldMismatchError(LinalgError):
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

    def column(self, j: int) -> np.ndarray:
        return self.data[:, j].copy()

    def take_columns(self, cols) -> "Matrix":
        return Matrix(self.field, self.data[:, list(cols)])

    def take_rows(self, rows) -> "Matrix":
        return Matrix(self.field, self.data[list(rows), :])

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


def _same_field(a: Matrix, b: Matrix) -> Field:
    if a.field != b.field:
        raise FieldMismatchError("operands belong to different fields")
    return a.field


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    return Matrix(field, np.zeros((rows, cols), dtype=np.int64))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    f = _same_field(a, b)
    if a.cols != b.rows:
        raise DimensionError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix(f, _raw_matmul(f, a.data, b.data))


def _raw_matmul(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for t in range(a.shape[1]):
        out = f.vec_add(out, f.vec_mul(a[:, t][:, None], b[t, :][None, :]))
    return out


def mat_vec(a: Matrix, v) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64)
    if v.ndim != 1 or v.size != a.cols:
        raise DimensionError(f"vector length {v.size} incompatible with {a.cols} columns")
    return _raw_matmul(a.field, a.data, v[:, None])[:, 0]


def vec_mat(v, a: Matrix) -> np.ndarray:
    v = np.asarray(v, dtype=np.int64)
    if v.ndim != 1 or v.size != a.rows:
        raise DimensionError(f"vector length {v.size} incompatible with {a.rows} rows")
    return _raw_matmul(a.field, v[None, :], a.data)[0, :]


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.field, a.data.T)


def _rref(f: Field, m: np.ndarray, col_limit: int | None = None):
    """In-place reduced row echelon form; returns the list of pivot columns."""
    rows, cols = m.shape
    limit = cols if col_limit is None else col_limit
    pivots = []
    rr = 0
    for c in range(limit):
        if rr == rows:
            break
        nz = np.nonzero(m[rr:, c])[0]
        if nz.size == 0:
            continue
        pr = rr + int(nz[0])
        if pr != rr:
            m[[rr, pr]] = m[[pr, rr]]
        pivot_inv = f.inv(int(m[rr, c]))
        m[rr] = f.vec_mul(m[rr], pivot_inv)
        others = np.nonzero(m[:, c])[0]
        others = others[others != rr]
        if others.size:
            factors = m[others, c][:, None]
            m[others] = f.vec_sub(m[others], f.vec_mul(factors, m[rr][None, :]))
        pivots.append(c)
        rr += 1
    return pivots


def rank(a: Matrix) -> int:
    m = a.data.copy()
    return len(_rref(a.field, m))


def _reduce_augmented(a: Matrix, b):
    """Reduced ``[a | b]``, the rank of ``a``, and whether ``b`` is a vector."""
    b = np.asarray(b, dtype=np.int64)
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b
    if rhs.shape[0] != a.rows:
        raise DimensionError(f"rhs has {rhs.shape[0]} rows, expected {a.rows}")
    aug = np.hstack([a.data.copy(), rhs.copy()])
    return aug, len(_rref(a.field, aug, col_limit=a.cols)), vector


def solve(a: Matrix, b) -> np.ndarray:
    """Solve ``a @ x = b`` for square invertible ``a``."""
    if a.rows != a.cols:
        raise DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    aug, rk, vector = _reduce_augmented(a, b)
    if rk < a.cols:
        raise SingularMatrixError(f"matrix is singular (rank {rk} < {a.cols})")
    x = aug[:, a.cols :]
    return x[:, 0] if vector else x


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
    x = aug[: a.cols, a.cols :]
    return x[:, 0] if vector else x


def vandermonde(rows: int, points, field: Field) -> Matrix:
    """Matrix with entry (i, j) = points[j]**i."""
    pts = [field.check(p) for p in points]
    if len(set(pts)) != len(pts):
        raise LinalgError("Vandermonde points must be distinct")
    if rows > field.order:
        raise LinalgError(f"{rows} rows exceed field order {field.order}")
    data = np.zeros((rows, len(pts)), dtype=np.int64)
    data[0, :] = 1
    for i in range(1, rows):
        data[i] = field.vec_mul(data[i - 1], np.array(pts, dtype=np.int64))
    return Matrix(field, data)


def mds_generator(
    b_dim: int,
    n: int,
    field: Field,
    points=None,
    *,
    exhaustive_limit: int = 2000,
    samples: int = 300,
    seed: int = 0,
) -> Matrix:
    """Generator of an MDS code: every b_dim x b_dim column submatrix invertible.

    Realized as a Vandermonde matrix on distinct nonzero points, which makes
    the property structural; it is still verified (exhaustively while the
    number of column subsets stays below ``exhaustive_limit``, by seeded
    sampling otherwise).
    """
    if b_dim > n:
        raise DimensionError(f"b_dim {b_dim} exceeds length {n}")
    if points is None:
        if n > field.order - 1:
            raise LinalgError(f"length {n} too large for field of order {field.order}")
        points = list(range(1, n + 1))
    else:
        points = list(points)
        if len(points) != n:
            raise DimensionError(f"expected {n} points, got {len(points)}")
        if any(p == 0 for p in points):
            raise LinalgError("generator points must be nonzero")
    g = vandermonde(b_dim, points, field)
    if not verify_mds(g, b_dim, exhaustive_limit=exhaustive_limit, samples=samples, seed=seed):
        raise LinalgError("generated matrix failed the MDS column check")
    return g


def _subsets(n: int, k: int, exhaustive_limit: int, samples: int, seed: int):
    import math

    total = math.comb(n, k)
    if total <= exhaustive_limit:
        yield from itertools.combinations(range(n), k)
        return
    rng = random.Random(seed)
    for _ in range(samples):
        yield tuple(sorted(rng.sample(range(n), k)))


def verify_mds(
    g: Matrix,
    b_dim: int,
    *,
    exhaustive_limit: int = 2000,
    samples: int = 300,
    seed: int = 0,
) -> bool:
    if g.rows != b_dim:
        raise DimensionError(f"matrix has {g.rows} rows, expected {b_dim}")
    for cols in _subsets(g.cols, b_dim, exhaustive_limit, samples, seed):
        if rank(g.take_columns(cols)) != b_dim:
            return False
    return True


def check_U_property(u: Matrix, m: int, d: int, *, exhaustive_limit: int = 10, seed: int = 0) -> bool:
    """Every m x m column submatrix of the top m rows invertible, and every
    d x d column submatrix of the whole matrix invertible."""
    if u.rows != d:
        raise DimensionError(f"matrix has {u.rows} rows, expected d={d}")
    r = u.cols
    return _top_and_full_check(u, m, d, r, exhaustive_limit, seed)


def check_V_property(v: Matrix, m: int, d: int, f: int, *, exhaustive_limit: int = 10, seed: int = 0) -> bool:
    """Same as the U check with full-size d+f instead of d."""
    if v.rows != d + f:
        raise DimensionError(f"matrix has {v.rows} rows, expected d+f={d + f}")
    return _top_and_full_check(v, m, d + f, v.cols, exhaustive_limit, seed)


def _top_and_full_check(mat: Matrix, m: int, full: int, r: int, exhaustive_limit: int, seed: int) -> bool:
    top = mat.take_rows(range(m))
    sampled = r > exhaustive_limit
    limit = 10**9 if not sampled else 0
    for cols in _subsets(r, m, limit, 200, seed):
        if rank(top.take_columns(cols)) != m:
            return False
    if full <= r:
        for cols in _subsets(r, full, limit, 200, seed + 1):
            if rank(mat.take_columns(cols)) != full:
                return False
    return True


def cauchy(field: Field, xs, ys) -> Matrix:
    """Cauchy matrix 1/(x_i - y_j); every square submatrix is invertible."""
    xs = [field.check(x) for x in xs]
    ys = [field.check(y) for y in ys]
    if len(set(xs) | set(ys)) != len(xs) + len(ys):
        raise LinalgError("Cauchy parameters must be pairwise distinct")
    data = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            data[i, j] = field.inv(field.sub(x, y))
    return Matrix(field, data)
