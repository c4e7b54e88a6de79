"""Shared test utilities: parameter enumeration and small oracles."""

import itertools
import random
from functools import lru_cache

import numpy as np

from rackcoop import linalg, params
from rackcoop.codec import CodeSpec, global_symbols
from rackcoop.field import Field
from rackcoop.linalg import Matrix


@lru_cache(maxsize=None)
def all_valid_tuples(n_max=24, r_max=8):
    """Every valid (n, k, d, r, e, f) in the desk-scale box."""
    out = []
    for n in range(2, n_max + 1):
        for r in range(2, min(r_max, n) + 1):
            if n % r:
                continue
            for k in range(1, n + 1):
                m = k * r // n
                if m < 1:
                    continue
                for f in range(1, r + 1):
                    if m % f:
                        continue
                    for epf in range(1, n // r + 1):
                        for d in range(m, r - f + 1):
                            try:
                                out.append(params.validate(n, k, d, r, epf * f, f))
                            except params.ParameterError:
                                pass
    return tuple(out)


def sample_tuples(rng: random.Random, count: int, predicate=None, n_max=24, r_max=8):
    pool = [p for p in all_valid_tuples(n_max, r_max) if predicate is None or predicate(p)]
    if len(pool) < count:
        raise AssertionError(f"only {len(pool)} tuples satisfy the predicate")
    return rng.sample(pool, count)


def brute_force_compositions(m, f):
    """Independent enumeration oracle: compositions of m with parts in 1..f."""
    if m == 0:
        return [[]]
    out = []
    for first in range(1, min(f, m) + 1):
        for rest in brute_force_compositions(m - first, f):
            out.append([first] + rest)
    return out


def all_k_subsets(p):
    ids = [
        (rack, node)
        for rack in range(1, p.r + 1)
        for node in range(1, p.nodes_per_rack + 1)
    ]
    return itertools.combinations(ids, p.k)


def identity(field: Field, n: int) -> Matrix:
    return Matrix(field, np.eye(n, dtype=np.int64))


def random_matrix(field: Field, rows: int, cols: int, rng: random.Random) -> Matrix:
    data = [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)]
    return Matrix(field, np.array(data, dtype=np.int64))


# -- the paper's product-matrix formula, as a reference for the generator ----


def message_matrices(spec: CodeSpec, message) -> list[Matrix]:
    """The e/f structured message matrices M_i filled from the outer code."""
    g = global_symbols(spec, message)
    return [_assemble_mm(spec, g, i) for i in range(1, spec.matrices_per_rack + 1)]


def _assemble_mm(spec: CodeSpec, g: np.ndarray, i: int) -> Matrix:
    p = spec.params
    data = np.zeros((p.d, p.d + p.f), dtype=np.int64)
    for row in range(p.d):
        for col in range(p.d + p.f):
            src = spec.message_matrix_col(i, row, col)
            if src is not None:
                data[row, col] = g[src]
    return Matrix(spec.field, data)


def mbcr_vector(spec: CodeSpec, mm: Matrix, rack: int) -> np.ndarray:
    """The full 2d+f product-matrix vector [M_i v_l ; M_i^T u_l]."""
    top = linalg.mat_vec(mm, spec.v_col(rack))
    bottom = linalg.mat_vec(linalg.transpose(mm), spec.u_col(rack))
    return np.concatenate([top, bottom])
