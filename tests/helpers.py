"""Shared test utilities: parameter enumeration and small oracles."""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rackcoop import linalg, params
from rackcoop.codec import CodeSpec, global_symbols
from rackcoop.field import Field
from rackcoop.linalg import Matrix
from rackcoop.params import CodeParams, gamma_of
from rackcoop.tradeoff import (
    GammaSolution,
    InfeasibleAlphaError,
    compositions,
    feasible,
)


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
    return [_assemble_mm(spec, g, i) for i in range(1, spec.params.failures_per_rack + 1)]


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
    top = linalg.mat_vec(mm, spec.V.data[:, rack - 1])
    bottom = linalg.vec_mat(spec.U.data[:, rack - 1], mm)
    return np.concatenate([top, bottom])


# -- the vertex-enumeration LP, as a reference for the frontier walk ---------
#
# Every pairwise intersection of the bound's piece-boundary lines is a
# candidate vertex, checked with the exact feasibility primitive.  Cubic in
# the number of lines, so the tests afford it only for small m.


def reference_constraint_lines(p: CodeParams, file_size: Fraction, alpha: Fraction):
    """Boundary lines A*beta1 + C*beta2 = rhs of the linear pieces of the bound.

    Each composition contributes one line per nonempty subset of clamped-
    active positions; coincident lines are deduplicated.
    """
    epf = Fraction(p.e, p.f)
    lines = set()
    for u in compositions(p.m, p.f):
        g = len(u)
        terms = []
        prefix = 0
        for part in u:
            terms.append((part * (p.d - prefix), part * (p.f - part), part))
            prefix += part
        for mask in range(1, 1 << g):
            a = c = w = 0
            for i in range(g):
                if mask >> i & 1:
                    a += terms[i][0]
                    c += terms[i][1]
                    w += terms[i][2]
            rhs = file_size - p.k * alpha + epf * alpha * w
            lines.add((Fraction(a), Fraction(c), rhs))
    lines.add((Fraction(1), Fraction(0), Fraction(0)))  # beta1 = 0
    lines.add((Fraction(0), Fraction(1), Fraction(0)))  # beta2 = 0
    return lines


def reference_min_gamma_given_alpha(p: CodeParams, file_size, alpha) -> GammaSolution:
    """Minimize d*beta1 + (f-1)*beta2 subject to the bound supporting ``file_size``.

    The feasible region in (beta1, beta2) is an intersection of superlevel
    sets of concave piecewise-linear functions, hence a polyhedron inside
    the nonnegative quadrant; the optimum sits on a vertex formed by two of
    the piece-boundary lines (axes included), so all pairwise intersections
    are enumerated and checked with the exact feasibility primitive.
    """
    file_size = Fraction(file_size)
    alpha = Fraction(alpha)
    if file_size <= 0:
        raise ValueError("file size must be positive")
    if alpha < Fraction(file_size, p.k):
        raise InfeasibleAlphaError(
            f"alpha = {alpha} below the minimum B/k = {Fraction(file_size, p.k)}"
        )
    lines = list(reference_constraint_lines(p, file_size, alpha))
    candidates = set()
    for i in range(len(lines)):
        a1, c1, r1 = lines[i]
        for j in range(i + 1, len(lines)):
            a2, c2, r2 = lines[j]
            det = a1 * c2 - a2 * c1
            if det == 0:
                continue
            b1 = (r1 * c2 - r2 * c1) / det
            b2 = (a1 * r2 - a2 * r1) / det
            if b1 >= 0 and b2 >= 0:
                candidates.add((b1, b2))
    best: GammaSolution | None = None
    for b1, b2 in sorted(candidates):
        g = gamma_of(p, b1, b2)
        if best is not None and g >= best.gamma:
            continue
        if feasible(p, file_size, alpha, b1, b2):
            best = GammaSolution(g, b1, b2)
    # alpha >= B/k guarantees feasibility for large enough betas, so a
    # vertex always exists.
    assert best is not None
    return best


# -- the per-entry constructors, as references for the vectorized ones -------


def reference_vandermonde(rows: int, points, field: Field) -> Matrix:
    """Entry (i, j) = points[j]**i, one row at a time (B - 1 vec_mul calls)."""
    pts = [field.check(p) for p in points]
    if len(set(pts)) != len(pts):
        raise linalg.LinalgError("Vandermonde points must be distinct")
    if rows > field.order:
        raise linalg.LinalgError(f"{rows} rows exceed field order {field.order}")
    data = np.zeros((rows, len(pts)), dtype=np.int64)
    data[0, :] = 1
    for i in range(1, rows):
        data[i] = field.vec_mul(data[i - 1], np.array(pts, dtype=np.int64))
    return Matrix(field, data)


def reference_cauchy(field: Field, xs, ys) -> Matrix:
    """Cauchy matrix 1/(x_i - y_j), one scalar inverse per entry."""
    xs = [field.check(x) for x in xs]
    ys = [field.check(y) for y in ys]
    if len(set(xs) | set(ys)) != len(xs) + len(ys):
        raise linalg.LinalgError("Cauchy parameters must be pairwise distinct")
    data = np.zeros((len(xs), len(ys)), dtype=np.int64)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            data[i, j] = field.inv(field.vec_sub(x, y))
    return Matrix(field, data)


def reference_parity_block(lam_row, alpha: int) -> np.ndarray:
    """[lam_row[0] I | ... | lam_row[w-1] I] with alpha x alpha identities."""
    return np.kron(lam_row, np.eye(alpha, dtype=np.int64))


# -- the loop kernel and the dense generator, as references for the ---------
# -- broadcast product and the per-rack build --------------------------------


def reference_matmul(f: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over ``f`` for 2-D operands, one rank-1 update per inner index."""
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for t in range(a.shape[1]):
        out = f.vec_add(out, f.vec_mul(a[:, t][:, None], b[t, :][None, :]))
    return out


def reference_generator(spec: CodeSpec) -> Matrix:
    """The node generator as a dense (n*alpha) x n_global coefficient matrix,
    filled entry by entry from the rack maps and the paper's [M_i v_l ; M_i^T u_l],
    times G^T."""
    p = spec.params
    w = np.zeros((p.n * spec.alpha, spec.layout.n_global), dtype=np.int64)
    rack_rows = p.nodes_per_rack * spec.alpha
    for rack in range(1, p.r + 1):
        u_l, v_l = spec.U.data[:, rack - 1], spec.V.data[:, rack - 1]
        for i in range(1, p.failures_per_rack + 1):
            start = p.row(rack, i) * spec.alpha
            node = w[start : start + spec.alpha]
            for row in range(p.d):
                for c in range(p.d + p.f):
                    col = spec.message_matrix_col(i, row, c)
                    if col is not None:
                        node[row, col] = v_l[c]  # (M_i v_l)[row]
                        if p.d + c < spec.alpha:
                            node[p.d + c, col] = u_l[row]  # (M_i^T u_l)[c]
        w[(rack - 1) * rack_rows : rack * rack_rows, spec.rack_global_slice(rack)] = (
            spec.rack_maps[rack - 1].data
        )
    return Matrix(spec.field, reference_matmul(spec.field, w, spec.G.data.T))


# -- every subset of every composition, as a reference for the prefix-sum DP -


def reference_halfplanes(m: int, f: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """The bound's Pareto-minimal (a, c, w) triples, from all nonempty subsets
    of the positions of all compositions (subset sums taken with one mask
    matrix per composition), then one Pareto filter."""
    triples = set()
    for u in compositions(m, f):
        parts = np.array(u, dtype=np.int64)
        prefix = np.cumsum(parts) - parts
        terms = np.stack([parts * (d - prefix), parts * (f - parts), parts], axis=1)
        masks = np.arange(1, 1 << len(u))[:, None] >> np.arange(len(u)) & 1
        triples.update(map(tuple, (masks @ terms).tolist()))
    kept: list[tuple[int, int, int]] = []
    for a, c, w in sorted(triples, key=lambda t: (t[0], t[1], -t[2])):
        if not any(c2 <= c and w2 >= w for _, c2, w2 in kept):
            kept.append((a, c, w))
    return tuple(kept)


# -- the scaled elimination, as a reference for the unscaled kernel ----------


def reference_rref(f: Field, m: np.ndarray, col_limit: int | None = None) -> list[int]:
    """In-place reduced row echelon form; returns the list of pivot columns.
    Each pivot row is scaled to a leading 1, then the pivot column is cleared
    from the other rows that hold a nonzero in it."""
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


def reference_rank(a: Matrix) -> int:
    return len(reference_rref(a.field, a.data.copy()))


def _reference_augmented(a: Matrix, b):
    b = np.asarray(b, dtype=np.int64)
    vector = b.ndim == 1
    rhs = b[:, None] if vector else b
    if rhs.shape[0] != a.rows:
        raise linalg.DimensionError(f"rhs has {rhs.shape[0]} rows, expected {a.rows}")
    aug = np.hstack([a.data.copy(), rhs.copy()])
    return aug, len(reference_rref(a.field, aug, col_limit=a.cols)), vector


def reference_solve(a: Matrix, b) -> np.ndarray:
    """``linalg.solve`` on the reference elimination, same checks and messages."""
    if a.rows != a.cols:
        raise linalg.DimensionError(f"solve needs a square matrix, got {a.rows}x{a.cols}")
    aug, rk, vector = _reference_augmented(a, b)
    if rk < a.cols:
        raise linalg.SingularMatrixError(f"matrix is singular (rank {rk} < {a.cols})")
    x = aug[:, a.cols :]
    return x[:, 0] if vector else x


def reference_solve_full_rank(a: Matrix, b) -> np.ndarray:
    """``linalg.solve_full_rank`` on the reference elimination, same checks and messages."""
    aug, rk, vector = _reference_augmented(a, b)
    if rk < a.cols:
        raise linalg.SingularMatrixError(f"column rank {rk} < {a.cols}, system underdetermined")
    if np.any(aug[a.cols :, a.cols :]):
        raise linalg.LinalgError("inconsistent linear system")
    x = aug[: a.cols, a.cols :]
    return x[:, 0] if vector else x


# -- the bitwise multiply, as a reference for the log/antilog tables ---------


def reference_poly_mul(a: int, b: int, width: int, modulus: int) -> int:
    """``a * b`` in GF(2)[x] modulo ``modulus`` (degree ``width``), by shift
    and add, one bit of ``b`` at a time."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if (a >> width) & 1:
            a ^= modulus
    return result


# -- the per-rack DP, as a reference for the closed-form collector bound -----


def collector_support(p: CodeParams, nodes) -> int:
    """Outer-code coordinates the stored symbols of ``nodes`` reach, counted
    as a union: a global node its own alpha, a product-matrix node i its
    matrix's m(2d+f-m) plus every global slot of its rack."""
    alpha = params.construction_params(p).alpha
    epf = p.failures_per_rack
    msize = p.m * (2 * p.d + p.f - p.m)
    reached = set()
    for rack, i in nodes:
        if i <= epf:
            reached.update(("matrix", i, c) for c in range(msize))
            slots = range(epf + 1, p.nodes_per_rack + 1)
        else:
            slots = (i,)
        reached.update(("global", rack, s, c) for s in slots for c in range(alpha))
    return len(reached)


def reference_structural_deficiency(p: CodeParams):
    """``codec.structural_recovery_deficiency`` as a dynamic program over
    racks: each rack takes its first tau matrix nodes and g global nodes, and
    the state is (nodes used, deepest matrix prefix).  Prefix matrix sets
    minimize the union, so the DP is exact for the minimum support."""
    layout = params.construction_params(p)
    epf = p.failures_per_rack
    w = p.nodes_per_rack - epf
    msize = p.m * (2 * p.d + p.f - p.m)
    plans = [(tau, g) for tau in range(epf + 1) for g in range(w + 1)]
    best = {(0, 0): (0, [])}
    for rack in range(1, p.r + 1):
        nxt = {}
        for (nodes, deepest), (sup, picks) in best.items():
            for tau, g in plans:
                nn = nodes + tau + g
                if nn > p.k:
                    continue
                key = (nn, max(deepest, tau))
                cost = sup + (w if tau else g) * layout.alpha
                if key not in nxt or cost < nxt[key][0]:
                    nxt[key] = (cost, picks + [(rack, tau, g)] if tau or g else picks)
        best = nxt
    result = None
    for (nodes, deepest), (sup, picks) in best.items():
        if nodes != p.k:
            continue
        total = sup + msize * deepest
        if result is None or total < result[0]:
            result = (total, picks)
    assert result is not None
    support, picks = result
    if support >= layout.file_size:
        return None
    witness = []
    for rack, tau, g in picks:
        witness += [(rack, i) for i in range(1, tau + 1)]
        witness += [(rack, epf + t) for t in range(1, g + 1)]
    return int(support), tuple(witness)


def reference_min_cut(edges):
    """Minimum S-T cut of a small capacitated graph by enumerating every
    source side: ``None`` (infinity) when every cut crosses an infinite edge.

    ``edges`` are ``(u, v, capacity)`` with ``capacity`` ``None`` for
    infinity, from ``("S",)`` to ``("T",)``; exponential in the number of
    other vertices, so keep it to about 8 of them.
    """
    source, sink = ("S",), ("T",)
    inner = list({w for u, v, _ in edges for w in (u, v)} - {source, sink})
    best = None
    for size in range(len(inner) + 1):
        for chosen in itertools.combinations(inner, size):
            side = {source, *chosen}
            crossing = [c for u, v, c in edges if u in side and v not in side]
            if None in crossing:
                continue
            cut = sum(crossing, Fraction(0))
            if best is None or cut < best:
                best = cut
    return best
