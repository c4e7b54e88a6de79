"""The exact minimum-bandwidth rack-aware cooperative code.

Code generation, encoding, any-k file recovery, and the two-round
multi-rack repair protocol.  A code instance for parameters p stores
alpha = 2d+f-1 symbols per node and supports a file of

    B = k(2d+f-1) + (e/f)(m - m^2)

symbols.  Layout per rack l (nodes are 1-based):

- nodes e/f+1 .. n/r hold plain outer-MDS coded symbols ("global" nodes);
- nodes 1 .. e/f hold product-matrix symbols plus local parities over the
  rack's global content; node 1 doubles as the rack's relayer.

Node (l, i <= e/f) stores the first 2d+f-1 entries of

    [M_i v_l ; M_i^T u_l] + P_{i,l} c_l

where M_i is the i-th structured message matrix, u_l / v_l are rack l's
columns of the fixed matrices U and V, and c_l is the concatenation of the
rack's global node contents.  The dropped (2d+f)-th entry is recoverable
from the stored ones through u_l^T M_i v_l = v_l^T M_i^T u_l.

Every stored symbol is thus a fixed linear functional of the message; the
functionals stack into the node generator ``CodeSpec.generator``, and both
encode and collect are derived from it.
"""

from __future__ import annotations

import copy
import hashlib
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import field as field_mod, linalg
from .field import Field
from .linalg import Matrix
from .params import (
    CodeParams,
    ConstructionLayout,
    RepairPatternError,
    RepairStage,
    construction_params,
)


class CodeBuildError(RuntimeError):
    pass


class UnsupportedParametersError(CodeBuildError):
    """No field choice can make the construction work for these parameters."""


class CodeIntegrityError(RuntimeError):
    """A verified property of the code failed at use time."""


class EncodingError(ValueError):
    pass


class ClusterState:
    """r racks of n/r nodes in generator row order (``CodeParams.row``):
    ``symbols[row]`` holds a node's alpha symbols and ``erased[row]`` marks it
    lost, its row then zero.  A new state has every node erased."""

    def __init__(self, params: CodeParams, field: Field, alpha: int):
        self.params = params
        self.field = field
        self.alpha = alpha
        self.symbols = np.zeros((params.n, alpha), dtype=np.int64)
        self.erased = np.ones(params.n, dtype=bool)

    def set_node(self, rack: int, node: int, symbols) -> None:
        row = self.params.row(rack, node)
        arr = np.asarray(symbols, dtype=np.int64)
        if arr.shape != (self.alpha,):
            raise EncodingError(f"node ({rack}, {node}) needs {self.alpha} symbols")
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.order):
            raise EncodingError("symbol outside field range")
        self.symbols[row] = arr
        self.erased[row] = False

    def node(self, rack: int, node: int) -> np.ndarray:
        """A copy of the node's symbols: callers keep it as a snapshot."""
        row = self.params.row(rack, node)
        if self.erased[row]:
            raise CodeIntegrityError(f"node ({rack}, {node}) is erased")
        return self.symbols[row].copy()

    def erase(self, rack: int, node: int) -> None:
        """Mark the node lost and zero its row, so no repair can read its old bytes."""
        row = self.params.row(rack, node)
        self.symbols[row] = 0
        self.erased[row] = True

    def erased_nodes(self) -> list[tuple[int, int]]:
        return [pair for pair, gone in zip(self.params.node_ids(), self.erased.tolist()) if gone]

    def clone(self) -> "ClusterState":
        out = copy.copy(self)
        out.symbols = self.symbols.copy()
        out.erased = self.erased.copy()
        return out

    def __eq__(self, other):
        if not isinstance(other, ClusterState):
            return NotImplemented
        return ((self.params, self.field, self.alpha) == (other.params, other.field, other.alpha)
                and np.array_equal(self.erased, other.erased)
                and np.array_equal(self.symbols[~self.erased], other.symbols[~other.erased]))


@dataclass(frozen=True)
class CodeSpec:
    """All generator material of one code instance.

    ``P[i-1][l-1]`` is the (2d+f) x (n/r - e/f)(2d+f-1) local-parity map of
    node i in rack l; its last row is always zero so the dropped product-
    matrix symbol stays parity-free.  ``attempt`` is the instance's index in
    ``candidates(params, field, seed)``; with :attr:`fingerprint` it names
    the instance without re-verifying it.
    """

    params: CodeParams
    field: Field
    G: Matrix
    U: Matrix
    V: Matrix
    P: tuple[tuple[Matrix, ...], ...]
    seed: int
    layout: ConstructionLayout
    attempt: int

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over G, U, V and every P block (row-major): each matrix
        contributes ``repr(shape)`` and then its entries as ``<i8`` bytes."""
        h = hashlib.sha256()
        for mat in (self.G, self.U, self.V, *(pm for row in self.P for pm in row)):
            h.update(repr(mat.data.shape).encode())
            h.update(mat.data.astype("<i8").tobytes())
        return h.hexdigest()

    @property
    def alpha(self) -> int:
        return self.layout.alpha

    @property
    def file_size(self) -> int:
        return self.layout.file_size

    @property
    def globals_per_rack(self) -> int:
        return self.params.nodes_per_rack - self.params.failures_per_rack

    # -- column layout of the outer code -------------------------------

    def rack_global_slice(self, rack: int) -> slice:
        w = self.globals_per_rack
        return slice((rack - 1) * w * self.alpha, rack * w * self.alpha)

    def message_matrix_col(self, i: int, row: int, col: int) -> int | None:
        """Outer-code column feeding entry (row, col) of M_i, or None inside
        the structural zero block."""
        p = self.params
        m, width = p.m, p.d + p.f
        base = p.r * self.globals_per_rack * self.alpha + (i - 1) * m * (2 * p.d + p.f - m)
        if row < m and col < m:
            return base + row * m + col
        if row < m:
            return base + m * m + row * (width - m) + (col - m)
        if col < m:
            return base + m * m + m * (width - m) + (row - m) * m + col
        return None

    # -- the node generator ---------------------------------------------

    @cached_property
    def rack_maps(self) -> tuple[Matrix, ...]:
        """Per rack l, the (n/r*alpha) x ((n/r - e/f)*alpha) map from the rack's
        global content c_l to each node's c_l part, node by node: the stored
        rows of the local parity P_{i,l} for node i <= e/f, identity rows of
        slot t for global node e/f + t."""
        a, epf = self.alpha, self.params.failures_per_rack
        eye = np.eye(self.globals_per_rack * a, dtype=np.int64)
        return tuple(
            Matrix(self.field, np.vstack([self.P[i][rack].data[:a] for i in range(epf)] + [eye]))
            for rack in range(self.params.r)
        )

    @cached_property
    def _restoration_inverses(self) -> dict:
        """(rack, surviving node indices) -> inverse of those nodes' rack-map
        rows, filled by :func:`recover_rack_globals` as repairs need them."""
        return {}

    @cached_property
    def generator(self) -> Matrix:
        """The (n*alpha) x B matrix mapping the message to every stored
        symbol, node by node in (rack, node) order (node (l, i)'s alpha rows
        start at ``params.row(l, i) * alpha``),
        one rack at a time: the rack map times the G^T rows of the rack's
        global columns, plus on node i <= e/f the product-matrix map times M_i's."""
        p, f, gt = self.params, self.field, self.G.data.T
        epf = p.failures_per_rack
        # M_1, M_2, ... feed the outer code's last e/f * m(2d+f-m) columns
        matrix_rows = gt[self.message_matrix_col(1, 0, 0) :].reshape(epf, -1, gt.shape[1])
        maps = self._product_matrix_maps()
        blocks = []
        for rack in range(1, p.r + 1):
            block = linalg.products(f, self.rack_maps[rack - 1].data,
                                    gt[self.rack_global_slice(rack)])
            block = block.reshape(p.nodes_per_rack, self.alpha, -1)
            block[:epf] = f.vec_add(block[:epf], linalg.products(f, maps[rack - 1], matrix_rows))
            blocks.append(block.reshape(-1, gt.shape[1]))
        return Matrix(f, np.vstack(blocks))

    def _product_matrix_maps(self) -> np.ndarray:
        """Per rack l, the alpha x m(2d+f-m) matrix mapping M_i's outer-code
        columns, the same for every i, to the first alpha entries of
        [M_i v_l ; M_i^T u_l]: an (r, alpha, m(2d+f-m)) array."""
        p = self.params
        first = self.message_matrix_col(1, 0, 0)
        w = np.zeros((p.r, self.alpha, p.m * (2 * p.d + p.f - p.m)), dtype=np.int64)
        for row in range(p.d):
            for c in range(p.d + p.f):
                col = self.message_matrix_col(1, row, c)
                if col is not None:
                    w[:, row, col - first] = self.V.data[c]  # (M_i v_l)[row] += v_l[c] M_i[row, c]
                    if p.d + c < self.alpha:  # (M_i^T u_l)[c] += u_l[row] M_i[row, c]
                        w[:, p.d + c, col - first] = self.U.data[row]
        return w


# -- construction -------------------------------------------------------


def _field_candidates(p: CodeParams) -> list:
    """Field constructors of the default policy, in order: GF(2^8) while the
    outer code fits, then GF(2^16)."""
    n_global = construction_params(p).n_global
    fits = [make for make, length in ((field_mod.gf256, 255), (field_mod.gf65536, 65535))
            if n_global <= length]
    if not fits:
        raise CodeBuildError(f"outer code length {n_global} exceeds GF(2^16)")
    return fits


def default_field(p: CodeParams) -> Field:
    """The first field of the default policy."""
    return _field_candidates(p)[0]()


def build_default_code(p: CodeParams, seed: int) -> CodeSpec:
    """Build with the default field policy.

    GF(2^8) is used while the outer code fits and all rank checks pass;
    if verification exhausts its resamples there, the build escalates to
    GF(2^16).  Parameter-level impossibilities are not retried.
    """
    last: CodeBuildError | None = None
    for make in _field_candidates(p):
        try:
            return build_code(p, make(), seed)
        except UnsupportedParametersError:
            raise
        except CodeBuildError as exc:
            last = exc
    assert last is not None
    raise last


def structural_recovery_deficiency(p: CodeParams):
    """Witness collector whose reachable information is short of B, if any.

    A node's stored symbols are linear functionals of a bounded set of
    outer-code coordinates: a global node sees its own alpha coordinates,
    a product-matrix node sees the m(2d+f-m) coordinates of its matrix plus
    (through the local parity) all w = n/r - e/f global slots of its rack.
    Since any subset of outer-code columns is independent only up to size
    B, a collector touching fewer than B coordinates cannot have rank B no
    matter how U, V and the parities are chosen.  With several matrices
    per rack (e/f > 1) such collectors exist for some parameters.

    The support-minimal k-subset has a closed form, a minimum over two
    integers: its product-matrix nodes use matrices 1..t and lie in
    ``full`` racks (``full = 0`` exactly when ``t = 0``).  Each such rack
    costs its w*alpha global coordinates and holds up to t + w collector
    nodes at no further cost; the other ``rest`` nodes are global nodes
    elsewhere at alpha coordinates each.  Returns ``(support, nodes)`` when
    the minimum falls below B.
    """
    layout = construction_params(p)
    epf = p.failures_per_rack
    w = p.nodes_per_rack - epf
    msize = p.m * (2 * p.d + p.f - p.m)
    best = None
    for t in range(epf + 1):
        for full in range(1, p.r + 1) if t else (0,):
            taken = min(p.k, full * (t + w))
            rest = p.k - taken
            if full <= taken and rest <= (p.r - full) * w:
                support = t * msize + (full * w + rest) * layout.alpha
                if best is None or support < best[0]:
                    best = (support, t, full, taken, rest)
    assert best is not None
    support, t, full, taken, rest = best
    if support >= layout.file_size:
        return None
    # Fill racks 1..full in turn, matrix nodes first.  At the first minimum
    # (smallest t, then smallest full) rack 1 gets all of matrices 1..t and
    # no full rack is left empty.
    order = [*range(1, t + 1), *range(epf + 1, epf + w + 1)]
    witness = [(rack, i) for rack in range(1, full + 1) for i in order][:taken]
    witness += [(rack, epf + g) for rack in range(full + 1, p.r + 1)
                for g in range(1, w + 1)][:rest]
    return support, tuple(witness)


MAX_ATTEMPTS = 24


def build_code(p: CodeParams, field: Field, seed: int) -> CodeSpec:
    """Generate and verify a code instance; deterministic in ``seed``.

    Returns the first instance of :func:`candidates` that passes the U/V
    submatrix-rank properties, the per-rack vector-MDS property and the
    rank-B collector property.
    """
    sequence = candidates(p, field, seed)  # checks the layout and the field first
    deficiency = structural_recovery_deficiency(p)
    if deficiency is not None:
        support, witness = deficiency
        raise UnsupportedParametersError(
            f"parameters {p.as_tuple()} cannot satisfy any-k recovery with this "
            f"construction: collector {list(witness)} reaches only {support} "
            f"independent coordinates but the file has {construction_params(p).file_size}; "
            "no field choice can repair this"
        )
    failures: list[str] = []
    for spec in sequence:
        problem = _verify_spec(spec)
        if problem is None:
            return spec
        failures.append(f"attempt {spec.attempt}: {problem}")
    raise CodeBuildError(
        "could not build a verified code instance; " + "; ".join(failures)
    )


def candidates(p: CodeParams, field: Field, seed: int) -> Iterator[CodeSpec]:
    """The seeded sequence of unverified instances, attempts 0 .. MAX_ATTEMPTS-1.

    The first attempt uses structured choices (Vandermonde point runs and a
    Cauchy parity stack); later attempts resample points, and the last half
    falls back to fully random dense parity maps.  The outer code G is
    Vandermonde on distinct points, which certifies its MDS property for
    every column subset.  One ``random.Random(seed)`` feeds every attempt,
    so attempt ``a`` depends on the draws of the attempts before it.
    """
    layout = construction_params(p)
    if p.failures_per_rack >= p.nodes_per_rack:
        raise UnsupportedParametersError(
            "construction needs at least one global node per rack "
            f"(e/f = {p.failures_per_rack} >= n/r = {p.nodes_per_rack})"
        )
    if layout.n_global > field.order - 1:
        raise CodeBuildError(
            f"outer code length {layout.n_global} too large for field of order {field.order}"
        )
    rng = random.Random(seed)
    return (
        CodeSpec(p, field, *_candidate(p, field, layout, rng, attempt), seed, layout, attempt)
        for attempt in range(MAX_ATTEMPTS)
    )


def _candidate(p, field, layout, rng, attempt):
    q = field.order
    n_pts, r = layout.n_global, p.r
    epf, w = p.failures_per_rack, p.nodes_per_rack - p.failures_per_rack
    if attempt == 0:
        g_points = list(range(1, n_pts + 1))
        if n_pts + r <= q - 1:
            uv_points = list(range(n_pts + 1, n_pts + r + 1))
        else:
            uv_points = list(range(1, r + 1))
    else:
        g_points = rng.sample(range(1, q), n_pts)
        uv_points = rng.sample(range(1, q), r)
    # The draws must stay in order: a cluster regenerates candidate number
    # `attempt` from the seed and checks its fingerprint.  This draw, whose
    # value is unused, keeps every later parity and point draw where the
    # clusters already written expect it.
    rng.randrange(2**32)
    g = linalg.vandermonde(layout.file_size, g_points, field)
    u = linalg.vandermonde(p.d, uv_points, field)
    v = linalg.vandermonde(p.d + p.f, uv_points, field)

    dense = attempt >= MAX_ATTEMPTS // 2
    # attempt 0 gives every rack the Cauchy matrix on 0 .. n/r - 1; later
    # structured attempts draw a fresh one per (node, rack)
    lam = linalg.cauchy(field, range(epf), range(epf, epf + w)) if attempt == 0 else None
    parities = []
    for i in range(1, epf + 1):
        row = []
        for rack in range(1, r + 1):
            if dense:
                pm = np.array(
                    [[rng.randrange(q) for _ in range(w * layout.alpha)]
                     for _ in range(layout.alpha)],
                    dtype=np.int64,
                )
            else:
                if attempt:
                    cs = rng.sample(range(q), epf + w)
                    lam = linalg.cauchy(field, cs[:epf], cs[epf:])
                pm = _parity_block(lam.data[i - 1], layout.alpha)
            full = np.vstack([pm, np.zeros((1, w * layout.alpha), dtype=np.int64)])
            row.append(Matrix(field, full))
        parities.append(tuple(row))
    return g, u, v, tuple(parities)


def _parity_block(lam_row, alpha: int) -> np.ndarray:
    """[lam_row[0] I | ... | lam_row[w-1] I] with alpha x alpha identity blocks."""
    lam = np.asarray(lam_row, dtype=np.int64)
    eye = np.eye(alpha, dtype=np.int64)
    return (lam[None, :, None] * eye[:, None, :]).reshape(alpha, lam.size * alpha)


def _verify_spec(spec: CodeSpec) -> str | None:
    p = spec.params
    if not linalg.check_U_property(spec.U, p.m, p.d):
        return "U submatrix-rank property failed"
    if not linalg.check_V_property(spec.V, p.m, p.d, p.f):
        return "V submatrix-rank property failed"
    if np.any(spec.V.data[-1] == 0):
        return "last row of V contains a zero (dropped-symbol completion impossible)"
    for i_row in spec.P:
        for pm in i_row:
            if np.any(pm.data[-1]):
                return "parity map last row not zero"
    rack = _vector_mds_problem(spec)
    if rack is not None:
        return f"vector-MDS property failed in rack {rack}"
    bad = _collector_rank_problem(spec)
    if bad is not None:
        return f"collector rank deficient for nodes {bad}"
    return None


def _rack_rows(spec: CodeSpec, rack: int, nodes) -> Matrix:
    """Rows of ``rack``'s map for the given 1-based node indices, in order."""
    p = spec.params
    data = spec.rack_maps[rack - 1].data.reshape(p.nodes_per_rack, spec.alpha, -1)
    return Matrix(spec.field, data[[i - 1 for i in nodes]].reshape(-1, data.shape[2]))


def _vector_mds_problem(spec: CodeSpec) -> int | None:
    """The first rack in which some n/r - e/f nodes do not determine the
    rack's global content c_l, or None."""
    p = spec.params
    per_node = np.stack([m.data for m in spec.rack_maps]).reshape(
        p.r, p.nodes_per_rack, spec.alpha, -1)
    subsets = [(rack - 1, *idx) for rack in range(1, p.r + 1)
               for idx in linalg._subsets(p.nodes_per_rack, spec.globals_per_rack, spec.seed ^ rack)]
    bad = linalg.first_deficient(spec.field, subsets,
                                 lambda idx: (_stacked(per_node[idx[:, :1], idx[:, 1:]]), 0))
    return None if bad is None else bad[0] + 1


def _stacked(rows: np.ndarray) -> np.ndarray:
    """``(b, nodes, alpha, cols)`` node rows as a ``(b, nodes*alpha, cols)`` stack."""
    return rows.reshape(rows.shape[0], -1, rows.shape[-1])


def recover_rack_globals(spec: CodeSpec, rack: int, available: dict) -> np.ndarray:
    """Solve for the rack's global content c_l from any n/r - e/f nodes.

    ``available`` maps node indices to their alpha-symbol c_l parts: a
    global node's stored symbols, or a product-matrix node's stored symbols
    minus its product-matrix part.
    """
    w = spec.globals_per_rack
    if len(available) != w:
        raise CodeIntegrityError(f"need exactly {w} nodes, got {len(available)}")
    nodes = tuple(sorted(available))
    key = (rack, nodes)
    if key not in spec._restoration_inverses:
        rows = _rack_rows(spec, rack, nodes)
        try:
            inverse = linalg.solve(rows, np.eye(rows.rows, dtype=np.int64))
        except linalg.SingularMatrixError as exc:
            raise CodeIntegrityError(f"vector-MDS solve failed in rack {rack}") from exc
        spec._restoration_inverses[key] = inverse
    rhs = np.concatenate([np.asarray(available[i], dtype=np.int64) for i in nodes])
    return linalg.products(spec.field, spec._restoration_inverses[key], rhs[:, None])[:, 0]


def _collector_subsets(spec: CodeSpec):
    """The collector check's node-index subsets, in order (repeats possible)."""
    return linalg._subsets(spec.params.n, spec.params.k, spec.seed ^ 0x5EED)


def _systematic_rows(spec: CodeSpec):
    """The node generator in a systematic basis, or None when its rank is
    below B.

    One unscaled elimination of ``generator^T``, whose columns are the
    generator's rows taken global nodes first, picks B independent rows
    greedily.  With T the inverse of those rows and D the diagonal of the
    pivots, it leaves ``generator · T · D``, in which the j-th picked row is
    a multiple of the j-th unit vector; it is stored as that unit vector,
    which changes no rank.  The outer code is MDS, so the first
    ``min(#global nodes, B // alpha)`` global nodes are picked whole.
    Returns ``(rows, unit)``: ``rows`` in the generator's ``(n*alpha) x B``
    layout and ``unit`` the ``(n, alpha)`` unit-vector index of each picked
    row, -1 elsewhere.
    """
    p, f, a, size = spec.params, spec.field, spec.alpha, spec.file_size
    first = np.argsort([i <= p.failures_per_rack for _, i in p.node_ids()], kind="stable")
    order = (first[:, None] * a + np.arange(a)).ravel()
    m = spec.generator.data[order].T.copy()
    pivots = linalg._eliminate(f, m, m.shape[1])
    if len(pivots) < size:
        return None
    m[:, pivots] = np.eye(size, dtype=np.int64)  # the pivot columns are left stale
    rows = np.empty((p.n * a, size), dtype=np.int64)
    rows[order] = m.T
    unit = np.full(p.n * a, -1, dtype=np.intp)
    unit[order[pivots]] = np.arange(size)
    return rows, unit.reshape(p.n, a)


def _collector_rank_problem(spec: CodeSpec):
    """The first collector of :func:`_collector_subsets` whose rows have rank
    below B, or None.

    Checked in the systematic basis of :func:`_systematic_rows`.  A
    collector holding s whole unit-vector nodes lists their rows and columns
    first.  Those rows are zero on every other column, so the collector has
    rank B exactly when its other rows have full column rank on the
    ``B - alpha*s`` columns those nodes do not cover, and
    ``full_column_rank`` starts it at column ``alpha*s``.
    """
    p, a, size = spec.params, spec.alpha, spec.file_size
    ids = p.node_ids()
    subsets = _collector_subsets(spec)
    basis = _systematic_rows(spec)
    if basis is None:  # no collector reaches rank B
        return tuple(ids[j] for j in next(iter(subsets)))
    rows, unit = basis
    whole = (unit >= 0).all(axis=1)
    covers = np.where(whole[:, None], unit, size)  # unit columns of whole nodes, else a spare
    node_row_starts = np.arange(0, a * size, size)  # flat offsets of a node's rows in `rows`

    def gather(idx):
        # whole nodes first, each group in subset order
        idx = np.sort(idx + p.n * ~whole[idx], axis=1) % p.n
        held = whole[idx]
        covered = np.zeros((len(idx), size + 1), dtype=bool)
        covered[np.arange(len(idx))[:, None], covers[idx].reshape(len(idx), -1)] = True
        cols = np.argsort(~covered[:, :size], axis=1, kind="stable")
        row_starts = (idx[:, :, None] * (a * size) + node_row_starts).reshape(len(idx), -1)
        return rows.take(row_starts[:, :, None] + cols[:, None, :]), a * held.sum(axis=1)

    bad = linalg.first_deficient(spec.field, subsets, gather)
    return None if bad is None else tuple(ids[j] for j in bad)


def collector_coverage(spec: CodeSpec) -> str:
    """How many k-node collectors the verified build checked, of how many."""
    total = math.comb(spec.params.n, spec.params.k)
    checked = len(set(_collector_subsets(spec)))
    if checked == total:
        return f"{checked:,} of {total:,} (exhaustive)"
    return f"{checked:,} distinct sampled of {total:,}"


# -- encoding -----------------------------------------------------------


def _check_message(spec: CodeSpec, message) -> np.ndarray:
    msg = np.asarray(message, dtype=np.int64)
    if msg.shape != (spec.file_size,):
        raise EncodingError(
            f"message must be exactly {spec.file_size} symbols, got {msg.shape}"
        )
    if msg.size and (msg.min() < 0 or msg.max() >= spec.field.order):
        raise EncodingError("message symbol outside field range")
    return msg


def global_symbols(spec: CodeSpec, message) -> np.ndarray:
    """The outer-code word G^T m."""
    return linalg.vec_mat(_check_message(spec, message), spec.G)


def encode(spec: CodeSpec, message) -> ClusterState:
    state = ClusterState(spec.params, spec.field, spec.alpha)
    symbols = linalg.mat_vec(spec.generator, _check_message(spec, message))
    state.symbols[:] = symbols.reshape(state.symbols.shape)
    state.erased[:] = False
    return state


# -- file recovery ------------------------------------------------------


def stack_functionals(spec: CodeSpec, nodes) -> Matrix:
    """Stacked generator rows of the given nodes (len(nodes)*alpha x B)."""
    p, gen = spec.params, spec.generator.data
    rows = [p.row(rack, node) for rack, node in nodes]
    return Matrix(spec.field, gen.reshape(p.n, spec.alpha, -1)[rows].reshape(-1, gen.shape[1]))


def collect(spec: CodeSpec, state: ClusterState, nodes) -> np.ndarray:
    """Recover the message from any k distinct live nodes.

    The k*alpha observed symbols are solved against the stacked generator
    rows.  Rows of rank < B are the code's failure; otherwise the k*alpha - B
    redundant symbols must agree, so a corrupt collector symbol raises
    ``CodeIntegrityError`` instead of decoding to wrong bytes.
    """
    p = spec.params
    chosen = sorted((int(r), int(i)) for r, i in nodes)
    repeated = [a for a, b in zip(chosen, chosen[1:]) if a == b]
    if repeated:
        raise EncodingError(f"collector node {repeated[0]} is listed more than once")
    if len(chosen) != p.k:
        raise EncodingError(f"collect needs exactly {p.k} distinct nodes, got {len(chosen)}")
    try:
        rows = [p.row(*pair) for pair in chosen]
    except KeyError as exc:
        raise EncodingError(f"collector {exc.args[0]}") from None
    erased = [pair for pair, row in zip(chosen, rows) if state.erased[row]]
    if erased:
        raise EncodingError(f"collector node {erased[0]} is erased")
    try:
        return linalg.solve_full_rank(stack_functionals(spec, chosen), state.symbols[rows].ravel())
    except linalg.SingularMatrixError as exc:
        raise CodeIntegrityError(f"this code cannot decode collector {chosen} ({exc}); collectors "
                                 f"checked at build: {collector_coverage(spec)}") from exc
    except linalg.LinalgError as exc:
        raise CodeIntegrityError(
            f"redundant symbols disagree ({exc}): a collector node is corrupt") from exc


# -- repair -------------------------------------------------------------


def strip_parities(spec: CodeSpec, rack: int, state: ClusterState) -> dict[int, np.ndarray]:
    """Clean stored product-matrix symbols of rack ``rack``.

    Returns, for each live node i <= e/f, the first 2d+f-1 entries of
    [M_i v_l ; M_i^T u_l] with the local parity removed: the stored symbols
    minus the product of the rack map's product-matrix rows with c_l.
    Requires all of the rack's global nodes to be live.
    """
    p = spec.params
    epf, a = p.failures_per_rack, spec.alpha
    start = p.row(rack, 1)
    stored = state.symbols[start : start + p.nodes_per_rack]
    erased = state.erased[start : start + p.nodes_per_rack].tolist()
    if any(erased[epf:]):
        node = epf + 1 + erased[epf:].index(True)
        raise CodeIntegrityError(f"global node ({rack}, {node}) erased; cannot strip parities")
    parities = linalg.products(spec.field, spec.rack_maps[rack - 1].data[: epf * a],
                               stored[epf:].reshape(-1, 1))[:, 0]
    clean = spec.field.vec_sub(stored[:epf], parities.reshape(epf, a))
    return {i: clean[i - 1] for i in range(1, epf + 1) if not erased[i - 1]}


def complete_mbcr_vector(spec: CodeSpec, rack: int, stored: np.ndarray) -> np.ndarray:
    """Extend the stored 2d+f-1 clean symbols with the dropped last one.

    Uses u_l^T (M_i v_l) = v_l^T (M_i^T u_l): the left side is computable
    from the first d entries, the right side exposes the missing entry
    through the last coordinate of v_l.  ``stored`` is one vector or one
    vector per row.
    """
    f = spec.field
    u_l = spec.U.data[:, rack - 1]
    v_l = spec.V.data[:, rack - 1]
    # missing = (u_l . stored[:d] - v_l[:-1] . stored[d:]) / v_l[-1], as one dot product
    weights = f.vec_mul(np.concatenate([u_l, f.vec_sub(0, v_l[:-1])]), f.inv(int(v_l[-1])))
    last = linalg.products(f, stored[..., None, :], weights[:, None])[..., 0, 0]
    return np.concatenate([stored, np.asarray(last)[..., None]], axis=-1)


@dataclass
class RepairTranscript:
    """Symbol counts moved during one repair, by edge class.

    round1: (helper rack, failed rack, symbols); round2: (sending failed
    rack, receiving failed rack, symbols).  Intra-rack reads are free in
    the bandwidth model and recorded only for information.
    """

    round1: list[tuple[int, int, int]]
    round2: list[tuple[int, int, int]]
    intra_rack: dict[str, int]

    def cross_symbols(self, rack: int) -> int:
        return sum(c for _, dst, c in self.round1 + self.round2 if dst == rack)


def repair(spec: CodeSpec, state: ClusterState, failed, helpers) -> tuple[ClusterState, RepairTranscript]:
    """Rebuild e erased nodes (e/f in each of f racks) in place.

    Round 1: every helper rack j strips its local parities, completes its
    product-matrix vectors [M_i v_j ; M_i^T u_j] and sends each failed rack
    l the 2 x e/f projections u_l^T M_i v_j and v_l^T M_i^T u_j (beta1 =
    2e/f symbols).  Each failed rack solves one d x d system over the
    helpers' U columns for its e/f vectors M_i v_l.  Round 2: rack l sends
    every other failed rack t the e/f symbols u_t^T M_i v_l (beta2).  One
    (d+f) x (d+f) system over V's columns (helpers, then failed racks)
    gives every M_i^T u_t.  Each rack then holds its product-matrix vectors
    and restores its lost nodes through its rack map.  Transcript counts
    are the sizes of the arrays sent.
    """
    p = spec.params
    stage = RepairStage.make(failed, helpers).validate(p)
    failed_racks, helper_racks = stage.racks, stage.helpers
    expected = {(rack, i) for rack, idxs in stage.failed for i in idxs}
    actual = set(state.erased_nodes())
    if actual != expected:
        raise RepairPatternError(
            f"state erasures {sorted(actual)} do not match the declared pattern {sorted(expected)}"
        )
    f = spec.field
    d, epf, a = p.d, p.failures_per_rack, spec.alpha
    u_failed = spec.U.data[:, [rack - 1 for rack in failed_racks]]
    v_failed = spec.V.data[:, [rack - 1 for rack in failed_racks]]

    # Round 1: sent1[h, :, :, s] is the 2 x e/f message of helper_racks[h]
    # to failed_racks[s].
    vecs = np.stack([
        complete_mbcr_vector(spec, j, np.vstack(list(strip_parities(spec, j, state).values())))
        for j in helper_racks
    ])
    sent1 = np.stack([linalg.products(f, vecs[..., :d], u_failed),
                      linalg.products(f, vecs[..., d:], v_failed)], axis=1)
    round1 = [(j, l, sent1[h, :, :, s].size)
              for h, j in enumerate(helper_racks) for s, l in enumerate(failed_racks)]

    # Each failed rack solves u_j^T M_i v_l = v_l^T M_i^T u_j for its M_i v_l;
    # the system is the same for every rack, so all are solved at once.
    u_helpers_t = Matrix(f, spec.U.data[:, [j - 1 for j in helper_racks]].T)
    m_v = linalg.solve(u_helpers_t, sent1[:, 1].reshape(d, -1)).reshape(
        d, epf, -1).transpose(2, 0, 1)  # (rack, d, e/f)

    # Round 2: sent2[s, r] = (u_t^T M_i v_l)_i for l = failed_racks[s] and
    # t = failed_racks[r]; rack l sends it to rack t unless r == s.
    sent2 = linalg.products(f, u_failed.T, m_v)
    round2 = [(l, t, sent2[s, r].size)
              for s, l in enumerate(failed_racks) for r, t in enumerate(failed_racks) if r != s]

    # v_c^T M_i^T u_t for every V column c (helpers, then failed racks; a
    # rack's own term it computes itself), solved for every M_i^T u_t at once.
    proj = np.concatenate([sent1[:, 0], sent2.transpose(0, 2, 1)])  # (d+f, e/f, rack)
    v_sub_t = Matrix(f, spec.V.data[:, [c - 1 for c in helper_racks + failed_racks]].T)
    m_u = linalg.solve(v_sub_t, proj.reshape(d + p.f, -1)).reshape(proj.shape)

    # In-rack restoration through the rack map.
    npr = p.nodes_per_rack
    for s, (rack, lost) in enumerate(stage.failed):
        # Row i-1: the product-matrix part of node i's stored symbols.
        pm_part = np.concatenate([m_v[s], m_u[:, :, s]])[:a].T
        start = p.row(rack, 1)
        rack_rows = state.symbols[start : start + npr]  # a view: rebuilt rows land in the state
        c_parts = np.concatenate([f.vec_sub(rack_rows[:epf], pm_part), rack_rows[epf:]])
        c_l = recover_rack_globals(
            spec, rack, {i: c_parts[i - 1] for i in range(1, npr + 1) if i not in lost})
        parts = linalg.products(f, _rack_rows(spec, rack, lost).data, c_l[:, None]).reshape(-1, a)
        for i, part in zip(lost, parts):
            rack_rows[i - 1] = part if i > epf else f.vec_add(part, pm_part[i - 1])
        state.erased[[start + i - 1 for i in lost]] = False

    intra_rack = {"helper_rack_reads": len(helper_racks) * (npr - 1) * a,
                  "failed_rack_reads": len(failed_racks) * (npr - epf) * a}
    return state, RepairTranscript(sorted(round1), sorted(round2), intra_rack)
