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

    def is_erased(self, rack: int, node: int) -> bool:
        return bool(self.erased[self.params.row(rack, node)])

    def erased_nodes(self) -> list[tuple[int, int]]:
        return [pair for pair, gone in zip(self.params.node_ids(), self.erased.tolist()) if gone]

    def node_ids(self) -> list[tuple[int, int]]:
        return self.params.node_ids()

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
    def n_global(self) -> int:
        return self.layout.n_global

    @property
    def globals_per_rack(self) -> int:
        return self.params.nodes_per_rack - self.params.failures_per_rack

    @property
    def matrices_per_rack(self) -> int:
        return self.params.failures_per_rack

    # -- column layout of the outer code -------------------------------

    def global_col(self, rack: int, slot: int, pos: int = 0) -> int:
        """Outer-code column of position ``pos`` in global slot ``slot`` of
        ``rack`` (slot t holds node e/f + t)."""
        w = self.globals_per_rack
        return ((rack - 1) * w + (slot - 1)) * self.alpha + pos

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

    def u_col(self, rack: int) -> np.ndarray:
        return self.U.column(rack - 1)

    def v_col(self, rack: int) -> np.ndarray:
        return self.V.column(rack - 1)

    # -- the node generator ---------------------------------------------

    def node_rows(self, rack: int, node: int) -> slice:
        """Rows of :attr:`generator` holding node (rack, node)'s symbols."""
        start = self.params.row(rack, node) * self.alpha
        return slice(start, start + self.alpha)

    @cached_property
    def rack_maps(self) -> tuple[Matrix, ...]:
        """Per rack l, the (n/r*alpha) x ((n/r - e/f)*alpha) map from the rack's
        global content c_l to each node's c_l part, node by node: the stored
        rows of the local parity P_{i,l} for node i <= e/f, identity rows of
        slot t for global node e/f + t."""
        a, epf = self.alpha, self.matrices_per_rack
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
        symbol, node by node in (rack, node) order (see :meth:`node_rows`):
        each rack's map on its global columns, plus the product-matrix part."""
        p = self.params
        w = np.zeros((p.n * self.alpha, self.n_global), dtype=np.int64)
        rack_rows = p.nodes_per_rack * self.alpha
        for rack in range(1, p.r + 1):
            for i in range(1, p.failures_per_rack + 1):
                w[self.node_rows(rack, i)] = self._product_matrix_map(rack, i)
            # The product-matrix part has no column in a rack's global slice.
            w[(rack - 1) * rack_rows : rack * rack_rows, self.rack_global_slice(rack)] = (
                self.rack_maps[rack - 1].data
            )
        return Matrix(self.field, linalg._raw_matmul(self.field, w, self.G.data.T))

    def _product_matrix_map(self, rack: int, i: int) -> np.ndarray:
        """alpha x N matrix mapping outer-code symbols to the first alpha
        entries of [M_i v_l ; M_i^T u_l] for rack l = ``rack``."""
        p = self.params
        u_l = self.u_col(rack)
        v_l = self.v_col(rack)
        w = np.zeros((self.alpha, self.n_global), dtype=np.int64)
        for row in range(p.d):
            for c in range(p.d + p.f):
                col = self.message_matrix_col(i, row, c)
                if col is not None:
                    w[row, col] = v_l[c]  # (M_i v_l)[row] = sum_c v_l[c] M_i[row, c]
                    if p.d + c < self.alpha:  # (M_i^T u_l)[c] = sum_row u_l[row] M_i[row, c]
                        w[p.d + c, col] = u_l[row]
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
    (through the local parity) all of its rack's global coordinates.  Since
    any subset of outer-code columns is independent only up to size B, a
    collector touching fewer than B coordinates cannot have rank B no
    matter how U, V and the parities are chosen.  With several matrices
    per rack (e/f > 1) such collectors exist for some parameters; this
    check finds the support-minimal k-subset by dynamic programming and
    returns ``(support, nodes)`` when its support falls below B.
    """
    layout = construction_params(p)
    epf = p.failures_per_rack
    w = p.nodes_per_rack - epf
    msize = p.m * (2 * p.d + p.f - p.m)
    # Per-rack plans: take the first tau matrix nodes and g global nodes.
    # Prefix matrix sets minimize the union, so the DP over
    # (nodes used, deepest matrix prefix) is exact for the minimum.
    plans = [
        (tau, g)
        for tau in range(epf + 1)
        for g in range(w + 1)
    ]
    INF = float("inf")
    best = {(0, 0): (0, [])}
    for rack in range(1, p.r + 1):
        nxt: dict[tuple[int, int], tuple[float, list]] = {}
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
    # The draws must stay in order: layout-v1 clusters store only the seed
    # and rebuild (and re-verify) the code from it, and layout-v2 clusters
    # regenerate candidate number `attempt` from the seed and check its
    # fingerprint.  This draw, whose value is unused, keeps every later
    # parity and point draw where earlier builds had it.
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
                                 lambda idx: _stacked(per_node[idx[:, :1], idx[:, 1:]]))
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
    return _products(spec.field, spec._restoration_inverses[key], rhs[:, None])[:, 0]


def _collector_subsets(spec: CodeSpec):
    """The collector check's node-index subsets, in order (repeats possible)."""
    return linalg._subsets(spec.params.n, spec.params.k, spec.seed ^ 0x5EED)


def _collector_rank_problem(spec: CodeSpec):
    p = spec.params
    per_node = spec.generator.data.reshape(p.n, spec.alpha, -1)
    bad = linalg.first_deficient(spec.field, _collector_subsets(spec),
                                 lambda idx: _stacked(per_node[idx]))
    ids = p.node_ids()
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
    rows = [spec.generator.data[spec.node_rows(rack, node)] for rack, node in nodes]
    return Matrix(spec.field, np.vstack(rows))


def collect(spec: CodeSpec, state: ClusterState, nodes) -> np.ndarray:
    """Recover the message from any k live nodes.

    The k*alpha observed symbols are solved against the stacked generator
    rows.  Rows of rank < B are the code's failure; otherwise the k*alpha - B
    redundant symbols must agree, so a corrupt collector symbol raises
    ``CodeIntegrityError`` instead of decoding to wrong bytes.
    """
    p = spec.params
    chosen = sorted(set((int(r), int(i)) for r, i in nodes))
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


def _products(f: Field, a, b) -> np.ndarray:
    """The matrix product ``a @ b`` over ``f``, broadcast over leading axes, as
    one row-wise vec_mul and vec_sum (for the small operands of repair)."""
    return f.vec_sum(f.vec_mul(a[..., :, :, None], b[..., None, :, :]), axis=-2)


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
    parities = _products(spec.field, spec.rack_maps[rack - 1].data[: epf * a],
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
    p = spec.params
    f = spec.field
    u_l = spec.u_col(rack)
    v_l = spec.v_col(rack)
    lhs = f.vec_sum(f.vec_mul(stored[..., : p.d], u_l), axis=-1)
    partial = f.vec_sum(f.vec_mul(stored[..., p.d :], v_l[:-1]), axis=-1)
    last = f.vec_mul(f.vec_sub(lhs, partial), f.inv(int(v_l[-1])))
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
    sent1 = np.stack([_products(f, vecs[..., :d], u_failed),
                      _products(f, vecs[..., d:], v_failed)], axis=1)
    round1 = [(j, l, sent1[h, :, :, s].size)
              for h, j in enumerate(helper_racks) for s, l in enumerate(failed_racks)]

    # Each failed rack solves u_j^T M_i v_l = v_l^T M_i^T u_j for its M_i v_l.
    u_helpers_t = Matrix(f, spec.U.data[:, [j - 1 for j in helper_racks]].T)
    m_v = np.stack([linalg.solve(u_helpers_t, sent1[:, 1, :, s])
                    for s in range(len(failed_racks))])  # (rack, d, e/f)

    # Round 2: sent2[s, r] = (u_t^T M_i v_l)_i for l = failed_racks[s] and
    # t = failed_racks[r]; rack l sends it to rack t unless r == s.
    sent2 = _products(f, u_failed.T, m_v)
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
        parts = _products(f, _rack_rows(spec, rack, lost).data, c_l[:, None]).reshape(-1, a)
        for i, part in zip(lost, parts):
            rack_rows[i - 1] = part if i > epf else f.vec_add(part, pm_part[i - 1])
        state.erased[[start + i - 1 for i in lost]] = False

    intra_rack = {"helper_rack_reads": len(helper_racks) * (npr - 1) * a,
                  "failed_rack_reads": len(failed_racks) * (npr - epf) * a}
    return state, RepairTranscript(sorted(round1), sorted(round2), intra_rack)
