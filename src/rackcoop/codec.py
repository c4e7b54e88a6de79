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

import itertools
import math
import random
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
    """r racks of n/r nodes, each holding alpha symbols or an erased mark."""

    def __init__(self, params: CodeParams, field: Field, alpha: int):
        self.params = params
        self.field = field
        self.alpha = alpha
        self._racks: list[list[np.ndarray | None]] = [
            [None] * params.nodes_per_rack for _ in range(params.r)
        ]

    def _check_id(self, rack: int, node: int) -> None:
        if not (1 <= rack <= self.params.r and 1 <= node <= self.params.nodes_per_rack):
            raise KeyError(f"no node ({rack}, {node})")

    def set_node(self, rack: int, node: int, symbols) -> None:
        self._check_id(rack, node)
        arr = np.asarray(symbols, dtype=np.int64).copy()
        if arr.shape != (self.alpha,):
            raise EncodingError(f"node ({rack}, {node}) needs {self.alpha} symbols")
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.order):
            raise EncodingError("symbol outside field range")
        arr.setflags(write=False)
        self._racks[rack - 1][node - 1] = arr

    def node(self, rack: int, node: int) -> np.ndarray:
        self._check_id(rack, node)
        data = self._racks[rack - 1][node - 1]
        if data is None:
            raise CodeIntegrityError(f"node ({rack}, {node}) is erased")
        return data

    def erase(self, rack: int, node: int) -> None:
        self._check_id(rack, node)
        self._racks[rack - 1][node - 1] = None

    def is_erased(self, rack: int, node: int) -> bool:
        self._check_id(rack, node)
        return self._racks[rack - 1][node - 1] is None

    def erased_nodes(self) -> list[tuple[int, int]]:
        return [pair for pair in self.node_ids() if self.is_erased(*pair)]

    def node_ids(self):
        for rack in range(1, self.params.r + 1):
            for node in range(1, self.params.nodes_per_rack + 1):
                yield rack, node

    def clone(self) -> "ClusterState":
        out = ClusterState(self.params, self.field, self.alpha)
        for rack, node in self.node_ids():
            if not self.is_erased(rack, node):
                out.set_node(rack, node, self.node(rack, node))
            else:
                out.erase(rack, node)
        return out

    def __eq__(self, other):
        if not isinstance(other, ClusterState):
            return NotImplemented
        if (self.params, self.field, self.alpha) != (other.params, other.field, other.alpha):
            return False
        for rack, node in self.node_ids():
            if self.is_erased(rack, node) != other.is_erased(rack, node):
                return False
            if not self.is_erased(rack, node) and not np.array_equal(
                self.node(rack, node), other.node(rack, node)
            ):
                return False
        return True


@dataclass(frozen=True)
class CodeSpec:
    """All generator material of one code instance.

    ``P[i-1][l-1]`` is the (2d+f) x (n/r - e/f)(2d+f-1) local-parity map of
    node i in rack l; its last row is always zero so the dropped product-
    matrix symbol stays parity-free.
    """

    params: CodeParams
    field: Field
    G: Matrix
    U: Matrix
    V: Matrix
    P: tuple[tuple[Matrix, ...], ...]
    seed: int
    layout: ConstructionLayout

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

    @property
    def mm_symbols(self) -> int:
        p = self.params
        return p.m * (2 * p.d + p.f - p.m)

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
        base = self.params.r * self.globals_per_rack * self.alpha + (i - 1) * self.mm_symbols
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
        start = ((rack - 1) * self.params.nodes_per_rack + node - 1) * self.alpha
        return slice(start, start + self.alpha)

    @cached_property
    def generator(self) -> Matrix:
        """The (n*alpha) x B matrix mapping the message to every stored
        symbol, node by node in (rack, node) order (see :meth:`node_rows`)."""
        p = self.params
        w = np.zeros((p.n * self.alpha, self.n_global), dtype=np.int64)
        for rack in range(1, p.r + 1):
            for node in range(1, p.nodes_per_rack + 1):
                rows = self.node_rows(rack, node)
                if node > p.failures_per_rack:
                    start = self.global_col(rack, node - p.failures_per_rack)
                    w[rows, start : start + self.alpha] = np.eye(self.alpha, dtype=np.int64)
                else:
                    w[rows] = self._mbcr_global_map(rack, node)
        return Matrix(self.field, linalg._raw_matmul(self.field, w, self.G.data.T))

    def _mbcr_global_map(self, rack: int, i: int) -> np.ndarray:
        """alpha x N matrix mapping outer-code symbols to node (rack, i)'s
        stored symbols (i <= e/f)."""
        p = self.params
        f = self.field
        u_l = self.u_col(rack)
        v_l = self.v_col(rack)
        width = p.d + p.f
        w = np.zeros((self.alpha, self.n_global), dtype=np.int64)
        for row in range(self.alpha):
            if row < p.d:
                # (M_i v_l)[row] = sum_c v_l[c] * M_i[row, c]
                for c in range(width):
                    col = self.message_matrix_col(i, row, c)
                    if col is not None:
                        w[row, col] = int(v_l[c])
            else:
                # (M_i^T u_l)[row-d] = sum_rw u_l[rw] * M_i[rw, row-d]
                rr = row - p.d
                for rw in range(p.d):
                    col = self.message_matrix_col(i, rw, rr)
                    if col is not None:
                        w[row, col] = int(u_l[rw])
        # local parity contribution
        pm = self.P[i - 1][rack - 1].data
        base = self.rack_global_slice(rack).start
        w[:, base : base + pm.shape[1]] = f.vec_add(
            w[:, base : base + pm.shape[1]], pm[: self.alpha]
        )
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


def build_default_code(p: CodeParams, seed: int, **kwargs) -> CodeSpec:
    """Build with the default field policy.

    GF(2^8) is used while the outer code fits and all rank checks pass;
    if verification exhausts its resamples there, the build escalates to
    GF(2^16).  Parameter-level impossibilities are not retried.
    """
    last: CodeBuildError | None = None
    for make in _field_candidates(p):
        try:
            return build_code(p, make(), seed, **kwargs)
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


def build_code(
    p: CodeParams,
    field: Field,
    seed: int,
    *,
    max_attempts: int = 24,
    subset_limit: int = 10_000,
    subset_samples: int = 1_000,
) -> CodeSpec:
    """Generate and verify a code instance; deterministic in ``seed``.

    The first attempt uses structured choices (Vandermonde point runs and a
    Cauchy parity stack); later attempts resample points, and the last half
    falls back to fully random dense parity maps.  Every attempt is checked
    for the U/V submatrix-rank properties, the per-rack vector-MDS property
    and the rank-B collector property before being accepted.
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
    deficiency = structural_recovery_deficiency(p)
    if deficiency is not None:
        support, witness = deficiency
        raise UnsupportedParametersError(
            f"parameters {p.as_tuple()} cannot satisfy any-k recovery with this "
            f"construction: collector {list(witness)} reaches only {support} "
            f"independent coordinates but the file has {layout.file_size}; "
            "no field choice can repair this"
        )
    rng = random.Random(seed)
    failures: list[str] = []
    for attempt in range(max_attempts):
        g, u, v, parities = _candidate(p, field, layout, rng, attempt, max_attempts)
        spec = CodeSpec(
            params=p, field=field, G=g, U=u, V=v, P=parities, seed=seed, layout=layout
        )
        problem = _verify_spec(spec, subset_limit, subset_samples)
        if problem is None:
            return spec
        failures.append(f"attempt {attempt}: {problem}")
    raise CodeBuildError(
        "could not build a verified code instance; " + "; ".join(failures)
    )


def _candidate(p, field, layout, rng, attempt, max_attempts):
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
    g = linalg.mds_generator(layout.file_size, n_pts, field, points=g_points, seed=rng.randrange(2**32))
    u = linalg.vandermonde(p.d, uv_points, field)
    v = linalg.vandermonde(p.d + p.f, uv_points, field)

    dense = attempt >= max_attempts // 2
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
                if attempt == 0:
                    cs = list(range(epf + w))
                else:
                    cs = rng.sample(range(q), epf + w)
                lam = linalg.cauchy(field, cs[:epf], cs[epf:])
                pm = np.zeros((layout.alpha, w * layout.alpha), dtype=np.int64)
                for t in range(w):
                    for pos in range(layout.alpha):
                        pm[pos, t * layout.alpha + pos] = lam.data[i - 1, t]
            full = np.vstack([pm, np.zeros((1, w * layout.alpha), dtype=np.int64)])
            row.append(Matrix(field, full))
        parities.append(tuple(row))
    return g, u, v, tuple(parities)


def _verify_spec(spec: CodeSpec, subset_limit: int, subset_samples: int) -> str | None:
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
    for rack in range(1, p.r + 1):
        if not _rack_vector_mds(spec, rack):
            return f"vector-MDS property failed in rack {rack}"
    bad = _collector_rank_problem(spec, subset_limit, subset_samples)
    if bad is not None:
        return f"collector rank deficient for nodes {bad}"
    return None


def _block_rows(spec: CodeSpec, rack: int, block) -> np.ndarray:
    """Rows expressing one rack block as a linear map of c_l."""
    w = spec.globals_per_rack
    kind, idx = block
    if kind == "global":
        rows = np.zeros((spec.alpha, w * spec.alpha), dtype=np.int64)
        for pos in range(spec.alpha):
            rows[pos, (idx - 1) * spec.alpha + pos] = 1
        return rows
    return spec.P[idx - 1][rack - 1].data[: spec.alpha].copy()


def rack_blocks(spec: CodeSpec) -> list[tuple[str, int]]:
    """Identifiers of the n/r per-rack blocks: globals then parities."""
    return [("global", t) for t in range(1, spec.globals_per_rack + 1)] + [
        ("parity", i) for i in range(1, spec.matrices_per_rack + 1)
    ]


def _rack_vector_mds(spec: CodeSpec, rack: int) -> bool:
    blocks = rack_blocks(spec)
    w = spec.globals_per_rack
    for subset in itertools.combinations(blocks, w):
        stacked = np.vstack([_block_rows(spec, rack, b) for b in subset])
        if linalg.rank(Matrix(spec.field, stacked)) != w * spec.alpha:
            return False
    return True


def recover_rack_globals(spec: CodeSpec, rack: int, available: dict) -> np.ndarray:
    """Solve for the rack's global content c_l from any n/r - e/f blocks.

    ``available`` maps block ids from :func:`rack_blocks` to their observed
    alpha-symbol values.
    """
    w = spec.globals_per_rack
    if len(available) != w:
        raise CodeIntegrityError(f"need exactly {w} blocks, got {len(available)}")
    items = sorted(available.items())
    rows = np.vstack([_block_rows(spec, rack, b) for b, _ in items])
    rhs = np.concatenate([np.asarray(v, dtype=np.int64) for _, v in items])
    try:
        return linalg.solve(Matrix(spec.field, rows), rhs)
    except linalg.SingularMatrixError as exc:
        raise CodeIntegrityError(f"vector-MDS solve failed in rack {rack}") from exc


def _collector_rank_problem(spec, subset_limit, subset_samples):
    p = spec.params
    ids = [(rack, node) for rack in range(1, p.r + 1)
           for node in range(1, p.nodes_per_rack + 1)]
    total = math.comb(len(ids), p.k)
    if total <= subset_limit:
        subsets = itertools.combinations(ids, p.k)
    else:
        srng = random.Random(spec.seed ^ 0x5EED)
        subsets = (tuple(sorted(srng.sample(ids, p.k))) for _ in range(subset_samples))
    for subset in subsets:
        if linalg.rank(stack_functionals(spec, subset)) != spec.file_size:
            return subset
    return None


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
    symbols = linalg.mat_vec(spec.generator, _check_message(spec, message))
    state = ClusterState(spec.params, spec.field, spec.alpha)
    for rack, node in state.node_ids():
        state.set_node(rack, node, symbols[spec.node_rows(rack, node)])
    return state


# -- file recovery ------------------------------------------------------


def stack_functionals(spec: CodeSpec, nodes) -> Matrix:
    """Stacked generator rows of the given nodes (len(nodes)*alpha x B)."""
    rows = [spec.generator.data[spec.node_rows(rack, node)] for rack, node in nodes]
    return Matrix(spec.field, np.vstack(rows))


def collect(spec: CodeSpec, state: ClusterState, nodes) -> np.ndarray:
    """Recover the message from any k live nodes.

    The k*alpha observed symbols are solved against the stacked generator
    rows; the k*alpha - B redundant ones must agree, so a corrupt collector
    symbol raises ``CodeIntegrityError`` instead of decoding to wrong bytes.
    """
    p = spec.params
    chosen = sorted(set((int(r), int(i)) for r, i in nodes))
    if len(chosen) != p.k:
        raise EncodingError(f"collect needs exactly {p.k} distinct nodes, got {len(chosen)}")
    for rack, node in chosen:
        if not (1 <= rack <= p.r and 1 <= node <= p.nodes_per_rack):
            raise EncodingError(f"collector node ({rack}, {node}) out of range")
        if state.is_erased(rack, node):
            raise EncodingError(f"collector node ({rack}, {node}) is erased")
    stacked = stack_functionals(spec, chosen)
    observed = np.concatenate([state.node(rack, node) for rack, node in chosen])
    try:
        return linalg.solve_full_rank(stacked, observed)
    except linalg.LinalgError as exc:  # rank lost or redundant symbols disagree
        raise CodeIntegrityError(f"collect failed ({exc}); a node or the code is corrupt") from exc


# -- repair -------------------------------------------------------------


def strip_parities(spec: CodeSpec, rack: int, state: ClusterState) -> dict[int, np.ndarray]:
    """Clean stored product-matrix symbols of rack ``rack``.

    Returns, for each live node i <= e/f, the first 2d+f-1 entries of
    [M_i v_l ; M_i^T u_l] with the local parity removed.  Requires all of
    the rack's global nodes to be live.
    """
    p = spec.params
    c_parts = []
    for slot in range(1, spec.globals_per_rack + 1):
        node = p.failures_per_rack + slot
        if state.is_erased(rack, node):
            raise CodeIntegrityError(
                f"global node ({rack}, {node}) erased; cannot strip parities"
            )
        c_parts.append(state.node(rack, node))
    c_l = np.concatenate(c_parts)
    out = {}
    for i in range(1, spec.matrices_per_rack + 1):
        if state.is_erased(rack, i):
            continue
        parity = linalg.mat_vec(spec.P[i - 1][rack - 1], c_l)[: spec.alpha]
        out[i] = spec.field.vec_sub(state.node(rack, i), parity)
    return out


def complete_mbcr_vector(spec: CodeSpec, rack: int, stored: np.ndarray) -> np.ndarray:
    """Extend the stored 2d+f-1 clean symbols with the dropped last one.

    Uses u_l^T (M_i v_l) = v_l^T (M_i^T u_l): the left side is computable
    from the first d entries, the right side exposes the missing entry
    through the last coordinate of v_l.
    """
    p = spec.params
    f = spec.field
    u_l = spec.u_col(rack)
    v_l = spec.v_col(rack)
    lhs = f.vec_dot(u_l, stored[: p.d])
    partial = f.vec_dot(v_l[:-1], stored[p.d :])
    last = f.mul(f.sub(lhs, partial), f.inv(int(v_l[-1])))
    return np.concatenate([stored, np.array([last], dtype=np.int64)])


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
        return sum(c for _, dst, c in self.round1 if dst == rack) + sum(
            c for _, dst, c in self.round2 if dst == rack
        )


def repair(spec: CodeSpec, state: ClusterState, failed, helpers) -> tuple[ClusterState, RepairTranscript]:
    """Rebuild e erased nodes (e/f in each of f racks) in place.

    Round 1: every helper rack's relayer strips local parities and sends,
    per failed rack l and matrix index i, the two projections
    u_l^T M_i v_j and v_l^T M_i^T u_j (beta1 = 2e/f symbols); each failed
    rack solves the d-projection system for M_i v_l.  Round 2: failed racks
    exchange u_t^T M_i v_l (beta2 = e/f symbols per ordered pair) and each
    solves the (d+f)-projection system for M_i^T u_t.  The rack then holds
    its full product-matrix vectors and restores every lost node through
    the per-rack vector-MDS property.
    """
    p = spec.params
    stage = RepairStage.make(failed, helpers).validate(p)
    failed_map = dict(stage.failed)
    failed_racks, helper_racks = stage.racks, stage.helpers
    expected = {(rack, i) for rack, idxs in stage.failed for i in idxs}
    actual = set(state.erased_nodes())
    if actual != expected:
        raise RepairPatternError(
            f"state erasures {sorted(actual)} do not match the declared pattern {sorted(expected)}"
        )
    f = spec.field
    epf = p.failures_per_rack

    round1: list[tuple[int, int, int]] = []
    round2: list[tuple[int, int, int]] = []

    # Round 1: helper projections.
    recv1: dict[int, dict[tuple[int, int], tuple[int, int]]] = {l: {} for l in failed_racks}
    for j in helper_racks:
        clean = strip_parities(spec, j, state)
        full = {i: complete_mbcr_vector(spec, j, vec) for i, vec in clean.items()}
        for l in failed_racks:
            u_l = spec.u_col(l)
            v_l = spec.v_col(l)
            for i in range(1, epf + 1):
                s_uv = f.vec_dot(u_l, full[i][: p.d])       # u_l^T M_i v_j
                s_vu = f.vec_dot(v_l, full[i][p.d :])       # v_l^T M_i^T u_j
                recv1[l][(j, i)] = (s_uv, s_vu)
            round1.append((j, l, 2 * epf))

    # Each failed rack solves for M_i v_l.
    u_helpers_t = linalg.transpose(spec.U.take_columns([j - 1 for j in helper_racks]))
    m_v: dict[tuple[int, int], np.ndarray] = {}
    for l in failed_racks:
        for i in range(1, epf + 1):
            rhs = np.array([recv1[l][(j, i)][1] for j in helper_racks], dtype=np.int64)
            m_v[(l, i)] = linalg.solve(u_helpers_t, rhs)

    # Round 2: failed racks exchange projections of each other's vectors.
    recv2: dict[tuple[int, int, int], int] = {}
    for l in failed_racks:
        for t in failed_racks:
            if t == l:
                continue
            u_t = spec.u_col(t)
            for i in range(1, epf + 1):
                recv2[(l, t, i)] = f.vec_dot(u_t, m_v[(l, i)])  # u_t^T M_i v_l
            round2.append((l, t, epf))

    # Each failed rack solves for M_i^T u_t from d+f projections onto V columns.
    m_u: dict[tuple[int, int], np.ndarray] = {}
    for t in failed_racks:
        proj_cols = list(helper_racks) + [l for l in failed_racks if l != t] + [t]
        v_sub_t = linalg.transpose(spec.V.take_columns([c - 1 for c in proj_cols]))
        for i in range(1, epf + 1):
            rhs = []
            for j in helper_racks:
                rhs.append(recv1[t][(j, i)][0])              # v_j^T M_i^T u_t
            for l in failed_racks:
                if l != t:
                    rhs.append(recv2[(l, t, i)])             # v_l^T M_i^T u_t
            rhs.append(f.vec_dot(spec.u_col(t), m_v[(t, i)]))  # v_t^T M_i^T u_t
            m_u[(t, i)] = linalg.solve(v_sub_t, np.array(rhs, dtype=np.int64))

    # In-rack restoration through the vector-MDS property.
    for rack in failed_racks:
        full_vecs = {
            i: np.concatenate([m_v[(rack, i)], m_u[(rack, i)]])
            for i in range(1, epf + 1)
        }
        available: dict[tuple[str, int], np.ndarray] = {}
        for slot in range(1, spec.globals_per_rack + 1):
            node = epf + slot
            if node not in failed_map[rack]:
                available[("global", slot)] = state.node(rack, node)
        for i in range(1, epf + 1):
            if i not in failed_map[rack]:
                available[("parity", i)] = f.vec_sub(
                    state.node(rack, i), full_vecs[i][: spec.alpha]
                )
        c_l = recover_rack_globals(spec, rack, available)
        for node in failed_map[rack]:
            if node > epf:
                slot = node - epf
                state.set_node(
                    rack, node, c_l[(slot - 1) * spec.alpha : slot * spec.alpha]
                )
            else:
                parity = linalg.mat_vec(spec.P[node - 1][rack - 1], c_l)[: spec.alpha]
                state.set_node(
                    rack, node, f.vec_add(full_vecs[node][: spec.alpha], parity)
                )

    npr = p.nodes_per_rack
    transcript = RepairTranscript(
        round1=sorted(round1),
        round2=sorted(round2),
        intra_rack={
            "helper_rack_reads": len(helper_racks) * (npr - 1) * spec.alpha,
            "failed_rack_reads": len(failed_racks) * (npr - epf) * spec.alpha,
        },
    )
    return state, transcript

