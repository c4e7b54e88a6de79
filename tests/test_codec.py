import dataclasses
import itertools
import random

import numpy as np
import pytest

from helpers import all_k_subsets, mbcr_vector, message_matrices
from rackcoop import codec, field, linalg, params
from rackcoop.codec import (
    CodeBuildError,
    CodeIntegrityError,
    EncodingError,
    RepairPatternError,
    build_code,
    collect,
    complete_mbcr_vector,
    encode,
    global_symbols,
    repair,
    stack_functionals,
    strip_parities,
    structural_recovery_deficiency,
)


def random_message(spec, seed):
    rng = random.Random(seed)
    return np.array(
        [rng.randrange(spec.field.order) for _ in range(spec.file_size)], dtype=np.int64
    )


def erase_pattern(state, failed):
    for rack, idxs in failed.items():
        for i in idxs:
            state.erase(rack, i)


@pytest.fixture(scope="module")
def two_matrix_spec():
    """e/f = 2: two product matrices per rack."""
    p = params.validate(16, 8, 2, 4, 4, 2)
    return build_code(p, field.gf256(), seed=3, subset_samples=200)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_shapes_and_checks(base_spec):
    assert (base_spec.G.rows, base_spec.G.cols) == (18, 28)
    assert (base_spec.U.rows, base_spec.U.cols) == (2, 4)
    assert (base_spec.V.rows, base_spec.V.cols) == (4, 4)
    assert (base_spec.P[0][0].rows, base_spec.P[0][0].cols) == (6, 5)
    for i_row in base_spec.P:
        for pm in i_row:
            assert not pm.data[-1].any()
    assert linalg.check_U_property(base_spec.U, 2, 2)
    assert linalg.check_V_property(base_spec.V, 2, 2, 2)


def test_build_deterministic(base_params, base_spec):
    again = build_code(base_params, field.gf256(), seed=7)
    assert again.G == base_spec.G
    assert again.U == base_spec.U
    assert again.V == base_spec.V
    assert again.P == base_spec.P


def test_build_rejects_no_global_nodes():
    p = params.validate(8, 4, 2, 4, 4, 2)  # e/f == n/r
    with pytest.raises(CodeBuildError, match="global node"):
        build_code(p, field.gf256(), seed=0)


def test_build_rejects_structural_recovery_gap():
    """With several matrices per rack a collector can dodge one matrix
    entirely; when that caps its information below B no field choice helps
    and the build must refuse."""
    p = params.validate(12, 6, 2, 4, 4, 2)
    witness = structural_recovery_deficiency(p)
    assert witness is not None and witness[0] < params.construction_params(p).file_size
    with pytest.raises(CodeBuildError, match="no field choice"):
        build_code(p, field.gf256(), seed=0)


def test_structural_check_passes_base(base_params):
    assert structural_recovery_deficiency(base_params) is None


def test_structural_check_matches_brute_force():
    """The DP's minimal collector support equals brute-force enumeration of
    every k-subset's reachable coordinate count."""
    from helpers import all_valid_tuples

    def brute_min_support(p):
        lay = params.construction_params(p)
        epf = p.failures_per_rack
        w = p.nodes_per_rack - epf
        msize = p.m * (2 * p.d + p.f - p.m)
        ids = [(r, i) for r in range(1, p.r + 1) for i in range(1, p.nodes_per_rack + 1)]
        best = None
        for subset in itertools.combinations(ids, p.k):
            mbcr_racks, slots, matrices = set(), {}, set()
            for rack, i in subset:
                if i <= epf:
                    mbcr_racks.add(rack)
                    matrices.add(i)
                else:
                    slots.setdefault(rack, set()).add(i)
            total = msize * len(matrices)
            for rack in mbcr_racks | set(slots):
                total += (w if rack in mbcr_racks else len(slots[rack])) * lay.alpha
            best = total if best is None else min(best, total)
        return best

    rng = random.Random(2)
    pool = [p for p in all_valid_tuples() if p.n <= 10]
    for p in rng.sample(pool, 12):
        lay = params.construction_params(p)
        brute = brute_min_support(p)
        dp = structural_recovery_deficiency(p)
        if brute < lay.file_size:
            assert dp is not None and dp[0] == brute
        else:
            assert dp is None


def test_build_field_too_small():
    p = params.validate(8, 4, 2, 4, 2, 2)
    with pytest.raises(CodeBuildError, match="too large"):
        build_code(p, field.prime_field(23), seed=0)


def test_default_field_choice(base_params):
    assert codec.default_field(base_params).order == 256


def test_build_default_code(base_params):
    spec = codec.build_default_code(base_params, seed=7)
    assert spec.field.order == 256
    # parameter-level impossibilities are not retried in a bigger field
    with pytest.raises(codec.UnsupportedParametersError):
        codec.build_default_code(params.validate(12, 6, 2, 4, 4, 2), seed=0)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_zero_message_zero_cluster(base_spec):
    state = encode(base_spec, np.zeros(18, dtype=np.int64))
    for rack, node in state.node_ids():
        assert not state.node(rack, node).any()


def test_encode_is_linear(base_spec):
    f = base_spec.field
    x = random_message(base_spec, 1)
    y = random_message(base_spec, 2)
    sx, sy = encode(base_spec, x), encode(base_spec, y)
    sxy = encode(base_spec, f.vec_add(x, y))
    for rack, node in sxy.node_ids():
        want = f.vec_add(sx.node(rack, node), sy.node(rack, node))
        assert np.array_equal(sxy.node(rack, node), want)


def test_global_nodes_hold_outer_code_slices(base_spec, base_message, base_state):
    g = global_symbols(base_spec, base_message)
    for rack in range(1, 5):
        for slot in (1,):
            node = base_spec.params.failures_per_rack + slot
            start = base_spec.global_col(rack, slot)
            assert np.array_equal(
                base_state.node(rack, node), g[start : start + base_spec.alpha]
            )


def test_every_node_stores_alpha_symbols(base_spec, base_state):
    for rack, node in base_state.node_ids():
        assert base_state.node(rack, node).shape == (base_spec.alpha,)
    lay = base_spec.layout
    assert lay.file_size == base_spec.params.k * lay.alpha + base_spec.params.failures_per_rack * (
        base_spec.params.m - base_spec.params.m**2
    )


def test_encode_wrong_length(base_spec):
    with pytest.raises(EncodingError):
        encode(base_spec, np.zeros(17, dtype=np.int64))


def test_generator_matches_paper_formula(base_spec, two_matrix_spec):
    """Every generator column (the code of a unit message) matches the
    paper's layout: a product-matrix node holds the first alpha entries of
    [M_i v_l ; M_i^T u_l] + P_{i,l} c_l, a global node its slice of G^T m."""
    for spec in (base_spec, two_matrix_spec):
        epf = spec.matrices_per_rack
        ids = list(itertools.product(range(1, spec.params.r + 1),
                                     range(1, spec.params.nodes_per_rack + 1)))
        for j in range(spec.file_size):
            msg = np.zeros(spec.file_size, dtype=np.int64)
            msg[j] = 1
            column = spec.generator.column(j)
            g = global_symbols(spec, msg)
            mms = message_matrices(spec, msg)
            for rack, node in ids:
                if node > epf:
                    start = spec.global_col(rack, node - epf)
                    want = g[start : start + spec.alpha]
                else:
                    c_l = g[spec.rack_global_slice(rack)]
                    want = spec.field.vec_add(
                        mbcr_vector(spec, mms[node - 1], rack),
                        linalg.mat_vec(spec.P[node - 1][rack - 1], c_l),
                    )[: spec.alpha]
                assert np.array_equal(column[spec.node_rows(rack, node)], want), (j, rack, node)


def test_dropped_symbol_dependence_relation(base_spec, base_message, base_state):
    """The unstored (2d+f)-th product-matrix symbol reconstructed from the
    stored ones equals its direct computation from the message."""
    mms = message_matrices(base_spec, base_message)
    for rack in range(1, 5):
        clean = strip_parities(base_spec, rack, base_state)
        for i, vec in clean.items():
            completed = complete_mbcr_vector(base_spec, rack, vec)
            direct = mbcr_vector(base_spec, mms[i - 1], rack)
            assert np.array_equal(completed, direct)


# ---------------------------------------------------------------------------
# file recovery
# ---------------------------------------------------------------------------

def test_collect_pure_global_mds_path(base_spec, base_message, base_state):
    got = collect(base_spec, base_state, [(1, 2), (2, 2), (3, 2), (4, 2)])
    assert np.array_equal(got, base_message)


def test_collect_every_k_subset(base_spec, base_message, base_state):
    for subset in all_k_subsets(base_spec.params):
        got = collect(base_spec, base_state, subset)
        assert np.array_equal(got, base_message), subset


def test_corrupt_collector_symbol_detected(base_spec, base_state):
    """The k*alpha - B redundant collector symbols catch a flipped bit in any
    collector node, on the all-global and on a mixed collector."""
    for collector in ([(1, 2), (2, 2), (3, 2), (4, 2)], [(1, 1), (2, 2), (3, 1), (4, 2)]):
        for rack, node in collector:
            for pos in range(base_spec.alpha):
                state = base_state.clone()
                symbols = state.node(rack, node).copy()
                symbols[pos] ^= 1
                state.set_node(rack, node, symbols)
                with pytest.raises(CodeIntegrityError, match="inconsistent"):
                    collect(base_spec, state, collector)


def test_collect_wrong_count(base_spec, base_state):
    with pytest.raises(EncodingError):
        collect(base_spec, base_state, [(1, 1), (1, 2), (2, 1)])


def test_collect_erased_node_rejected(base_spec, fresh_state):
    fresh_state.erase(1, 2)
    with pytest.raises(EncodingError):
        collect(base_spec, fresh_state, [(1, 2), (2, 2), (3, 2), (4, 2)])


def test_k_minus_one_nodes_rank_deficient(base_spec):
    for subset in itertools.combinations([(1, 1), (1, 2), (2, 2), (3, 1)], 3):
        stacked = stack_functionals(base_spec, subset)
        assert linalg.rank(stacked) < base_spec.file_size


# ---------------------------------------------------------------------------
# parity stripping
# ---------------------------------------------------------------------------

def test_strip_parities_zero_parity_identity(base_spec, base_message):
    """With all parity maps zeroed, stripping is the identity on stored symbols."""
    zero_p = tuple(
        tuple(linalg.zeros(base_spec.field, pm.rows, pm.cols) for pm in row)
        for row in base_spec.P
    )
    zspec = dataclasses.replace(base_spec, P=zero_p)
    state = encode(zspec, base_message)
    for rack in range(1, 5):
        clean = strip_parities(zspec, rack, state)
        for i, vec in clean.items():
            assert np.array_equal(vec, state.node(rack, i))


def test_strip_parities_matches_direct_product(base_spec, base_message, base_state):
    mms = message_matrices(base_spec, base_message)
    for rack in range(1, 5):
        clean = strip_parities(base_spec, rack, base_state)
        for i, vec in clean.items():
            direct = mbcr_vector(base_spec, mms[i - 1], rack)[: base_spec.alpha]
            assert np.array_equal(vec, direct)


def test_strip_parities_requires_global_nodes(base_spec, fresh_state):
    fresh_state.erase(2, 2)
    with pytest.raises(CodeIntegrityError):
        strip_parities(base_spec, 2, fresh_state)


# ---------------------------------------------------------------------------
# repair
# ---------------------------------------------------------------------------

def test_repair_base_example(base_spec, base_message):
    state = encode(base_spec, base_message)
    reference = state.clone()
    failed = {1: (1,), 2: (1,)}
    erase_pattern(state, failed)
    restored, transcript = repair(base_spec, state, failed, helpers=(3, 4))
    assert restored == reference
    assert transcript.cross_symbols(1) == transcript.cross_symbols(2) == 5


def test_repair_exhaustive_patterns(base_spec, base_message):
    reference = encode(base_spec, base_message)
    for racks in itertools.combinations(range(1, 5), 2):
        helpers = tuple(h for h in range(1, 5) if h not in racks)
        for nodes in itertools.product((1, 2), repeat=2):
            failed = dict(zip(racks, ((nodes[0],), (nodes[1],))))
            state = reference.clone()
            erase_pattern(state, failed)
            restored, transcript = repair(base_spec, state, failed, helpers)
            assert restored == reference, (racks, nodes)
            for rack in racks:
                assert transcript.cross_symbols(rack) == 5
            assert all(c == 2 for _, _, c in transcript.round1)
            assert all(c == 1 for _, _, c in transcript.round2)
            assert len(transcript.round1) == 4 and len(transcript.round2) == 2


def test_repair_transcript_intra_not_counted(base_spec, base_message):
    state = encode(base_spec, base_message)
    failed = {1: (2,), 3: (2,)}
    erase_pattern(state, failed)
    _, transcript = repair(base_spec, state, failed, helpers=(2, 4))
    # gamma counts only cross-rack symbols; intra reads are reported separately
    assert transcript.cross_symbols(1) == 5
    assert transcript.intra_rack["helper_rack_reads"] == 2 * 1 * 5
    assert transcript.intra_rack["failed_rack_reads"] == 2 * 1 * 5


def test_repair_then_collect_sequences(base_spec, base_message):
    """Five random erase/repair rounds leave every k-subset collectible."""
    state = encode(base_spec, base_message)
    rng = random.Random(55)
    for _ in range(5):
        racks = tuple(rng.sample(range(1, 5), 2))
        helpers = tuple(h for h in range(1, 5) if h not in racks)
        failed = {rack: (rng.randint(1, 2),) for rack in racks}
        erase_pattern(state, failed)
        repair(base_spec, state, failed, helpers)
    for subset in all_k_subsets(base_spec.params):
        assert np.array_equal(collect(base_spec, state, subset), base_message)


def test_repair_pattern_validation(base_spec, base_message):
    state = encode(base_spec, base_message)
    failed = {1: (1,), 2: (1,)}
    erase_pattern(state, failed)
    with pytest.raises(RepairPatternError, match="helper"):
        repair(base_spec, state, failed, helpers=(3,))
    with pytest.raises(RepairPatternError, match="disjoint"):
        repair(base_spec, state, failed, helpers=(2, 3))
    with pytest.raises(RepairPatternError, match="exactly"):
        repair(base_spec, state, {1: (1,)}, helpers=(3, 4))
    # declared pattern must match the state's erasures
    with pytest.raises(RepairPatternError, match="do not match"):
        repair(base_spec, state, {1: (1,), 3: (1,)}, helpers=(2, 4))


def test_repair_nonuniform_pattern_rejected(base_spec, base_message):
    state = encode(base_spec, base_message)
    state.erase(1, 1)
    state.erase(1, 2)
    with pytest.raises(RepairPatternError):
        repair(base_spec, state, {1: (1, 2)}, helpers=(3, 4))


# ---------------------------------------------------------------------------
# other fields and parameter shapes
# ---------------------------------------------------------------------------

def test_gf65536_roundtrip(base_params):
    spec = build_code(base_params, field.gf65536(), seed=7)
    msg = random_message(spec, 3)
    state = encode(spec, msg)
    rng = random.Random(6)
    ids = [(r, i) for r in range(1, 5) for i in range(1, 3)]
    for _ in range(10):
        subset = rng.sample(ids, 4)
        assert np.array_equal(collect(spec, state, subset), msg)
    reference = state.clone()
    failed = {1: (1,), 4: (2,)}
    erase_pattern(state, failed)
    restored, _ = repair(spec, state, failed, helpers=(2, 3))
    assert restored == reference


def test_prime_field_roundtrip(base_params):
    spec = build_code(base_params, field.prime_field(257), seed=1)
    msg = random_message(spec, 4)
    state = encode(spec, msg)
    assert np.array_equal(collect(spec, state, [(1, 1), (2, 1), (3, 2), (4, 2)]), msg)


def test_two_failures_per_rack_tuple(two_matrix_spec):
    """e/f = 2: two product matrices, mixed node-type failures."""
    spec = two_matrix_spec
    msg = random_message(spec, 8)
    reference = encode(spec, msg)
    rng = random.Random(8)
    ids = [(r, i) for r in range(1, 5) for i in range(1, 5)]
    for _ in range(10):
        subset = rng.sample(ids, 8)
        assert np.array_equal(collect(spec, reference, subset), msg)
    lay = spec.layout
    for idx1 in itertools.combinations(range(1, 5), 2):
        for idx2 in itertools.combinations(range(1, 5), 2):
            failed = {1: idx1, 3: idx2}
            state = reference.clone()
            erase_pattern(state, failed)
            restored, transcript = repair(spec, state, failed, helpers=(2, 4))
            assert restored == reference, (idx1, idx2)
            assert transcript.cross_symbols(1) == lay.gamma
            assert transcript.cross_symbols(3) == lay.gamma


def test_d_greater_than_m_tuple():
    """d > m exercises the nonempty lower-left block of the message matrix."""
    p = params.validate(16, 4, 3, 8, 2, 2)
    spec = build_code(p, field.gf256(), seed=3)
    assert spec.params.d > spec.params.m
    msg = random_message(spec, 9)
    state = encode(spec, msg)
    rng = random.Random(9)
    ids = [(r, i) for r in range(1, 9) for i in range(1, 3)]
    for _ in range(15):
        subset = rng.sample(ids, 4)
        assert np.array_equal(collect(spec, state, subset), msg)
    reference = state.clone()
    failed = {2: (1,), 7: (2,)}
    erase_pattern(state, failed)
    restored, transcript = repair(spec, state, failed, helpers=(1, 4, 5))
    assert restored == reference
    assert transcript.cross_symbols(2) == 3 * 2 + 1 * 1


# ---------------------------------------------------------------------------
# per-rack block structure
# ---------------------------------------------------------------------------

def test_vector_mds_blocks_recoverable(base_spec, base_message):
    g = global_symbols(base_spec, base_message)
    mms = message_matrices(base_spec, base_message)
    w = base_spec.globals_per_rack
    for rack in range(1, 5):
        c_l = g[base_spec.rack_global_slice(rack)]
        true_blocks = {}
        for t in range(1, w + 1):
            true_blocks[("global", t)] = c_l[(t - 1) * base_spec.alpha : t * base_spec.alpha]
        for i in range(1, base_spec.matrices_per_rack + 1):
            true_blocks[("parity", i)] = linalg.mat_vec(
                base_spec.P[i - 1][rack - 1], c_l
            )[: base_spec.alpha]
        for subset in itertools.combinations(codec.rack_blocks(base_spec), w):
            available = {b: true_blocks[b] for b in subset}
            got = codec.recover_rack_globals(base_spec, rack, available)
            assert np.array_equal(got, c_l)
