import dataclasses
import functools
import itertools
import pickle
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    all_k_subsets,
    all_valid_tuples,
    collector_support,
    mbcr_vector,
    message_matrices,
    reference_collector_rank_problem,
    reference_generator,
    reference_parity_block,
    reference_structural_deficiency,
)
from rackcoop import codec, field, harness, linalg, params
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


@functools.cache
def _gf256_build(tup, seed):
    return build_code(params.validate(*tup), field.gf256(), seed=seed)


@pytest.fixture(scope="module")
def two_matrix_spec():
    """e/f = 2: two product matrices per rack."""
    return _gf256_build((16, 8, 2, 4, 4, 2), 3)


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


@functools.cache
def _seed0_build(tup):
    return codec.build_default_code(params.validate(*tup), seed=0)


@pytest.mark.parametrize("tup, expected", [
    ((8, 4, 2, 4, 2, 2), "d1bdf15c00b8913e"),
    ((16, 8, 4, 8, 2, 2), "096912734d219e7a"),
    ((10, 5, 1, 2, 1, 1), "e5f265de15991706"),  # accepted on the 2nd attempt
    ((12, 7, 1, 2, 2, 1), "431496b746c3ba98"),  # the 22nd, dense parities
])
def test_seeded_builds_pinned(tup, expected):
    """A cluster regenerates its accepted attempt from the seed, so a seeded
    build must give the same G, U, V, P in every version, including the
    random draws of rejected attempts."""
    assert _seed0_build(tup).fingerprint[:16] == expected


def test_build_decisions_pinned():
    """The verified build's subset order, pinned by what it decides: every
    attempt at (9,7,2,3,2,1) fails and names its first deficient collector,
    and seeds 0-9 at (8,4,2,4,2,2) accept the same attempt and code."""
    first = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2))
    other = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3))
    expected = "could not build a verified code instance; " + "; ".join(
        f"attempt {a}: collector rank deficient for nodes {first if a in (0, 11) else other}"
        for a in range(codec.MAX_ATTEMPTS))
    with pytest.raises(CodeBuildError) as info:
        build_code(params.validate(9, 7, 2, 3, 2, 1), field.gf256(), seed=0)
    assert str(info.value) == expected
    for seed in range(10):
        spec = _gf256_build((8, 4, 2, 4, 2, 2), seed)
        assert (spec.attempt, spec.fingerprint[:16]) == (0, "d1bdf15c00b8913e")


def test_rejected_tuple_message_pinned_in_both_fields():
    """(9,7,2,3,2,1) has 12 global rows against B = 24, so its systematic
    basis is completed from product-matrix rows.  Its rejection names every
    attempt's first deficient collector, in GF(2^8) and in GF(2^16)."""
    first = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2))
    other = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 3))
    for make, firsts in ((field.gf256, (0, 11)), (field.gf65536, (0,))):
        expected = "could not build a verified code instance; " + "; ".join(
            f"attempt {a}: collector rank deficient for nodes {first if a in firsts else other}"
            for a in range(codec.MAX_ATTEMPTS))
        with pytest.raises(CodeBuildError) as info:
            build_code(params.validate(9, 7, 2, 3, 2, 1), make(), seed=0)
        assert str(info.value) == expected


def test_sampled_build_after_21_rejections_pinned():
    """(16,7,1,4,1,1) at seed 0 rejects attempts 0-20 on sampled collectors
    and accepts attempt 21, the same code as before the systematic check."""
    spec = _seed0_build((16, 7, 1, 4, 1, 1))
    assert (spec.attempt, spec.field.order, spec.fingerprint) == (
        21, 256, "baee9e3e2e3d5ded49cb1c6be4e4cfbf16b6c5c3c80507615e116d3a2fd340d6")


@pytest.mark.parametrize("tup, deficient", [
    ((8, 4, 2, 4, 2, 2), (0, 0)),
    ((9, 7, 2, 3, 2, 1), (24, 24)),  # global rows < B: whole product-matrix nodes
    ((10, 5, 1, 2, 1, 1), (10, 0)),
    ((12, 6, 1, 2, 3, 1), (24, 1)),
    ((12, 7, 1, 2, 2, 1), (23, 0)),
    ((16, 7, 1, 4, 1, 1), (23, 0)),  # sampled
    ((16, 8, 1, 2, 1, 1), (24, 0)),  # sampled
])
def test_collector_check_matches_full_matrix_reference(tup, deficient):
    """On every candidate, in GF(2^8) and GF(2^16), the systematic collector
    check names the same first deficient collector as the full-matrix
    reference, or passes exactly when it does.  ``deficient`` pins how many
    candidates per field the reference rejects."""
    p = params.validate(*tup)
    counts = []
    for make in (field.gf256, field.gf65536):
        bad = 0
        for spec in codec.candidates(p, make(), 0):
            expected = reference_collector_rank_problem(spec)
            assert codec._collector_rank_problem(spec) == expected, (make().order, spec.attempt)
            bad += expected is not None
        counts.append(bad)
    assert tuple(counts) == deficient


def test_collector_check_without_an_mds_outer_code():
    """Outside the MDS outer code the check stays exact.  With global node
    (3, 2) a copy of (2, 2), (4, 2) is picked whole in its place, and the
    first deficient collector is a later one.  With G zero the generator has
    rank 0 < B, so every collector is deficient and the first is named."""
    spec = _candidate((8, 4, 2, 4, 2, 2), field.gf256, 0)

    def whole(s):
        unit = codec._systematic_rows(s)[1]
        return [node for node, rows in zip(s.params.node_ids(), unit) if (rows >= 0).all()]

    assert whole(spec) == [(1, 2), (2, 2), (3, 2)]
    g = spec.G.data.copy()
    g[:, spec.rack_global_slice(3)] = g[:, spec.rack_global_slice(2)]
    copied = dataclasses.replace(spec, G=linalg.Matrix(spec.field, g))
    assert whole(copied) == [(1, 2), (2, 2), (4, 2)]
    zero = dataclasses.replace(spec, G=linalg.Matrix(spec.field, np.zeros_like(g)))
    assert codec._systematic_rows(zero) is None
    named = []
    for broken in (copied, zero):
        named.append(reference_collector_rank_problem(broken))
        assert codec._collector_rank_problem(broken) == named[-1]
    assert named == [((1, 1), (1, 2), (2, 2), (3, 2)), ((1, 1), (1, 2), (2, 1), (2, 2))]


@pytest.mark.parametrize("racks, named", [((3,), 3), ((4, 2), 2)])
def test_verify_names_first_rack_without_vector_mds(two_matrix_spec, racks, named):
    """Equal parity maps for both matrix nodes of a rack make those two nodes
    unable to determine the rack's global content."""
    P = [list(row) for row in two_matrix_spec.P]
    for rack in racks:
        P[1][rack - 1] = P[0][rack - 1]
    spec = dataclasses.replace(two_matrix_spec, P=tuple(tuple(row) for row in P))
    assert codec._verify_spec(spec) == f"vector-MDS property failed in rack {named}"


def test_recover_rack_globals_singular_map_raises_every_time(two_matrix_spec):
    """A singular restoration map is refused on every call, never cached."""
    P = [list(row) for row in two_matrix_spec.P]
    P[1][2] = P[0][2]
    spec = dataclasses.replace(two_matrix_spec, P=tuple(tuple(row) for row in P))
    available = {1: np.zeros(spec.alpha, dtype=np.int64), 2: np.zeros(spec.alpha, dtype=np.int64)}
    for _ in range(2):
        with pytest.raises(CodeIntegrityError, match="rack 3"):
            codec.recover_rack_globals(spec, 3, available)
    assert codec.recover_rack_globals(spec, 2, available).tolist() == [0] * (2 * spec.alpha)


@pytest.mark.parametrize("tup, attempt", [
    ((8, 4, 2, 4, 2, 2), 0),
    ((16, 8, 4, 8, 2, 2), 0),
    ((10, 5, 1, 2, 1, 1), 1),
    ((12, 7, 1, 2, 2, 1), 21),
])
def test_certificate_loads_the_built_code(tmp_path, tup, attempt):
    """A saved cluster's certificate regenerates the verified code exactly."""
    built = _seed0_build(tup)
    assert built.attempt == attempt
    harness.save(encode(built, random_message(built, 1)), built, tmp_path)
    _, loaded = harness.load(tmp_path)
    assert (loaded.G, loaded.U, loaded.V, loaded.P, loaded.attempt) == (
        built.G, built.U, built.V, built.P, built.attempt)
    assert loaded.fingerprint == built.fingerprint


def test_candidates_is_the_build_sequence(base_params, base_spec):
    """build_code accepts the first verified member of candidates()."""
    sequence = list(codec.candidates(base_params, field.gf256(), seed=7))
    assert [spec.attempt for spec in sequence] == list(range(codec.MAX_ATTEMPTS))
    assert sequence[base_spec.attempt] == base_spec


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.sampled_from([field.gf256(), field.gf65536(), field.prime_field(257)]).flatmap(
    lambda f: st.lists(st.integers(0, f.order - 1), max_size=5)), st.integers(1, 6))
def test_parity_block_matches_kron(lam_row, alpha):
    """The broadcast parity block equals np.kron(lam_row, I_alpha), empty rows included."""
    got = codec._parity_block(np.array(lam_row, dtype=np.int64), alpha)
    expected = reference_parity_block(np.array(lam_row, dtype=np.int64), alpha)
    assert got.dtype == expected.dtype and np.array_equal(got, expected)
    assert got.shape == (alpha, len(lam_row) * alpha)


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
    """The closed form's minimal collector support equals brute-force
    enumeration of every k-subset's reachable coordinate count."""
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
        closed = structural_recovery_deficiency(p)
        if brute < lay.file_size:
            assert closed is not None and closed[0] == brute
        else:
            assert closed is None


def test_structural_check_matches_reference_dp():
    """On every tuple of the n <= 24, r <= 12 box the closed form is None
    exactly where the per-rack DP is, with the same support, and its witness
    is k distinct in-range nodes reaching exactly that support."""
    pool = all_valid_tuples(24, 12)
    assert len(pool) == 5489
    deficient = 0
    for p in pool:
        got, want = structural_recovery_deficiency(p), reference_structural_deficiency(p)
        assert (got is None) == (want is None), p.as_tuple()
        if got is None:
            continue
        deficient += 1
        support, nodes = got
        assert support == want[0], p.as_tuple()
        assert len(set(nodes)) == len(nodes) == p.k, p.as_tuple()
        assert all(1 <= h <= p.r and 1 <= i <= p.nodes_per_rack for h, i in nodes)
        assert collector_support(p, nodes) == support, p.as_tuple()
    assert 0 < deficient < len(pool)


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


def test_build_default_code_escalates_to_gf65536():
    """Every GF(2^8) attempt fails verification, so the default policy moves
    on to GF(2^16), whose first attempt passes."""
    p = params.validate(12, 6, 1, 2, 3, 1)
    with pytest.raises(CodeBuildError, match=f"attempt {codec.MAX_ATTEMPTS - 1}: "):
        build_code(p, field.gf256(), seed=0)
    spec = codec.build_default_code(p, seed=0)
    assert spec.field == field.gf65536() and spec.attempt == 0


def test_build_default_code_reports_the_last_field():
    """When both fields exhaust their attempts the GF(2^16) failure is raised."""
    p = params.validate(9, 7, 2, 3, 2, 1)
    with pytest.raises(CodeBuildError) as last:
        build_code(p, field.gf65536(), seed=0)
    with pytest.raises(CodeBuildError) as got:
        codec.build_default_code(p, seed=0)
    assert type(got.value) is CodeBuildError
    assert str(got.value) == str(last.value)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_zero_message_zero_cluster(base_spec):
    state = encode(base_spec, np.zeros(18, dtype=np.int64))
    for rack, node in state.params.node_ids():
        assert not state.node(rack, node).any()


def test_encode_is_linear(base_spec):
    f = base_spec.field
    x = random_message(base_spec, 1)
    y = random_message(base_spec, 2)
    sx, sy = encode(base_spec, x), encode(base_spec, y)
    sxy = encode(base_spec, f.vec_add(x, y))
    for rack, node in sxy.params.node_ids():
        want = f.vec_add(sx.node(rack, node), sy.node(rack, node))
        assert np.array_equal(sxy.node(rack, node), want)


def test_global_nodes_hold_outer_code_slices(base_spec, base_message, base_state):
    g = global_symbols(base_spec, base_message)
    a = base_spec.alpha
    for rack in range(1, 5):
        c_l = g[base_spec.rack_global_slice(rack)]
        for slot in (1,):
            node = base_spec.params.failures_per_rack + slot
            assert np.array_equal(base_state.node(rack, node), c_l[(slot - 1) * a : slot * a])


def test_every_node_stores_alpha_symbols(base_spec, base_state):
    for rack, node in base_state.params.node_ids():
        assert base_state.node(rack, node).shape == (base_spec.alpha,)
    lay = base_spec.layout
    assert lay.file_size == base_spec.params.k * lay.alpha + base_spec.params.failures_per_rack * (
        base_spec.params.m - base_spec.params.m**2
    )


def test_encode_wrong_length(base_spec):
    with pytest.raises(EncodingError):
        encode(base_spec, np.zeros(17, dtype=np.int64))


def test_encode_is_one_generator_product(base_spec, base_message, base_state):
    want = linalg.mat_vec(base_spec.generator, base_message)
    assert np.array_equal(base_state.symbols.ravel(), want)
    assert not base_state.erased.any()


# ---------------------------------------------------------------------------
# cluster state
# ---------------------------------------------------------------------------

def test_erase_leaves_no_copy_of_the_old_bytes(fresh_state):
    """An erased node's bytes are gone from the state, so no repair can
    rebuild the node by reading them."""
    old = fresh_state.node(2, 1)
    assert old.any()
    fresh_state.erase(2, 1)
    with pytest.raises(CodeIntegrityError, match="erased"):
        fresh_state.node(2, 1)
    held = pickle.dumps([value for name, value in vars(fresh_state).items()
                         if name not in ("params", "field")])
    assert old.astype(np.int64).tobytes() not in held


def test_clone_is_independent(base_spec, base_message):
    original = encode(base_spec, base_message)
    clone = original.clone()
    clone.set_node(1, 1, np.zeros(base_spec.alpha, dtype=np.int64))
    clone.erase(2, 2)
    assert clone != original
    assert original == encode(base_spec, base_message)


def test_generator_matches_paper_formula(base_spec, two_matrix_spec):
    """Every generator column (the code of a unit message) matches the
    paper's layout: a product-matrix node holds the first alpha entries of
    [M_i v_l ; M_i^T u_l] + P_{i,l} c_l, a global node its slice of G^T m."""
    for spec in (base_spec, two_matrix_spec):
        p, a = spec.params, spec.alpha
        epf = p.failures_per_rack
        ids = list(itertools.product(range(1, p.r + 1), range(1, p.nodes_per_rack + 1)))
        for j in range(spec.file_size):
            msg = np.zeros(spec.file_size, dtype=np.int64)
            msg[j] = 1
            nodes = spec.generator.data[:, j].reshape(p.n, a)
            g = global_symbols(spec, msg)
            mms = message_matrices(spec, msg)
            for rack, node in ids:
                c_l = g[spec.rack_global_slice(rack)]
                if node > epf:
                    slot = node - epf
                    want = c_l[(slot - 1) * a : slot * a]
                else:
                    want = spec.field.vec_add(
                        mbcr_vector(spec, mms[node - 1], rack),
                        linalg.mat_vec(spec.P[node - 1][rack - 1], c_l),
                    )[:a]
                assert np.array_equal(nodes[p.row(rack, node)], want), (j, rack, node)


def _candidate(tup, make_field, attempt):
    p = params.validate(*tup)
    return next(itertools.islice(codec.candidates(p, make_field(), 0), attempt, None))


@pytest.mark.parametrize("tup, make_field, attempt", [
    ((8, 4, 2, 4, 2, 2), field.gf65536, 0),
    ((8, 4, 2, 4, 2, 2), field.gf65536, 22),
    ((8, 4, 2, 4, 2, 2), lambda: field.prime_field(257), 11),
    ((16, 8, 2, 4, 4, 2), lambda: field.prime_field(257), 22),
    ((24, 12, 6, 12, 2, 2), field.gf256, 0),
])
def test_generator_matches_dense_reference(tup, make_field, attempt):
    """The per-rack build equals the dense coefficient matrix times G^T,
    structured and dense-parity attempts, e/f = 1 and 2, three fields."""
    spec = _candidate(tup, make_field, attempt)
    assert spec.generator == reference_generator(spec)


def test_built_generators_match_dense_reference(base_spec, two_matrix_spec):
    for spec in (base_spec, two_matrix_spec):
        assert spec.generator == reference_generator(spec)


def test_generator_peak_memory_is_bounded():
    """The build holds one rack's broadcast at a time, never an
    (n*alpha) x n_global matrix: at the box's costliest tuple its peak stays
    within three BATCH_ENTRIES int64 blocks (its outer code needs GF(2^16))."""
    spec = _candidate((24, 23, 11, 12, 1, 1), field.gf65536, 0)
    tracemalloc.start()
    try:
        spec.generator
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * linalg.BATCH_ENTRIES * 8


def test_collector_check_peak_memory_is_bounded():
    """At the same tuple the collector check (its generator already built)
    holds one block of collector matrices and the B x (n*alpha) basis
    elimination, within the same three-block bound."""
    spec = _candidate((24, 23, 11, 12, 1, 1), field.gf65536, 0)
    spec.generator
    tracemalloc.start()
    try:
        assert codec._collector_rank_problem(spec) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * linalg.BATCH_ENTRIES * 8


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
        tuple(linalg.Matrix(base_spec.field, np.zeros_like(pm.data)) for pm in row)
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


@st.composite
def repair_stages(draw, p):
    """An admissible stage: f distinct racks, d other helper racks, e/f
    distinct nodes in each failed rack."""
    racks = draw(st.lists(st.integers(1, p.r), min_size=p.f, max_size=p.f, unique=True))
    others = [h for h in range(1, p.r + 1) if h not in racks]
    helpers = draw(st.lists(st.sampled_from(others), min_size=p.d, max_size=p.d, unique=True))
    epf = p.failures_per_rack
    nodes = st.lists(st.integers(1, p.nodes_per_rack), min_size=epf, max_size=epf, unique=True)
    return params.RepairStage.make({rack: draw(nodes) for rack in racks}, helpers)


@pytest.mark.parametrize("tup, seed", [((8, 4, 2, 4, 2, 2), 7), ((16, 8, 2, 4, 4, 2), 3)],
                         ids=["8,4,2,4,2,2", "16,8,2,4,4,2"])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_repair_rounds_then_collect_property(tup, seed, data):
    """Any sequence of admissible repair rounds restores every lost node
    byte for byte, sends 2e/f symbols per (helper, failed rack) and e/f per
    ordered pair of failed racks, and leaves any k nodes collectible."""
    spec = _gf256_build(tup, seed)
    p = spec.params
    epf = p.failures_per_rack
    symbols = st.integers(0, spec.field.order - 1)
    message = np.array(data.draw(st.lists(symbols, min_size=spec.file_size,
                                          max_size=spec.file_size)), dtype=np.int64)
    state = encode(spec, message)
    for stage in data.draw(st.lists(repair_stages(p), min_size=1, max_size=4)):
        before = state.clone()
        erase_pattern(state, dict(stage.failed))
        _, transcript = repair(spec, state, stage.failed, stage.helpers)
        for rack, node in p.node_ids():
            assert spec.field.to_bytes(state.node(rack, node)) == spec.field.to_bytes(
                before.node(rack, node)), (stage, rack, node)
        assert transcript.round1 == sorted(
            (h, l, 2 * epf) for h in stage.helpers for l in stage.racks)
        assert transcript.round2 == sorted(
            (a, b, epf) for a in stage.racks for b in stage.racks if a != b)
    ids = p.node_ids()
    collector = data.draw(st.lists(st.sampled_from(ids), min_size=p.k, max_size=p.k, unique=True))
    assert np.array_equal(collect(spec, state, collector), message)


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
    # field subtraction is not addition here, so a sign slip in repair shows
    reference = state.clone()
    failed = {1: (1,), 4: (2,)}
    erase_pattern(state, failed)
    restored, _ = repair(spec, state, failed, helpers=(2, 3))
    assert restored == reference


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
    epf = base_spec.params.failures_per_rack
    for rack in range(1, 5):
        c_l = g[base_spec.rack_global_slice(rack)]
        true_parts = {}  # node index -> its c_l part
        for t in range(1, w + 1):
            true_parts[epf + t] = c_l[(t - 1) * base_spec.alpha : t * base_spec.alpha]
        for i in range(1, epf + 1):
            true_parts[i] = linalg.mat_vec(
                base_spec.P[i - 1][rack - 1], c_l
            )[: base_spec.alpha]
        for subset in itertools.combinations(range(1, epf + w + 1), w):
            available = {i: true_parts[i] for i in subset}
            got = codec.recover_rack_globals(base_spec, rack, available)
            assert np.array_equal(got, c_l)
