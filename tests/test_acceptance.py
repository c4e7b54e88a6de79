"""Acceptance suite: one test per criterion, exact assertions throughout.

Every comparison is an identity over integers or Fractions (zero
tolerance); each test prints a PASS line on completion (visible with
``pytest -s`` or in verbose failure output).
"""

import itertools
import random
from fractions import Fraction as Fr

import numpy as np

from helpers import (
    all_k_subsets,
    all_valid_tuples,
    brute_force_compositions,
    mbcr_vector,
    message_matrices,
    sample_tuples,
)
from rackcoop import cli, codec, ifg, linalg, params, tradeoff

BASE = params.validate(8, 4, 2, 4, 2, 2)

ORACLE_TUPLES = [
    BASE,
    params.validate(6, 3, 2, 3, 1, 1),
    params.validate(12, 6, 3, 6, 3, 3),
    params.validate(12, 8, 2, 4, 2, 2),
    params.validate(10, 5, 3, 5, 2, 2),
    params.validate(9, 6, 2, 3, 1, 1),
    params.validate(6, 4, 4, 6, 2, 2),
]


def _passed(n, text):
    print(f"ACCEPTANCE CRITERION {n}: PASS - {text}")


def test_criterion_01_construction_point_identity():
    """Construction parameters coincide exactly with the minimum-bandwidth
    corner evaluated at the construction file size, for every valid tuple
    with n <= 24, r <= 8."""
    pool = all_valid_tuples(24, 8)
    assert len(pool) >= 50
    for p in pool:
        lay = params.construction_params(p)
        assert (lay.alpha, lay.beta1, lay.beta2) == (
            2 * p.d + p.f - 1, 2 * p.failures_per_rack, p.failures_per_rack
        )
        assert lay.file_size == p.k * lay.alpha + p.failures_per_rack * (p.m - p.m**2)
        pt = params.mbrcr_point(p, lay.file_size)
        assert (pt.alpha, pt.beta1, pt.beta2, pt.gamma) == (
            lay.alpha, lay.beta1, lay.beta2, lay.gamma
        )
    _passed(1, f"identity exact on {len(pool)} tuples")


def test_criterion_02_corner_point_reductions():
    """n=r, e=f reduces to the flat cooperative corner points; e=f=1 to the
    single-failure rack formulas; the minimum-storage reduction uses the
    per-k normalized form B(d+e-1)/(k(d+e-k))."""
    rng = random.Random(2024)
    flat = [p for p in all_valid_tuples() if p.n == p.r and p.e == p.f]
    assert len(flat) >= 5
    for p in flat:
        b = Fr(rng.randint(3, 400), rng.randint(1, 7))
        ms = params.msrcr_point(p, b)
        assert ms.gamma == b * (p.d + p.e - 1) / (p.k * (p.d + p.e - p.k))
        mb = params.mbrcr_point(p, b)
        assert mb.alpha == mb.gamma == b * (2 * p.d + p.e - 1) / (p.k * (2 * p.d + p.e - p.k))
    single = [p for p in all_valid_tuples() if p.e == 1 and p.f == 1]
    assert len(single) >= 5
    for p in single:
        b = Fr(rng.randint(3, 400), rng.randint(1, 7))
        ms = params.msrcr_point(p, b)
        assert (ms.alpha, ms.gamma) == (b / p.k, b * p.d / (p.k * (p.d - p.m + 1)))
        mb = params.mbrcr_point(p, b)
        want = b * p.d / ((p.k - p.m) * p.d + p.m * (p.d - Fr(p.m - 1, 2)))
        assert mb.alpha == mb.gamma == want
    _passed(2, f"{len(flat)} flat and {len(single)} single-failure tuples reduce exactly")


def test_criterion_03_bound_oracle_agreement():
    """Flow-graph worst case equals the composition bound exactly on a grid
    of operating points per tuple, corners and deliberate deficiencies
    included."""
    rng = random.Random(3001)
    checked = 0
    for p in ORACLE_TUPLES:
        lay = params.construction_params(p)
        b = Fr(lay.file_size)
        mb = params.mbrcr_point(p, b)
        ms = params.msrcr_point(p, b)
        grid = [
            (mb.alpha, mb.beta1, mb.beta2),
            (ms.alpha, ms.beta1, ms.beta2),
            (mb.alpha, mb.beta1, mb.beta2 / 2),
            (mb.alpha, mb.beta1 * Fr(3, 4), mb.beta2),
            (mb.alpha * Fr(6, 5), mb.beta1, mb.beta2),
            (ms.alpha, ms.beta1 / 2, ms.beta2),
        ]
        while len(grid) < 20:
            grid.append((
                Fr(rng.randint(1, 3 * lay.alpha), rng.randint(1, 4)),
                Fr(rng.randint(0, 3 * lay.beta1), rng.randint(1, 4)),
                Fr(rng.randint(0, 3 * lay.beta2), rng.randint(1, 4)),
            ))
        for alpha, b1, b2 in grid:
            bound = tradeoff.max_file_size(p, alpha, b1, b2).value
            oracle = ifg.worst_case_mincut(p, alpha, b1, b2).value
            assert bound == oracle, (p.as_tuple(), alpha, b1, b2, bound, oracle)
            checked += 1
        # corners support exactly B; halving beta2 must fall short of B
        # (with f = 1 there is no peer exchange and beta2 is vacuous, so the
        # analogous deficiency is beta1/2)
        assert tradeoff.max_file_size(p, mb.alpha, mb.beta1, mb.beta2).value == b
        assert tradeoff.max_file_size(p, ms.alpha, ms.beta1, ms.beta2).value == b
        if p.f > 1:
            assert tradeoff.max_file_size(p, mb.alpha, mb.beta1, mb.beta2 / 2).value < b
        else:
            assert tradeoff.max_file_size(p, mb.alpha, mb.beta1 / 2, mb.beta2).value < b
    _passed(3, f"{checked} grid points across {len(ORACLE_TUPLES)} tuples agree exactly")


def test_criterion_04_codec_roundtrip(base_spec, base_message, base_state):
    """All 70 four-node collectors recover the message exactly."""
    count = 0
    for subset in all_k_subsets(base_spec.params):
        got = codec.collect(base_spec, base_state, subset)
        assert np.array_equal(got, base_message), subset
        count += 1
    assert count == 70
    _passed(4, "all 70 k-subsets recover the message exactly")


def test_criterion_05_exact_repair_and_bandwidth(base_spec, base_message):
    """Every admissible failure pattern repairs exactly with 5 cross-rack
    symbols per failed rack: 2 from each helper, 1 between failed racks."""
    reference = codec.encode(base_spec, base_message)
    patterns = 0
    for racks in itertools.combinations(range(1, 5), 2):
        helpers = tuple(h for h in range(1, 5) if h not in racks)
        for nodes in itertools.product((1, 2), repeat=2):
            failed = dict(zip(racks, ((nodes[0],), (nodes[1],))))
            state = reference.clone()
            for rack, idxs in failed.items():
                for i in idxs:
                    state.erase(rack, i)
            restored, tr = codec.repair(base_spec, state, failed, helpers)
            assert restored == reference
            for rack in racks:
                assert tr.cross_symbols(rack) == 5
            assert sorted(tr.round1) == sorted(
                (h, l, 2) for h in helpers for l in racks
            )
            assert sorted(tr.round2) == sorted(
                (a, b, 1) for a in racks for b in racks if a != b
            )
            patterns += 1
    assert patterns == len(list(itertools.combinations(range(1, 5), 2))) * 4
    _passed(5, f"{patterns} patterns restore exactly at gamma = 5 (2 per helper, 1 peer)")


def test_criterion_06_dependence_relation(base_spec):
    """For 100 random messages the dropped symbol reconstructed from stored
    data equals its direct computation, in every rack and matrix."""
    rng = random.Random(606)
    for trial in range(100):
        msg = np.array(
            [rng.randrange(256) for _ in range(base_spec.file_size)], dtype=np.int64
        )
        state = codec.encode(base_spec, msg)
        mms = message_matrices(base_spec, msg)
        for rack in range(1, 5):
            clean = codec.strip_parities(base_spec, rack, state)
            for i, vec in clean.items():
                completed = codec.complete_mbcr_vector(base_spec, rack, vec)
                direct = mbcr_vector(base_spec, mms[i - 1], rack)
                assert np.array_equal(completed, direct)
    _passed(6, "dropped-symbol identity holds for 100 messages, all racks")


def test_criterion_07_vector_mds(base_spec, base_message):
    """Any n/r - e/f of a rack's nodes (globals + parities) reconstruct the
    rest exactly."""
    g = codec.global_symbols(base_spec, base_message)
    w = base_spec.globals_per_rack
    epf = base_spec.params.failures_per_rack
    checked = 0
    for rack in range(1, 5):
        c_l = g[base_spec.rack_global_slice(rack)]
        parts = {}  # node index -> its c_l part
        for t in range(1, w + 1):
            parts[epf + t] = c_l[(t - 1) * base_spec.alpha : t * base_spec.alpha]
        for i in range(1, epf + 1):
            parts[i] = linalg.mat_vec(
                base_spec.P[i - 1][rack - 1], c_l
            )[: base_spec.alpha]
        for subset in itertools.combinations(range(1, epf + w + 1), w):
            got_c = codec.recover_rack_globals(
                base_spec, rack, {i: parts[i] for i in subset}
            )
            assert np.array_equal(got_c, c_l)
            # every node's part, not just the globals', is reproduced from c_l
            for i, val in parts.items():
                if i > epf:
                    t = i - epf
                    assert np.array_equal(
                        got_c[(t - 1) * base_spec.alpha : t * base_spec.alpha], val
                    )
                else:
                    redo = linalg.mat_vec(
                        base_spec.P[i - 1][rack - 1], got_c
                    )[: base_spec.alpha]
                    assert np.array_equal(redo, val)
            checked += 1
    _passed(7, f"{checked} node subsets reconstruct their racks exactly")


def test_criterion_08_composition_counts():
    """Enumeration counts match an independent recursive oracle."""
    expected = {(2, 2): 2, (3, 2): 3, (4, 2): 5, (4, 4): 8, (6, 3): 24}
    for (m, f), count in expected.items():
        got = tradeoff.compositions(m, f)
        oracle = brute_force_compositions(m, f)
        assert len(got) == len(oracle) == count
        assert sorted(got) == sorted(tuple(u) for u in oracle)
    _passed(8, f"counts {expected} match the brute-force oracle")


def test_criterion_09_lp_recovers_corners():
    """min_gamma_given_alpha reproduces both corner gammas exactly for 20
    random valid tuples."""
    rng = random.Random(909)
    pool = sample_tuples(rng, 20, predicate=lambda q: q.m <= 4)
    for p in pool:
        b = Fr(rng.randint(4, 300), rng.randint(1, 5))
        ms = params.msrcr_point(p, b)
        mb = params.mbrcr_point(p, b)
        assert tradeoff.min_gamma_given_alpha(p, b, ms.alpha).gamma == ms.gamma
        assert tradeoff.min_gamma_given_alpha(p, b, mb.alpha).gamma == mb.gamma
    _passed(9, "both corner gammas recovered exactly for 20 tuples")


def test_criterion_10_determinism(tmp_path):
    """encode + repair + verify-mincut with identical seeds produce
    byte-identical cluster directories and identical reports."""
    src = tmp_path / "message.bin"
    src.write_bytes(b"determinism!")

    def run_once(root):
        outputs = []
        cluster = root / "cluster"
        assert cli.main([
            "encode", "--params", "8,4,2,4,2,2", "--seed", "7",
            "--in", str(src), "--out", str(cluster),
        ]) == 0
        assert cli.main([
            "repair", "--dir", str(cluster),
            "--racks", "1,2", "--nodes", "1", "--helpers", "3,4",
        ]) == 0
        assert cli.main([
            "verify-mincut", "--params", "8,4,2,4,2,2",
            "--alpha", "5", "--beta1", "2", "--beta2", "1", "--seed", "3",
        ]) == 0
        for rel in sorted(
            path.relative_to(cluster).as_posix()
            for path in cluster.rglob("*") if path.is_file()
        ):
            outputs.append((rel, (cluster / rel).read_bytes()))
        return outputs

    import contextlib
    import io

    runs = []
    for name in ("one", "two"):
        root = tmp_path / name
        root.mkdir()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            files = run_once(root)
        runs.append((files, buf.getvalue().replace(str(root), "<root>")))
    assert runs[0][0] == runs[1][0], "cluster directories differ between runs"
    assert runs[0][1] == runs[1][1], "reports differ between runs"
    _passed(10, "two seeded runs produced byte-identical artifacts and reports")
