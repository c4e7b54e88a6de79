import json
import random

import numpy as np
import pytest

from rackcoop import codec, field, harness, ifg, params
from rackcoop.params import RepairStage
from rackcoop.harness import (
    ClusterIntegrityError,
    LayoutVersionError,
    PartialClusterState,
    Scenario,
    ScenarioError,
    load,
    random_scenario,
    run_scenario,
    save,
)


def test_save_load_roundtrip(tmp_path, base_spec, base_state):
    save(base_state, base_spec, tmp_path / "c")
    assert json.loads((tmp_path / "c" / "manifest.json").read_text())["layout_version"] == 2
    loaded_state, loaded_spec = load(tmp_path / "c")
    assert loaded_state == base_state
    assert loaded_spec.G == base_spec.G and loaded_spec.P == base_spec.P


@pytest.mark.parametrize("make_field", [field.gf256, field.gf65536, lambda: field.prime_field(257)],
                         ids=["gf256", "gf65536", "gf257"])
def test_save_load_roundtrip_every_field(tmp_path, base_params, make_field):
    """A cluster over each field that can be built loads back bit for bit."""
    spec = codec.build_code(base_params, make_field(), seed=7)
    rng = random.Random(5)
    message = np.array([rng.randrange(spec.field.order) for _ in range(spec.file_size)],
                       dtype=np.int64)
    state = codec.encode(spec, message)
    save(state, spec, tmp_path / "c")
    loaded_state, loaded_spec = load(tmp_path / "c")
    assert loaded_spec.field == spec.field and loaded_spec.fingerprint == spec.fingerprint
    assert loaded_state == state
    collector = spec.params.node_ids()[: spec.params.k]
    assert np.array_equal(codec.collect(loaded_spec, loaded_state, collector), message)


def test_save_load_preserves_erasures(tmp_path, fresh_state, base_spec):
    save(fresh_state, base_spec, tmp_path / "c")  # overwritten in place below
    fresh_state.erase(2, 1)
    fresh_state.erase(3, 2)
    save(fresh_state, base_spec, tmp_path / "c")
    assert (tmp_path / "c" / "rack_2" / "node_1.bin").stat().st_size == 0
    loaded, _ = load(tmp_path / "c")
    assert loaded.erased_nodes() == [(2, 1), (3, 2)]
    assert loaded == fresh_state


def test_save_is_deterministic(tmp_path, base_spec, base_state):
    save(base_state, base_spec, tmp_path / "a")
    save(base_state, base_spec, tmp_path / "b")
    for rel in ["manifest.json"] + [
        f"rack_{r}/node_{i}.bin" for r in range(1, 5) for i in range(1, 3)
    ]:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_tampered_node_file_detected(tmp_path, base_spec, base_state):
    save(base_state, base_spec, tmp_path / "c")
    victim = tmp_path / "c" / "rack_1" / "node_2.bin"
    data = bytearray(victim.read_bytes())
    data[0] ^= 0xFF
    victim.write_bytes(bytes(data))
    with pytest.raises(ClusterIntegrityError, match="digest"):
        load(tmp_path / "c")


def test_version_mismatch(tmp_path, base_spec, base_state):
    save(base_state, base_spec, tmp_path / "c")
    doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
    doc["layout_version"] = 3
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(LayoutVersionError):
        load(tmp_path / "c")


def test_invalid_manifest_params_rejected(tmp_path, base_spec, base_state):
    save(base_state, base_spec, tmp_path / "c")
    doc = json.loads((tmp_path / "c" / "manifest.json").read_text())
    doc["params"]["e"] = 3  # f = 2 no longer divides e
    (tmp_path / "c" / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(params.ParameterError):
        load(tmp_path / "c")


def test_partial_load_reads_listed_nodes_and_is_never_saved(tmp_path, base_spec, base_state, capsys):
    save(base_state, base_spec, tmp_path / "c")
    listed = [(1, 1), (2, 2), (3, 1), (4, 2)]
    (tmp_path / "c" / "rack_1" / "node_2.bin").write_bytes(b"corrupt, but never read")
    (tmp_path / "c" / "rack_4" / "node_1.bin").unlink()
    state, _ = load(tmp_path / "c", nodes=listed)
    assert isinstance(state, PartialClusterState)
    assert state.unread == set(base_spec.params.node_ids()) - set(listed)
    assert state.erased_nodes() == sorted(state.unread)
    for pair in listed:
        assert np.array_equal(state.node(*pair), base_state.node(*pair))
    assert "rack_4/node_1.bin is missing" in capsys.readouterr().err
    for partial in (state, state.clone()):
        with pytest.raises(ValueError, match="read in part"):
            save(partial, base_spec, tmp_path / "c")
    assert (tmp_path / "c" / "rack_1" / "node_2.bin").read_bytes() == b"corrupt, but never read"
    # with every node listed nothing is left unread, so the state is a whole one
    save(base_state, base_spec, tmp_path / "d")
    full, _ = load(tmp_path / "d", nodes=base_spec.params.node_ids())
    assert type(full) is codec.ClusterState and full == base_state


def test_node_ids_are_the_generator_row_order(tmp_path, base_spec, base_state, fresh_state):
    p = base_spec.params
    ids = p.node_ids()
    assert [p.row(*pair) for pair in ids] == list(range(p.n))
    for pair in reversed(ids):
        fresh_state.erase(*pair)
    assert fresh_state.erased_nodes() == ids
    manifest = save(base_state, base_spec, tmp_path / "c")
    assert list(manifest.nodes) == [f"rack_{rack}/node_{node}.bin" for rack, node in ids]
    for rack, node in ((0, 1), (p.r + 1, 1), (1, 0), (1, p.nodes_per_rack + 1)):
        with pytest.raises(KeyError, match=f"node \\({rack}, {node}\\) out of range"):
            p.row(rack, node)


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def test_seeded_scenario_run(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    scenario = random_scenario(base_spec.params, seed=12, n_rounds=5, n_probes=10)
    report = run_scenario(base_spec, state, scenario, expected_message=base_message)
    assert report.rounds == 5
    assert report.probes_ok == 10
    for cross in report.per_round_cross:
        assert set(cross.values()) == {5}
    text = report.format()
    assert "gamma = 5" in text


def test_repair_round_rejects_a_wrong_rebuild(base_spec, fresh_state, monkeypatch):
    """repair_round compares each rebuilt node with a snapshot taken before
    the erase, so the snapshot must not change with the state."""
    real_repair = codec.repair

    def wrong_repair(spec, state, failed, helpers):
        out = real_repair(spec, state, failed, helpers)
        rack, (node, *_) = failed[0]
        symbols = state.node(rack, node).copy()
        symbols[0] ^= 1
        state.set_node(rack, node, symbols)
        return out

    monkeypatch.setattr(codec, "repair", wrong_repair)
    stage = RepairStage.make({1: (2,), 3: (1,)}, (2, 4))
    with pytest.raises(ScenarioError, match=r"node \(1, 2\) restored incorrectly"):
        harness.repair_round(base_spec, fresh_state, stage)


def test_empty_scenario(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    scenario = Scenario(rounds=(), probes=(((1, 2), (2, 2), (3, 2), (4, 2)),))
    report = run_scenario(base_spec, state, scenario, expected_message=base_message)
    assert report.rounds == 0 and report.per_round_cross == []
    assert report.probes_ok == 1


def test_scenario_bad_helper_count_rejected(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    bad = Scenario(
        rounds=(RepairStage.make({1: (1,), 2: (1,)}, (3, 4, 2)),),
        probes=(),
    )
    with pytest.raises(codec.RepairPatternError):
        run_scenario(base_spec, state, bad, expected_message=base_message)


def test_scenario_detects_wrong_message(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    wrong = np.array(base_message)
    wrong[0] = (wrong[0] + 1) % base_spec.field.order
    scenario = Scenario(rounds=(), probes=(((1, 2), (2, 2), (3, 2), (4, 2)),))
    with pytest.raises(ScenarioError, match="probe"):
        run_scenario(base_spec, state, scenario, expected_message=wrong)


def test_random_scenario_rounds_admissible(base_spec):
    p = base_spec.params
    for seed in range(5):
        sc = random_scenario(p, seed=seed, n_rounds=4, n_probes=2)
        for rnd in sc.rounds:
            failed = dict(rnd.failed)
            assert len(failed) == p.f
            assert all(len(v) == p.failures_per_rack for v in failed.values())
            assert len(rnd.helpers) == p.d
            assert not set(rnd.helpers) & set(failed)


def test_seeded_samplers_pinned():
    """Scenarios and oracle stages share one sampler that draws the failed
    racks, then the helpers, then each rack's nodes; seeded clusters and
    oracle witnesses depend on that order, so it is pinned here."""
    p = params.validate(8, 4, 2, 4, 2, 2)
    sc = random_scenario(p, 0, 3, 2)
    assert sc.rounds == (
        RepairStage(failed=((2, (2,)), (4, (2,))), helpers=(1, 3)),
        RepairStage(failed=((2, (2,)), (3, (1,))), helpers=(1, 4)),
        RepairStage(failed=((1, (1,)), (2, (2,))), helpers=(3, 4)),
    )
    assert sc.probes == (((1, 2), (2, 1), (3, 2), (4, 1)), ((1, 1), (2, 1), (3, 1), (4, 2)))
    oracle = ifg.random_scenario(p, random.Random(0), 2)
    assert oracle.history == (
        RepairStage(failed=((1, (2,)), (4, (2,))), helpers=(2, 3)),
        RepairStage(failed=((2, (1,)), (4, (2,))), helpers=(1, 3)),
    )
    assert oracle.collector == ((4, 1), (4, 2), (2, 1), (2, 2))
