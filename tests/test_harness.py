import json
import random

import numpy as np
import pytest

from rackcoop import codec, harness, ifg, params
from rackcoop.params import RepairStage
from rackcoop.harness import (
    ClusterIntegrityError,
    LayoutVersionError,
    Scenario,
    ScenarioError,
    load,
    random_scenario,
    run_scenario,
    save,
)


def test_save_load_roundtrip(tmp_path, base_spec, base_state):
    manifest = save(base_state, base_spec, tmp_path / "c")
    assert manifest.layout_version == 1
    loaded_state, loaded_spec = load(tmp_path / "c")
    assert loaded_state == base_state
    assert loaded_spec.G == base_spec.G and loaded_spec.P == base_spec.P


def test_save_load_preserves_erasures(tmp_path, fresh_state, base_spec):
    fresh_state.erase(2, 1)
    fresh_state.erase(3, 2)
    save(fresh_state, base_spec, tmp_path / "c")
    assert (tmp_path / "c" / "rack_2" / "node_1.bin").stat().st_size == 0
    loaded, _ = load(tmp_path / "c")
    assert loaded.is_erased(2, 1) and loaded.is_erased(3, 2)
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
    doc["layout_version"] = 2
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


def test_scenario_reference_derived_without_message(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    scenario = random_scenario(base_spec.params, seed=13, n_rounds=2, n_probes=4)
    report = run_scenario(base_spec, state, scenario)
    assert report.probes_ok == 4


def test_empty_scenario(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    scenario = Scenario(seed=0, rounds=(), probes=(((1, 2), (2, 2), (3, 2), (4, 2)),))
    report = run_scenario(base_spec, state, scenario, expected_message=base_message)
    assert report.rounds == 0 and report.per_round_cross == []
    assert report.probes_ok == 1


def test_scenario_bad_helper_count_rejected(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    bad = Scenario(
        seed=0,
        rounds=(RepairStage.make({1: (1,), 2: (1,)}, (3, 4, 2)),),
        probes=(),
    )
    with pytest.raises(codec.RepairPatternError):
        run_scenario(base_spec, state, bad, expected_message=base_message)


def test_scenario_detects_wrong_message(base_spec, base_message):
    state = codec.encode(base_spec, base_message)
    wrong = np.array(base_message)
    wrong[0] = (wrong[0] + 1) % base_spec.field.order
    scenario = Scenario(seed=0, rounds=(), probes=(((1, 2), (2, 2), (3, 2), (4, 2)),))
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
