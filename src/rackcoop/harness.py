"""Cluster persistence and failure-scenario simulation.

A cluster lives in a directory: ``manifest.json`` plus one
``rack_<l>/node_<i>.bin`` file per node (little-endian field symbols; an
erased node is a zero-length file and is listed in the manifest).  The
manifest carries everything needed to rebuild the code instance
deterministically: parameters, field, seed, and a digest over the node
files.  Scenario runs replay repair rounds against the cluster while a
ledger checks every transferred symbol against the bandwidth the code is
supposed to use.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import codec, field as field_mod, params as params_mod
from .codec import ClusterState, CodeSpec, RepairTranscript
from .params import CodeParams, RepairStage, mbrcr_point

LAYOUT_VERSION = 1


class ClusterIntegrityError(RuntimeError):
    pass


class LayoutVersionError(RuntimeError):
    pass


class ScenarioError(RuntimeError):
    pass


@dataclass(frozen=True)
class Manifest:
    params: CodeParams
    field_spec: field_mod.FieldSpec
    seed: int
    file_size: int
    alpha: int
    erased: tuple[tuple[int, int], ...]
    digest: str
    layout_version: int = LAYOUT_VERSION

    def to_json(self) -> str:
        doc = {
            "layout_version": self.layout_version,
            "params": {
                "n": self.params.n, "k": self.params.k, "d": self.params.d,
                "r": self.params.r, "e": self.params.e, "f": self.params.f,
            },
            "field": {
                "kind": self.field_spec.kind,
                "order": self.field_spec.order,
                "modulus": self.field_spec.modulus,
            },
            "seed": self.seed,
            "file_size": self.file_size,
            "alpha": self.alpha,
            "erased": [list(pair) for pair in self.erased],
            "digest": self.digest,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _node_path(root: Path, rack: int, node: int) -> Path:
    return root / f"rack_{rack}" / f"node_{node}.bin"


def _digest_nodes(state: ClusterState) -> str:
    h = hashlib.sha256()
    for rack, node in state.node_ids():
        if state.is_erased(rack, node):
            payload = b""
        else:
            payload = state.field.to_bytes(state.node(rack, node))
        h.update(f"rack_{rack}/node_{node}.bin:{len(payload)}:".encode())
        h.update(payload)
    return h.hexdigest()


def save(state: ClusterState, spec: CodeSpec, directory) -> Manifest:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for rack, node in state.node_ids():
        path = _node_path(root, rack, node)
        path.parent.mkdir(exist_ok=True)
        if state.is_erased(rack, node):
            path.write_bytes(b"")
        else:
            path.write_bytes(state.field.to_bytes(state.node(rack, node)))
    manifest = Manifest(
        params=spec.params,
        field_spec=spec.field.spec,
        seed=spec.seed,
        file_size=spec.file_size,
        alpha=spec.alpha,
        erased=tuple(state.erased_nodes()),
        digest=_digest_nodes(state),
    )
    (root / "manifest.json").write_text(manifest.to_json())
    return manifest


def load(directory) -> tuple[ClusterState, CodeSpec]:
    root = Path(directory)
    try:
        doc = json.loads((root / "manifest.json").read_text())
    except FileNotFoundError:
        raise ClusterIntegrityError(f"no manifest.json in {root}") from None
    if doc.get("layout_version") != LAYOUT_VERSION:
        raise LayoutVersionError(
            f"layout version {doc.get('layout_version')!r} unsupported, expected {LAYOUT_VERSION}"
        )
    pp = doc["params"]
    p = params_mod.validate(pp["n"], pp["k"], pp["d"], pp["r"], pp["e"], pp["f"])
    fspec = field_mod.FieldSpec(
        kind=doc["field"]["kind"], order=doc["field"]["order"], modulus=doc["field"]["modulus"]
    )
    f = field_mod.from_spec(fspec)
    spec = codec.build_code(p, f, doc["seed"])
    if spec.file_size != doc["file_size"] or spec.alpha != doc["alpha"]:
        raise ClusterIntegrityError(
            "manifest layout disagrees with the rebuilt code instance"
        )
    erased = {tuple(pair) for pair in doc["erased"]}
    state = ClusterState(p, f, spec.alpha)
    for rack, node in state.node_ids():
        path = _node_path(root, rack, node)
        data = path.read_bytes()
        if (rack, node) in erased:
            if data:
                raise ClusterIntegrityError(
                    f"{path} marked erased but holds {len(data)} bytes"
                )
            state.erase(rack, node)
        else:
            symbols = f.from_bytes(data)
            if symbols.shape != (spec.alpha,):
                raise ClusterIntegrityError(
                    f"{path} holds {symbols.size} symbols, expected {spec.alpha}"
                )
            state.set_node(rack, node, symbols)
    if _digest_nodes(state) != doc["digest"]:
        raise ClusterIntegrityError("node files do not match the manifest digest")
    return state, spec


@dataclass(frozen=True)
class Scenario:
    seed: int
    rounds: tuple[RepairStage, ...]
    probes: tuple[tuple[tuple[int, int], ...], ...]


def random_scenario(p: CodeParams, seed: int, n_rounds: int, n_probes: int) -> Scenario:
    rng = random.Random(seed)
    rounds = tuple(RepairStage.random(p, rng) for _ in range(n_rounds))
    ids = [(r, i) for r in range(1, p.r + 1) for i in range(1, p.nodes_per_rack + 1)]
    probes = tuple(tuple(sorted(rng.sample(ids, p.k))) for _ in range(n_probes))
    return Scenario(seed=seed, rounds=rounds, probes=probes)


def repair_round(spec: CodeSpec, state: ClusterState, stage: RepairStage) -> RepairTranscript:
    """Erase ``stage``'s nodes, repair them in place, and check the result.

    The stage is validated before any node is read or erased.  The repaired
    nodes must equal their pre-failure contents, the transcript's ledger must
    balance, and every failed rack must receive exactly
    gamma = d*beta1 + (f-1)*beta2 cross-rack symbols; violations raise
    ``ScenarioError``.
    """
    stage.validate(spec.params)
    pre = {(rack, i): state.node(rack, i) for rack, idxs in stage.failed for i in idxs}
    for rack, i in pre:
        state.erase(rack, i)
    _, transcript = codec.repair(spec, state, stage.failed, stage.helpers)
    for (rack, i), before in pre.items():
        after = state.node(rack, i)
        if not np.array_equal(before, after):
            raise ScenarioError(
                f"node ({rack}, {i}) restored incorrectly "
                f"(first diff at position {int(np.argmax(before != after))})"
            )
    sent = sum(c for *_, c in transcript.round1 + transcript.round2)
    if sent != sum(transcript.cross_symbols(rack) for rack in stage.racks):
        raise ScenarioError("ledger imbalance (sent != received)")
    gamma = spec.layout.gamma
    for rack in stage.racks:
        got = transcript.cross_symbols(rack)
        if got != gamma:
            raise ScenarioError(
                f"rack {rack} moved {got} cross-rack symbols, expected gamma = {gamma}"
            )
    return transcript


@dataclass
class ScenarioReport:
    rounds: int
    per_round_cross: list[dict[int, int]]
    intra_totals: dict[str, int]
    gamma_expected: int
    probes_ok: int
    lines: list[str] = dc_field(default_factory=list)

    def format(self) -> str:
        return "\n".join(self.lines)


def run_scenario(spec: CodeSpec, state: ClusterState, scenario: Scenario,
                 expected_message=None) -> ScenarioReport:
    """Replay repair rounds and collector probes with full accounting.

    Every round must restore the pre-failure contents exactly and move
    exactly d*beta1 + (f-1)*beta2 cross-rack symbols per failed rack; every
    probe must return the reference message.  Violations raise
    ``ScenarioError`` naming the round.
    """
    p = spec.params
    layout = spec.layout
    gamma = layout.gamma
    if expected_message is None:
        ids = [(r, i) for r in range(1, p.r + 1)
               for i in range(p.failures_per_rack + 1, p.nodes_per_rack + 1)]
        reference = codec.collect(spec, state, ids[: p.k]) if len(ids) >= p.k else None
        if reference is None:
            probe = scenario.probes[0] if scenario.probes else None
            if probe is None:
                raise ScenarioError("cannot derive a reference message: no probes")
            reference = codec.collect(spec, state, probe)
    else:
        reference = np.asarray(expected_message, dtype=np.int64)

    report = ScenarioReport(
        rounds=len(scenario.rounds), per_round_cross=[], intra_totals={},
        gamma_expected=gamma, probes_ok=0,
    )
    report.lines.append(
        f"scenario: {len(scenario.rounds)} repair rounds, {len(scenario.probes)} probes"
    )
    for idx, rnd in enumerate(scenario.rounds, start=1):
        try:
            transcript = repair_round(spec, state, rnd)
        except ScenarioError as exc:
            raise ScenarioError(f"round {idx}: {exc}") from None
        cross = {rack: transcript.cross_symbols(rack) for rack in rnd.racks}
        for key, val in transcript.intra_rack.items():
            report.intra_totals[key] = report.intra_totals.get(key, 0) + val
        report.per_round_cross.append(cross)
        report.lines.append(
            f"round {idx}: failed {list(rnd.racks)} helpers {list(rnd.helpers)} "
            f"cross-rack per rack = {sorted(set(cross.values()))}"
        )
    for probe in scenario.probes:
        got = codec.collect(spec, state, probe)
        if not np.array_equal(got, reference):
            raise ScenarioError(f"probe {list(probe)} did not recover the message")
        report.probes_ok += 1
    point = mbrcr_point(p, layout.file_size)
    report.lines.append(
        f"probes recovered: {report.probes_ok}/{len(scenario.probes)}"
    )
    report.lines.append(
        f"cross-rack bandwidth per failed rack: {gamma} "
        f"(minimum-bandwidth corner gamma = {point.gamma})"
    )
    report.lines.append(f"intra-rack reads (free in the model): {report.intra_totals}")
    return report
