"""Cluster persistence and failure-scenario simulation.

A cluster lives in a directory: ``manifest.json`` plus one
``rack_<l>/node_<i>.bin`` file per node (little-endian field symbols; an
erased node is a zero-length file and is listed in the manifest).  The
manifest names the code instance by its certificate (parameters, field,
seed, the accepted attempt and the code's fingerprint) and records a digest
per node file.  Scenario runs replay repair rounds against the cluster while
a ledger checks every transferred symbol against the bandwidth the code is
supposed to use.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import codec, field as field_mod, params as params_mod
from .codec import ClusterState, CodeSpec, RepairTranscript
from .params import CodeParams, RepairStage, mbrcr_point

LAYOUT_VERSION = 2


class ClusterIntegrityError(RuntimeError):
    pass


class LayoutVersionError(RuntimeError):
    pass


class ScenarioError(RuntimeError):
    pass


@dataclass(frozen=True)
class Manifest:
    """One cluster's manifest, in layout ``LAYOUT_VERSION``.

    It names the code by ``attempt`` and ``fingerprint`` and maps every node
    file to its SHA-256 in ``nodes``.
    """

    params: CodeParams
    field_spec: field_mod.FieldSpec
    seed: int
    file_size: int
    alpha: int
    erased: tuple[tuple[int, int], ...]
    attempt: int
    fingerprint: str
    nodes: dict[str, str]

    def to_json(self) -> str:
        doc = {
            "layout_version": LAYOUT_VERSION,
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
            "attempt": self.attempt,
            "fingerprint": self.fingerprint,
            "nodes": self.nodes,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "Manifest":
        """Parse a manifest.  A missing or ill-typed field raises
        ``ClusterIntegrityError`` naming it; parameter values are checked by
        ``params.validate`` and the field by ``FieldSpec``."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise ClusterIntegrityError(f"manifest is not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ClusterIntegrityError(f"manifest is a JSON {type(doc).__name__}, not an object")
        version = doc.get("layout_version")
        if type(version) is not int or version != LAYOUT_VERSION:
            raise LayoutVersionError(
                f"layout version {version!r} unsupported, expected {LAYOUT_VERSION}"
            )
        pp = _typed(doc, "params", dict)
        fd = _typed(doc, "field", dict)
        erased = _typed(doc, "erased", list)
        p = params_mod.validate(
            *(_typed(pp, key, int, "params.") for key in ("n", "k", "d", "r", "e", "f"))
        )
        ids = set(p.node_ids())
        pairs = {tuple(pair) for pair in erased
                 if type(pair) is list and all(type(x) is int for x in pair)}
        if len(pairs) != len(erased) or not pairs <= ids:
            raise ClusterIntegrityError(
                "manifest field 'erased' must list distinct [rack, node] pairs of the cluster"
            )
        common = dict(
            params=p,
            field_spec=field_mod.FieldSpec(
                kind=_typed(fd, "kind", str, "field."),
                order=_typed(fd, "order", int, "field."),
                modulus=_typed(fd, "modulus", int, "field."),
            ),
            seed=_typed(doc, "seed", int),
            file_size=_typed(doc, "file_size", int),
            alpha=_typed(doc, "alpha", int),
            erased=tuple(tuple(pair) for pair in erased),
        )
        attempt = _typed(doc, "attempt", int)
        if not 0 <= attempt < codec.MAX_ATTEMPTS:
            raise ClusterIntegrityError(
                f"manifest field 'attempt' is {attempt}, not in 0..{codec.MAX_ATTEMPTS - 1}"
            )
        nodes = _typed(doc, "nodes", dict)
        names = {_node_name(rack, node) for rack, node in ids}
        if set(nodes) != names or not all(type(v) is str for v in nodes.values()):
            raise ClusterIntegrityError(
                "manifest field 'nodes' must map each node file to its SHA-256 digest"
            )
        return cls(**common, attempt=attempt, fingerprint=_typed(doc, "fingerprint", str),
                   nodes=nodes)


def _typed(doc: dict, key: str, kind: type, prefix: str = ""):
    value = doc.get(key)
    if type(value) is not kind:  # JSON values have exact types; refuses true as an int
        raise ClusterIntegrityError(
            f"manifest field '{prefix}{key}' is missing or not {kind.__name__}"
        )
    return value


def _node_name(rack: int, node: int) -> str:
    return f"rack_{rack}/node_{node}.bin"


def _payloads(state: ClusterState) -> dict[tuple[int, int], bytes]:
    """Each node file's bytes, in row order: its symbols, or none if erased."""
    width = state.alpha * state.field.symbol_bytes
    data = state.field.to_bytes(state.symbols)
    return {pair: b"" if state.erased[row] else data[row * width : (row + 1) * width]
            for row, pair in enumerate(state.params.node_ids())}


class PartialClusterState(ClusterState):
    """A cluster that ``load(directory, nodes=...)`` read only in part.

    The node files in ``unread`` were checked for existence only and are held
    as erased; :func:`save` refuses such a state, so a partial read never
    overwrites a manifest."""

    def __init__(self, params: CodeParams, field, alpha: int, unread):
        super().__init__(params, field, alpha)
        self.unread = frozenset(unread)


def save(state: ClusterState, spec: CodeSpec, directory, nodes=None) -> Manifest:
    """Write ``state`` with a manifest naming ``spec`` by its certificate.

    Every node's digest is taken from ``state``, but only the node files of
    ``nodes`` (default: all) are written, then ``manifest.json`` last.  A
    caller passing ``nodes`` vouches that every other file already holds its
    node's bytes, as after a ``load`` that changed only those nodes.
    """
    if isinstance(state, PartialClusterState):
        raise ValueError(f"cannot save a cluster read in part ({len(state.unread)} files unread)")
    root = Path(directory)
    payloads = _payloads(state)
    wanted = payloads.keys() if nodes is None else set(map(tuple, nodes))
    written = [pair for pair in payloads if pair in wanted]
    for rack in dict.fromkeys(rack for rack, _ in written):
        (root / f"rack_{rack}").mkdir(parents=True, exist_ok=True)
    for pair in written:
        _write(root / _node_name(*pair), payloads[pair])
    manifest = Manifest(
        params=spec.params,
        field_spec=spec.field.spec,
        seed=spec.seed,
        file_size=spec.file_size,
        alpha=spec.alpha,
        erased=tuple(state.erased_nodes()),
        attempt=spec.attempt,
        fingerprint=spec.fingerprint,
        nodes={_node_name(*pair): hashlib.sha256(data).hexdigest()
               for pair, data in payloads.items()},
    )
    _write(root / "manifest.json", manifest.to_json().encode())
    return manifest


def _write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path``, overwriting an existing file in place.

    Opening with truncation would empty the file first, and ext4 then forces
    its new blocks to disk when it is closed (the ``auto_da_alloc`` heuristic),
    which costs several times the write itself."""
    try:
        with open(path, "r+b") as fh:
            fh.write(data)
            fh.truncate()
    except FileNotFoundError:
        path.write_bytes(data)


def load(directory, nodes=None) -> tuple[ClusterState, CodeSpec]:
    """Read a cluster and the code instance its manifest names.

    The code is candidate ``attempt`` of ``codec.candidates``, taken without
    re-verification: its fingerprint must equal the manifest's.  A manifest
    of another layout version raises ``LayoutVersionError``.  A missing node
    file is reported on stderr and loaded as erased; a node file that is read
    must match its digest.

    With ``nodes``, only those node files are read and checked; the others
    are checked for existence only, and if any is left unread the result is
    a :class:`PartialClusterState`.
    """
    root = Path(directory)
    try:
        manifest = Manifest.from_json((root / "manifest.json").read_bytes())
    except FileNotFoundError:
        raise ClusterIntegrityError(f"no manifest.json in {root}") from None
    p = manifest.params
    f = field_mod.from_spec(manifest.field_spec)
    spec = next(itertools.islice(codec.candidates(p, f, manifest.seed), manifest.attempt, None))
    if spec.fingerprint != manifest.fingerprint:
        raise ClusterIntegrityError(
            f"code fingerprint {spec.fingerprint[:16]} (seed {manifest.seed}, attempt "
            f"{manifest.attempt}) does not match the manifest's fingerprint "
            f"{manifest.fingerprint[:16]}"
        )
    if spec.file_size != manifest.file_size or spec.alpha != manifest.alpha:
        raise ClusterIntegrityError(
            "manifest layout disagrees with the rebuilt code instance"
        )
    erased = set(manifest.erased)
    unread = set() if nodes is None else set(p.node_ids()) - set(map(tuple, nodes))
    state = (PartialClusterState(p, f, spec.alpha, unread) if unread
             else ClusterState(p, f, spec.alpha))
    for rack, node in p.node_ids():
        name = _node_name(rack, node)
        path = root / name
        try:
            if (rack, node) in unread:
                path.stat()  # a missing file still warns; a present one stays unread
                continue
            data = path.read_bytes()
        except FileNotFoundError:
            if (rack, node) not in erased:
                print(f"warning: {path} is missing; node ({rack}, {node}) is loaded as erased",
                      file=sys.stderr)
            continue
        if hashlib.sha256(data).hexdigest() != manifest.nodes[name]:
            raise ClusterIntegrityError(f"{path} does not match its digest in the manifest")
        if (rack, node) in erased:
            if data:
                raise ClusterIntegrityError(
                    f"{path} marked erased but holds {len(data)} bytes"
                )
        else:
            symbols = f.from_bytes(data)
            if symbols.shape != (spec.alpha,):
                raise ClusterIntegrityError(
                    f"{path} holds {symbols.size} symbols, expected {spec.alpha}"
                )
            state.set_node(rack, node, symbols)
    return state, spec


@dataclass(frozen=True)
class Scenario:
    rounds: tuple[RepairStage, ...]
    probes: tuple[tuple[tuple[int, int], ...], ...]


def random_scenario(p: CodeParams, seed: int, n_rounds: int, n_probes: int) -> Scenario:
    rng = random.Random(seed)
    rounds = tuple(RepairStage.random(p, rng) for _ in range(n_rounds))
    probes = tuple(tuple(sorted(rng.sample(p.node_ids(), p.k))) for _ in range(n_probes))
    return Scenario(rounds=rounds, probes=probes)


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
                 expected_message) -> ScenarioReport:
    """Replay repair rounds and collector probes with full accounting.

    Every round must restore the pre-failure contents exactly and move
    exactly d*beta1 + (f-1)*beta2 cross-rack symbols per failed rack; every
    probe must return ``expected_message``, the message ``state`` encodes.
    Violations raise ``ScenarioError`` naming the round.
    """
    p = spec.params
    layout = spec.layout
    gamma = layout.gamma
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
