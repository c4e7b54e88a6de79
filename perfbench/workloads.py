"""The benchmark's workloads: set-up, warm-up and one closed-loop cycle each.

One client drives each loop: an operation starts only after the previous
one has returned. Each operation is timed alone and its result is checked
by the gate outside the timed region. ``metrics(run)`` turns a pass into
the workload's own end-to-end metrics. The same class with a smaller
configuration and a fixed number of cycles is the companion pass that
measures those metrics in the other workloads' runs (see ``companion``).

Times are reported at reference speed. On a shared machine the CPU's speed
drifts (2x within a minute was seen on a 2-vCPU Xeon VM), and the drift
moves every operation and the benchmark's own ``reference`` kernel alike.
A burst of kernel runs is timed before an operation (unless one was timed
in the last ``BURST_EVERY_S``, so that short operations run warm) and once
after the loop; an operation's time is scaled by ``REFERENCE_S`` over the
mean of the bursts on either side of it. On a machine where the kernel takes
``REFERENCE_S`` the scaled time equals the wall time. Wall times are kept
beside the scaled ones.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import shutil
import statistics
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from rackcoop import cli, codec, ifg, params, tradeoff

from gate import bytes_problems, lp_problems, message_problems, mincut_problems, repair_problems
from tracer import Tracer

clock = time.perf_counter
REFERENCE_S = 200e-6
BURST_EVERY_S = 0.01
_REFERENCE_TABLE = np.arange(512, dtype=np.int64) % 255


def reference() -> None:
    """Fixed work that belongs to the benchmark, not to rackcoop: exact rational
    arithmetic and small int64 array operations, the mix the workloads run."""
    x = Fraction(0)
    for i in range(1, 48):
        x += Fraction(i, i + 3) * Fraction(2, 7)
    a = np.arange(64, dtype=np.int64)
    for i in range(16):
        a = np.bitwise_xor(a, _REFERENCE_TABLE[(a + i) & 511])


def reference_median(runs: int = 3) -> float:
    """Median seconds of ``runs`` back-to-back kernel runs (all but the first warm)."""
    times = []
    for _ in range(runs):
        t0 = clock()
        reference()
        times.append(clock() - t0)
    return statistics.median(times)


CODEC_TUPLE = (16, 8, 4, 8, 2, 2)
CLI_TUPLE = (8, 4, 2, 4, 2, 2)
# m = 2..6 and f = 2, 3; (24,12,6,12,3,3) is left out, one LP there takes seconds.
ORACLE_TUPLES = (
    (8, 4, 2, 4, 2, 2), (12, 6, 3, 6, 3, 3), (12, 8, 2, 4, 2, 2), (10, 5, 3, 5, 2, 2),
    (6, 4, 4, 6, 2, 2), (16, 8, 4, 8, 2, 2), (24, 12, 6, 12, 2, 2),
)
NAMES = ("codec-datapath", "cli-cluster", "tradeoff-oracle")
OPS = ("encode", "collect", "repair", "cli_encode", "cli_collect", "cli_repair",
       "curve_point", "mincut_check")


def tuple_label(tup) -> str:
    return "-".join(map(str, tup))


class Run:
    """Operation times, counters and gate verdicts of one pass over a workload.

    Times are ``(seconds, burst index)`` pairs keyed by label: an operation name
    from ``OPS``, optionally followed by ``:`` and a variant
    (``collect:global``, ``curve_point:8-4-2-4-2-2``).
    """

    def __init__(self, gate, tracer: Tracer | None = None):
        self.gate = gate
        self.tracer = tracer or Tracer()  # a tracer never patched in records nothing
        self.times: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.cycles = 0
        self.bursts: list[float] = []  # reference bursts, in order
        self.burst_at = 0.0
        self.wall_clock = False  # p50 of wall times instead of reference-speed times

    def timed(self, label: str, fn, *args):
        if not self.bursts or clock() - self.burst_at > BURST_EVERY_S:
            self.bursts.append(reference_median())
            self.burst_at = clock()
        with self.tracer.op(label):
            t0 = clock()
            result = fn(*args)
            dt = clock() - t0
        self.times[label].append((dt, len(self.bursts) - 1))
        return result

    def check(self, op: str, problems) -> bool:
        return self.gate.check(op, problems)

    def labels(self, op: str) -> list[str]:
        return [k for k in self.times if k == op or k.startswith(op + ":")]

    def seconds(self, label: str, scaled: bool) -> list[float]:
        """Times of one label, or of every variant of an operation, at
        reference speed or (``scaled=False``) in wall time."""
        out = []
        for key in self.labels(label) if label in OPS else [label]:
            for wall, i in self.times[key]:
                local = (self.bursts[i] + self.bursts[min(i + 1, len(self.bursts) - 1)]) / 2
                out.append(wall * REFERENCE_S / local if scaled else wall)
        return out

    def p50(self, label: str) -> float:
        return statistics.median(self.seconds(label, scaled=not self.wall_clock))

    def op_seconds(self) -> float:
        return sum(sum(self.seconds(op, scaled=True)) for op in OPS if self.labels(op))


def drive(workload, run: Run, rng, *, seconds: float | None = None, cycles: int | None = None) -> None:
    """Run whole cycles until ``seconds`` have passed or ``cycles`` are done."""
    start = clock()
    while run.cycles < cycles if cycles is not None else clock() - start < seconds:
        try:
            workload.cycle(run, rng)
        except Exception as exc:  # an operation that raises is a failed operation
            run.gate.check(f"{workload.name} cycle", [f"{type(exc).__name__}: {exc}"])
        run.cycles += 1
    run.bursts.append(reference_median())  # the burst after the last operation


def _failure_pattern(p, rng):
    racks = rng.sample(range(1, p.r + 1), p.f)
    helpers = rng.sample([h for h in range(1, p.r + 1) if h not in racks], p.d)
    failed = {rack: tuple(sorted(rng.sample(range(1, p.nodes_per_rack + 1), p.failures_per_rack)))
              for rack in racks}
    return failed, helpers


def _node_ids(p):
    return [(r, i) for r in range(1, p.r + 1) for i in range(1, p.nodes_per_rack + 1)]


class CodecDatapath:
    """In-memory encode, any-k collect and two-round repair on one built code."""

    name = "codec-datapath"
    warmup_cycles = 20
    reused_share = 0.25

    def __init__(self, tup):
        self.p = params.validate(*tup)
        self.ids = _node_ids(self.p)
        epf = self.p.failures_per_rack
        # The single all-global collector: takes the MDS fast path, reused every time.
        self.global_collector = [(r, i) for r, i in self.ids if i > epf][: self.p.k]
        if len(self.global_collector) != self.p.k:
            raise ValueError(f"{tup} has no all-global collector")
        self.spec = None

    def setup(self, seed: int, run: Run) -> None:
        self.spec = codec.build_default_code(self.p, seed)

    def cycle(self, run: Run, rng) -> None:
        spec, p = self.spec, self.p
        message = np.array([rng.randrange(spec.field.order) for _ in range(spec.file_size)],
                           dtype=np.int64)
        state = run.timed("encode", codec.encode, spec, message)
        run.counts["stored_symbols"] += sum(state.node(r, i).size for r, i in self.ids)

        reused = rng.random() < self.reused_share
        nodes = self.global_collector if reused else rng.sample(self.ids, p.k)
        kind = "global" if all(i > p.failures_per_rack for _, i in nodes) else "mixed"
        got = run.timed(f"collect:{kind}", codec.collect, spec, state, nodes)
        run.counts["collect_reused"] += reused
        # An encode is right when its stored symbols give the message back.
        problems = message_problems(message, got)
        run.check("encode", problems)
        run.check("collect", problems)

        failed, helpers = _failure_pattern(p, rng)
        work = state.clone()
        for rack, idxs in failed.items():
            for i in idxs:
                work.erase(rack, i)
        _, transcript = run.timed("repair", codec.repair, spec, work, failed, helpers)
        cross = {rack: transcript.cross_symbols(rack) for rack in failed}
        sent = sum(c for *_, c in transcript.round1 + transcript.round2)
        run.check("repair", repair_problems(work == state, cross, sent, spec.layout.gamma, failed))
        run.counts["cross_symbols"] += sum(cross.values())
        run.counts["failed_racks"] += len(cross)

    def metrics(self, run: Run) -> dict:
        """Payload MB/s at the median operation time, and the exact counts."""
        spec = self.spec
        file_mb = spec.file_size * spec.field.symbol_bytes / 1e6
        return {
            "encode_MBps": file_mb / run.p50("encode"),
            "collect_MBps": file_mb / run.p50("collect"),
            "repair_MBps": file_mb / run.p50("repair"),
            "repair_cross_rack_symbols": run.counts["cross_symbols"] / run.counts["failed_racks"],
            "storage_overhead": run.counts["stored_symbols"] / (len(run.times["encode"]) * spec.file_size),
        }


_CROSS = re.compile(r"rack (\d+): (\d+) cross-rack symbols$")
_ROUND = re.compile(r"\s+round[12] .*: (\d+)$")


def _dir_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


def _node_files(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.glob("rack_*/node_*.bin"))}


class CliCluster:
    """``rackcoop`` commands run in-process against cluster directories."""

    name = "cli-cluster"
    warmup_cycles = 0  # set-up is itself one full cycle
    steps = ("collect", "repair", "collect", "repair")

    def __init__(self, tup, workdir: Path):
        self.p = params.validate(*tup)
        self.arg = ",".join(map(str, tup))
        self.ids = _node_ids(self.p)
        layout = params.construction_params(self.p)
        self.gamma = layout.gamma
        # Packed files carry a 4-byte length header inside the B symbols.
        self.capacity = layout.file_size * codec.default_field(self.p).symbol_bytes - 4
        self.workdir = workdir
        self.clusters = 0

    def setup(self, seed: int, run: Run) -> None:
        self.cycle(run, random.Random(seed))

    def _command(self, run: Run, op: str, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = run.timed(op, cli.main, [str(a) for a in argv])
        return code, out.getvalue()

    def cycle(self, run: Run, rng) -> None:
        self.clusters += 1
        root = self.workdir / f"cluster-{self.clusters}"
        infile, outfile = self.workdir / "payload.bin", self.workdir / "recovered.bin"
        payload = rng.randbytes(rng.randint(1, self.capacity))
        infile.write_bytes(payload)
        code, _ = self._command(run, "cli_encode", [
            "encode", "--params", self.arg, "--seed", rng.randrange(1 << 16),
            "--in", infile, "--out", root])
        run.check("cli_encode", [f"exit code {code}"] if code else [])
        run.counts["bytes_written"] += _dir_bytes(root)
        run.counts["payload_written"] += len(payload)
        for step in self.steps:
            run.counts["bytes_read"] += _dir_bytes(root)
            run.counts["payload_read"] += len(payload)
            if step == "collect":
                nodes = ",".join(f"{r}:{i}" for r, i in rng.sample(self.ids, self.p.k))
                code, _ = self._command(run, "cli_collect", [
                    "collect", "--out", root, "--nodes", nodes, "--recover", outfile])
                problems = [f"exit code {code}"] if code else bytes_problems(payload, outfile.read_bytes())
                run.check("cli_collect", problems)
                continue
            before = _node_files(root)
            failed, helpers = _failure_pattern(self.p, rng)
            code, out = self._command(run, "cli_repair", [
                "repair", "--dir", root, "--racks", ",".join(map(str, failed)),
                "--nodes", "/".join(",".join(map(str, idxs)) for idxs in failed.values()),
                "--helpers", ",".join(map(str, helpers))])
            if code:
                run.check("cli_repair", [f"exit code {code}"])
                continue
            cross, sent = {}, 0
            for line in out.splitlines():
                if m := _CROSS.match(line):
                    cross[int(m[1])] = int(m[2])
                elif m := _ROUND.match(line):
                    sent += int(m[1])
            restored = _node_files(root) == before
            run.check("cli_repair", repair_problems(restored, cross, sent, self.gamma, failed))
            run.counts["bytes_written"] += _dir_bytes(root)
            run.counts["payload_written"] += len(payload)
        shutil.rmtree(root)

    def metrics(self, run: Run) -> dict:
        return {f"cli_{op}_ms_p50": run.p50(f"cli_{op}") * 1e3 for op in ("encode", "collect", "repair")}


def _mincut_check(p, alpha, beta1, beta2, seed):
    bound = tradeoff.max_file_size(p, alpha, beta1, beta2).value
    oracle = ifg.worst_case_mincut(p, alpha, beta1, beta2, seed=seed).value
    return bound, oracle


class TradeoffOracle:
    """Exact min-gamma LP at seeded storage points, each checked against the flow-graph oracle."""

    name = "tradeoff-oracle"
    warmup_cycles = 0  # set-up is itself one full cycle

    def __init__(self, tuples):
        self.tuples = tuples
        self.cases = []

    def setup(self, seed: int, run: Run) -> None:
        self.cases = []
        for tup in self.tuples:
            p = params.validate(*tup)
            b = params.construction_params(p).file_size
            self.cases.append((tuple_label(tup), p, b, params.msrcr_point(p, b), params.mbrcr_point(p, b)))
        self.cycle(run, random.Random(seed))

    def cycle(self, run: Run, rng) -> None:
        # Cycles walk through eight strata of the open interval between the
        # corners, with a seeded alpha inside each (see ``metrics``).
        stratum = run.cycles % 8
        for label, p, b, msr, mbr in self.cases:
            share = Fraction(16 * stratum + rng.randrange(1, 16), 128)
            alpha = msr.alpha + share * (mbr.alpha - msr.alpha)
            sol = run.timed(f"curve_point:{label}:{stratum}", tradeoff.min_gamma_given_alpha, p, b, alpha)
            with run.tracer.paused():
                ok = tradeoff.feasible(p, b, alpha, sol.beta1, sol.beta2)
            run.check("curve_point", lp_problems(ok, sol.gamma, mbr.gamma, msr.gamma))
            for where, point in (("curve", (alpha, sol.beta1, sol.beta2)),
                                 ("msr", (msr.alpha, msr.beta1, msr.beta2)),
                                 ("mbr", (mbr.alpha, mbr.beta1, mbr.beta2))):
                bound, oracle = run.timed(f"mincut_check:{label}:{where}", _mincut_check, p, *point,
                                          rng.randrange(1 << 32))
                run.check("mincut_check", mincut_problems(bound, oracle))

    def metrics(self, run: Run) -> dict:
        """Operations per second over the fixed mix of tuples (and check points).

        A mincut check counts at its median time. LP cost depends strongly on
        alpha (near the minimum-bandwidth corner it is about half), so a curve
        point counts at the mean over alpha strata of its per-stratum median:
        a run that ends part-way through the strata is not biased towards the
        early ones.
        """
        strata = defaultdict(list)
        for label in run.labels("curve_point"):
            strata[label.rsplit(":", 1)[0]].append(run.p50(label))
        lp_seconds = sum(statistics.mean(times) for times in strata.values())
        checks = run.labels("mincut_check")
        return {"curve_points_per_s": len(strata) / lp_seconds,
                "mincut_checks_per_s": len(checks) / sum(run.p50(label) for label in checks)}


def home(name: str, workdir: Path):
    if name == "codec-datapath":
        return CodecDatapath(CODEC_TUPLE)
    if name == "cli-cluster":
        return CliCluster(CLI_TUPLE, workdir)
    return TradeoffOracle(ORACLE_TUPLES)


def companion(name: str, workdir: Path):
    """``(workload, cycles)`` measuring ``name``'s metrics inside another workload's run.

    Smaller and fixed-size, so every run reports every end-to-end metric
    without the home workload's set-up cost.
    """
    if name == "codec-datapath":
        return CodecDatapath(CLI_TUPLE), 300
    if name == "cli-cluster":
        return CliCluster(CLI_TUPLE, workdir), 16
    return TradeoffOracle(ORACLE_TUPLES[:-1]), 16
