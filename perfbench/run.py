"""rackcoop benchmark: end-to-end metrics (``--trace 0``) or per-layer metrics (``--trace 1``).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload codec-datapath --seed 1 --seconds 15 --trace 0

The package is imported from ``src/`` of that checkout and from nowhere
else. Every operation's result is checked; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``, and
the exit code is nonzero when any check failed. The run environment, the
per-operation sample counts and (traced) the spans go to
``.bench_out/`` in the checkout. Workloads, layers and metrics are described
in ``perfbench/layer_map.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPS = 3


def _import_package():
    src = ROOT / "src"
    if not (src / "rackcoop" / "__init__.py").is_file():
        sys.exit(f"error: no rackcoop sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import rackcoop

    if Path(rackcoop.__file__).resolve().parent != (src / "rackcoop").resolve():
        sys.exit(f"error: imported rackcoop from {rackcoop.__file__}, not from {src}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rackcoop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu, "platform": platform.platform(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def _timed_setup(wl, seed, gate) -> tuple[float, float]:
    """Wall seconds of one set-up, and the same at reference speed."""
    import workloads

    before = workloads.reference_median(15)
    t0 = time.perf_counter()
    wl.setup(seed, workloads.Run(gate))
    wall = time.perf_counter() - t0
    local = (before + workloads.reference_median(15)) / 2
    return wall, wall * workloads.REFERENCE_S / local


def _end_to_end(args, workdir, gate) -> tuple[dict, dict, dict]:
    """End-to-end metrics at reference speed, the same in wall time, and sample counts."""
    import workloads

    rng = random.Random(args.seed)
    wl = workloads.home(args.workload, workdir)
    setups = [_timed_setup(wl, rng.randrange(1 << 32), gate) for _ in range(SETUP_REPS)]
    workloads.drive(wl, workloads.Run(gate), rng, cycles=wl.warmup_cycles)
    runs = [(wl, workloads.Run(gate))]
    workloads.drive(wl, runs[0][1], rng, seconds=args.seconds)
    samples = {"setup": len(setups), "cycles": runs[0][1].cycles,
               **{label: len(t) for label, t in runs[0][1].times.items()}}
    for other in workloads.NAMES:
        if other == args.workload:
            continue
        cw, cycles = workloads.companion(other, workdir)
        crng = random.Random(f"{args.seed}/{other}")
        cw.setup(crng.randrange(1 << 32), workloads.Run(gate))
        workloads.drive(cw, workloads.Run(gate), crng, cycles=cw.warmup_cycles)
        runs.append((cw, workloads.Run(gate)))
        workloads.drive(cw, runs[-1][1], crng, cycles=cycles)
        samples[f"companion:{other}"] = {label: len(t) for label, t in runs[-1][1].times.items()}
    success = (gate.attempted - gate.failed) / gate.attempted
    metrics = {"setup_s": statistics.median(s for _, s in setups), "success_rate": success}
    wall = {"setup_s": statistics.median(w for w, _ in setups), "success_rate": success}
    for w, run in runs:
        metrics.update(w.metrics(run))
        run.wall_clock = True
        wall.update(w.metrics(run))
    return metrics, wall, samples


def _per_layer(args, workdir, gate, rules, out_dir) -> tuple[dict, dict, list[str]]:
    import layers
    import workloads
    from tracer import Tracer

    tr = Tracer()
    layers.register(tr)
    rng = random.Random(args.seed)
    wl = workloads.home(args.workload, workdir)
    with tr.patched(), tr.op("setup"):
        wl.setup(rng.randrange(1 << 32), workloads.Run(gate, tr))
    workloads.drive(wl, workloads.Run(gate), rng, cycles=wl.warmup_cycles)
    plain = workloads.Run(gate)
    workloads.drive(wl, plain, rng, seconds=args.seconds / 2)
    snap = tr.snapshot()
    traced = workloads.Run(gate, tr)
    with tr.patched():
        workloads.drive(wl, traced, rng, seconds=args.seconds / 2)
    metrics = layers.per_layer(tr, snap, plain, traced)
    problems = layers.map_problems(tr, snap, rules)
    tr.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    self_ms = {name: st[2] * 1e3 for name, st in sorted(tr.stats.items())}
    samples = {"untraced_cycles": plain.cycles, "traced_cycles": traced.cycles,
               **{op: len(t) for op, t in plain.times.items()}, "self_ms_by_name": self_ms}
    return metrics, samples, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("codec-datapath", "cli-cluster", "tradeoff-oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    import gate as gate_mod  # perfbench/ is on sys.path as the script's directory

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    env = _environment(args)
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    injected, detected, controls_ok = gate_mod.self_check()
    problems = [] if detected == injected and controls_ok else [
        f"gate self-check: {detected}/{injected} injected faults flagged, controls passed: {controls_ok}"]
    gate = gate_mod.Gate()
    try:
        if args.trace:
            metrics, samples, map_issues = _per_layer(
                args, workdir, gate, layer_map["workloads"][args.workload], out_dir)
            problems += map_issues
            metrics["layer_map_ok"] = int(not map_issues)
            metrics["gate_faults_detected"] = detected
            metrics["error_rate"] = gate.failed / max(gate.attempted, 1)
            section = "per_layer"
        else:
            metrics, wall, samples = _end_to_end(args, workdir, gate)
            samples["wall_clock_metrics"] = wall
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json {section}")
    problems += gate.problems
    correct = gate.failed == 0 and not problems
    result = {
        "correct": correct, "attempted": gate.attempted, "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "samples": samples, "gate_self_check":
                    {"injected": injected, "detected": detected, "controls_passed": controls_ok},
                    "problems": problems, **result}, indent=2) + "\n")

    wall = samples.get("wall_clock_metrics", {})
    for name, unit in units.items():
        raw = f"   (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"{name:52s} {metrics[name]:>16.6g} {unit}{raw}")
    print(f"gate self-check: {detected} of {injected} injected faults counted as failed")
    for problem in problems:
        print(f"FAILED: {problem}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("samples: " + json.dumps(samples, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
