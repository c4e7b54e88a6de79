"""Which rackcoop functions the traced run wraps, and the per-layer metrics.

Windows: build metrics and ``linalg.rank`` shapes cover the whole traced
period, set-up included, because codec-datapath builds only there. Every
``*_per_cycle`` and ``*_per_call`` figure covers the traced half of the loop
alone, in wall time. Operation percentiles come from the untraced half, at
reference speed like the end-to-end metrics; ``reference_kernel_us`` gives
the machine's speed during the traced half.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from rackcoop import cli, codec, field, harness, ifg, linalg, tradeoff

from workloads import OPS, ORACLE_TUPLES, tuple_label

TAIL_PERCENTILES = (99.9, 99, 98, 95, 90, 80, 75)


def _rank_shape(tr, args, result, seconds):
    tr.extra["rank.rows"] += args[0].rows
    tr.extra["rank.cols"] += args[0].cols


def _collect_kind(tr, args, result, seconds):
    spec, nodes = args[0], args[2]
    kind = "global" if all(int(i) > spec.params.failures_per_rack for _, i in nodes) else "mixed"
    tr.extra[f"collect.{kind}.calls"] += 1
    tr.extra[f"collect.{kind}.s"] += seconds


def _repair_ledger(tr, args, result, seconds):
    transcript = result[1]
    tr.extra["repair.round1_symbols"] += sum(c for *_, c in transcript.round1)
    tr.extra["repair.round2_symbols"] += sum(c for *_, c in transcript.round2)
    tr.extra["repair.intra_rack_reads"] += sum(transcript.intra_rack.values())


def _feasible(tr, args, result, seconds):
    tr.extra["feasible.true"] += bool(result)


def _graph_size(tr, args, result, seconds):
    tr.extra["ifg.edges"] += len(result.edges)
    tr.extra["ifg.vertices"] += len(result.vertices())


def register(tr) -> None:
    """Wrap each layer's public entry points, on the attribute its callers look up."""
    for attr in ("vec_mul", "inv"):
        tr.add(field.BinaryField, attr, f"field.{attr}", span=False)
    for attr in ("vec_add", "vec_sub"):
        tr.add(field.BinaryField, attr, "field.vec_addsub", span=False)
    tr.add(field.Field, "vec_dot", "field.vec_dot", span=False)
    tr.add(linalg, "rank", "linalg.rank", observe=_rank_shape)
    for attr in ("solve", "solve_full_rank", "mat_vec", "vec_mat", "check_U_property"):
        tr.add(linalg, attr, f"linalg.{attr}")
    for attr in ("build_code", "structural_recovery_deficiency", "encode", "global_symbols",
                 "strip_parities", "complete_mbcr_vector", "recover_rack_globals"):
        tr.add(codec, attr, f"codec.{attr}")
    tr.add(codec, "collect", "codec.collect", observe=_collect_kind)
    tr.add(codec, "repair", "codec.repair", observe=_repair_ledger)
    tr.add(harness, "load", "harness.load")
    tr.add(harness, "save", "harness.save")
    tr.add(cli, "main", "cli.main")
    tr.add(tradeoff, "min_gamma_given_alpha", "tradeoff.min_gamma_given_alpha")
    tr.add(tradeoff, "feasible", "tradeoff.feasible", span=False, observe=_feasible)
    tr.add(tradeoff, "max_file_size", "tradeoff.max_file_size", span=False)
    tr.add(tradeoff, "compositions", "tradeoff.compositions", span=False)
    tr.add(ifg, "worst_case_mincut", "ifg.worst_case_mincut")
    tr.add(ifg, "build", "ifg.build", observe=_graph_size)
    tr.add(ifg, "max_flow", "ifg.max_flow")
    tr.add(ifg, "compositions", "ifg.compositions", span=False)


def latency(samples) -> tuple[float, float, float, int]:
    """``(p50 ms, tail ms, tail percentile, samples)``: the tail is the highest
    percentile with at least ten samples beyond it (the median when none has)."""
    n = len(samples)
    if not n:
        return 0.0, 0.0, 0.0, 0
    ordered = sorted(samples)
    p50 = statistics.median(ordered) * 1e3
    pct = next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), None)
    if pct is None:
        return p50, p50, 50.0, n
    rank = min(n - 1, -int(-pct * n // 100) - 1)  # nearest rank
    return p50, ordered[rank] * 1e3, pct, n


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(tr, snap, plain, traced) -> dict:
    """Per-layer metrics of a traced run; ``plain`` and ``traced`` are the two loop halves."""
    total = tr.stats
    stats, extra, first = tr.since(snap)
    cycles = traced.cycles
    spans = tr.spans
    zero = (0, 0.0, 0.0)

    def calls(name, s=stats):
        return s.get(name, zero)[0]

    def ms(name, s=stats):
        return s.get(name, zero)[1] * 1e3

    m = {
        "traced_cycles": cycles,
        "tracing_overhead_pct": 100 * (_ratio(traced.op_seconds(), cycles)
                                       / _ratio(plain.op_seconds(), plain.cycles) - 1),
        "spans_recorded": len(spans),
        "reference_kernel_us": statistics.median(traced.bursts) * 1e6 if traced.bursts else 0.0,
    }
    for name in ("field.vec_mul", "field.vec_addsub", "field.inv", "field.vec_dot", "linalg.rank",
                 "linalg.solve", "linalg.solve_full_rank", "linalg.mat_vec", "linalg.vec_mat"):
        m[f"{name}.calls_per_cycle"] = _ratio(calls(name), cycles)
        m[f"{name}.ms_per_cycle"] = _ratio(ms(name), cycles)
    m["linalg.rank.mean_rows"] = _ratio(tr.extra["rank.rows"], calls("linalg.rank", total))
    m["linalg.rank.mean_cols"] = _ratio(tr.extra["rank.cols"], calls("linalg.rank", total))

    builds = calls("codec.build_code", total)
    rank_in_build = sum(1 for i, s in enumerate(spans)
                        if s[0] == "linalg.rank" and tr.ancestor_named(i, "codec.build_code"))
    m["codec.build_code.builds"] = builds
    m["codec.build_code.ms_per_build"] = _ratio(ms("codec.build_code", total), builds)
    m["codec.build_code.attempts_per_build"] = _ratio(calls("linalg.check_U_property", total), builds)
    m["codec.build_code.rank_calls_per_build"] = _ratio(rank_in_build, builds)
    m["codec.structural_recovery_deficiency.ms_per_build"] = _ratio(
        ms("codec.structural_recovery_deficiency", total), builds)

    for name in ("codec.encode", "codec.global_symbols", "codec.repair"):
        m[f"{name}.ms_per_call"] = _ratio(ms(name), calls(name))
    for kind in ("global", "mixed"):
        m[f"codec.collect.ms_per_call_{kind}"] = _ratio(
            extra.get(f"collect.{kind}.s", 0.0) * 1e3, extra.get(f"collect.{kind}.calls", 0))
    m["codec.collect.reused_share"] = _ratio(traced.counts["collect_reused"], len(traced.seconds("collect", scaled=False)))
    repairs = calls("codec.repair")
    for name in ("strip_parities", "complete_mbcr_vector", "recover_rack_globals"):
        m[f"codec.{name}.ms_per_repair"] = _ratio(ms(f"codec.{name}"), repairs)
    for key in ("round1_symbols", "round2_symbols", "intra_rack_reads"):
        m[f"repair.{key}_per_repair"] = _ratio(extra.get(f"repair.{key}", 0.0), repairs)

    for op in OPS:
        p50, tail, pct, n = latency(plain.seconds(op, scaled=True))
        m[f"op.{op}.ms_p50"], m[f"op.{op}.ms_tail"] = p50, tail
        m[f"op.{op}.tail_pct"], m[f"op.{op}.samples"] = pct, n

    m["harness.load.self_ms_per_call"] = _ratio(stats.get("harness.load", zero)[2] * 1e3,
                                                calls("harness.load"))
    m["harness.save.ms_per_call"] = _ratio(ms("harness.save"), calls("harness.save"))
    m["harness.bytes_read_per_payload_byte"] = _ratio(traced.counts["bytes_read"],
                                                      traced.counts["payload_read"])
    m["harness.bytes_written_per_payload_byte"] = _ratio(traced.counts["bytes_written"],
                                                         traced.counts["payload_written"])

    cli_self = defaultdict(list)
    build_in_cli = 0.0
    for i in range(first, len(spans)):
        name, start, end, _, op, own = spans[i]
        if name == "cli.main":
            cli_self[tr.op_names[op]].append(own)
        elif name == "codec.build_code" and tr.ancestor_named(i, "cli.main"):
            build_in_cli += end - start
    for cmd in ("encode", "collect", "repair"):
        samples = cli_self[f"cli_{cmd}"]
        m[f"cli.main.self_ms_{cmd}"] = _ratio(sum(samples) * 1e3, len(samples))
    m["cli.build_code_share"] = _ratio(build_in_cli * 1e3, ms("cli.main"))

    lp = defaultdict(list)
    for i in range(first, len(spans)):
        name, start, end, _, op, _own = spans[i]
        if name == "tradeoff.min_gamma_given_alpha":
            lp[tr.op_names[op].rsplit(":", 1)[0]].append(end - start)  # drop the alpha stratum
    for tup in ORACLE_TUPLES:
        samples = lp[f"curve_point:{tuple_label(tup)}"]
        m[f"tradeoff.min_gamma.ms_{tuple_label(tup)}"] = _ratio(sum(samples) * 1e3, len(samples))
    solves = calls("tradeoff.min_gamma_given_alpha")
    m["tradeoff.min_gamma.calls_per_cycle"] = _ratio(solves, cycles)
    m["tradeoff.feasible.calls_per_solve"] = _ratio(calls("tradeoff.feasible"), solves)
    m["tradeoff.vertex_feasible_share"] = _ratio(extra.get("feasible.true", 0.0), calls("tradeoff.feasible"))
    m["tradeoff.max_file_size.ms_per_call"] = _ratio(ms("tradeoff.max_file_size"),
                                                     calls("tradeoff.max_file_size"))
    m["tradeoff.compositions.calls_per_cycle"] = _ratio(calls("tradeoff.compositions"), cycles)

    checks = calls("ifg.worst_case_mincut")
    graphs = calls("ifg.build")
    m["ifg.worst_case_mincut.ms_per_call"] = _ratio(ms("ifg.worst_case_mincut"), checks)
    m["ifg.build.ms_per_check"] = _ratio(ms("ifg.build"), checks)
    m["ifg.max_flow.ms_per_check"] = _ratio(ms("ifg.max_flow"), checks)
    m["ifg.graph.vertices_mean"] = _ratio(extra.get("ifg.vertices", 0.0), graphs)
    m["ifg.graph.edges_mean"] = _ratio(extra.get("ifg.edges", 0.0), graphs)
    m["ifg.scenarios_per_mincut"] = _ratio(graphs, checks)
    m["ifg.compositions.calls_per_cycle"] = _ratio(calls("ifg.compositions"), cycles)
    return m


def map_problems(tr, snap, rules: dict) -> list[str]:
    """Check one workload's entry of the layer map against the trace."""
    problems = []
    for layer in rules.get("bypassed", []):
        hit = sorted(n for n, st in tr.stats.items() if n.split(".")[0] == layer and st[0])
        if hit:
            problems.append(f"bypassed layer {layer} was called: {', '.join(hit)}")
    window = tr.since(snap)[0]
    for name in rules.get("setup_only", []):
        if window.get(name, (0,))[0]:
            problems.append(f"{name} ran in the loop, expected in set-up only")
    for parent, child in rules.get("largest_under", {}).items():
        totals = defaultdict(float)
        wrappers = set()
        for i, s in enumerate(tr.spans):
            if not tr.ancestor_named(i, parent):
                continue
            totals[s[0]] += s[2] - s[1]
            if s[0] == child:
                up = s[3]
                while tr.spans[up][0] != parent:
                    wrappers.add(tr.spans[up][0])
                    up = tr.spans[up][3]
        rivals = {n: t for n, t in totals.items() if n != child and n not in wrappers}
        top = max(rivals, key=rivals.get, default=None)
        if not totals[child] or (top and rivals[top] >= totals[child]):
            problems.append(f"{child} is not the largest span under {parent} (largest: {top})")
    return problems
