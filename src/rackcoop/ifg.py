"""Information flow graphs for failure histories, and their exact max-flow.

The graph family models a rack-aware storage system: every node has an
``out`` vertex fed by the source with capacity alpha; non-relayer nodes
feed their rack's relayer through infinite-capacity edges.  A repair stage
rebuilds e/f nodes in each of f racks: per failed rack a ``virt`` vertex
collects beta1 edges from d helper relayers plus alpha edges from the
rack's survivors, an infinite edge feeds the rack's ``mid`` vertex, the
mids of the stage exchange beta2 edges, and the mid writes the replacement
nodes with capacity alpha.  A data collector attaches to k live nodes with
infinite capacity.  The S-T max-flow of such a graph upper-bounds the file
size the system can support, which makes the minimum over a scenario family
an independent oracle for the composition-indexed bound in
:mod:`rackcoop.tradeoff`.

:func:`max_flow` is an integer Edmonds-Karp kernel; :func:`worst_case_mincut`
scales ``(alpha, beta1, beta2)`` once per scan, so every graph it solves has
integer capacities.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .params import CodeParams, RepairPatternError, RepairStage
from .tradeoff import Composition, compositions

SOURCE = ("S",)
SINK = ("T",)
# Random scenarios that worst_case_mincut adds to the canonical family.
RANDOM_TRIALS = 8


class CollectorError(ValueError):
    pass


class UnboundedFlowError(RuntimeError):
    pass


@dataclass
class FlowGraph:
    """Capacitated DAG from ``SOURCE`` to ``SINK``; capacity ``None`` stands
    for infinity."""

    edges: list[tuple[tuple, tuple, Fraction | None]]

    def vertices(self) -> set[tuple]:
        verts = {SOURCE, SINK}
        for u, v, _ in self.edges:
            verts.add(u)
            verts.add(v)
        return verts


def build(p: CodeParams, alpha, beta1, beta2, history, collector) -> FlowGraph:
    """Flow graph for a failure history and a collector of k live nodes.

    Collector entries are ``(rack, node)`` pairs; each names the node's
    latest incarnation, the one the last stage that repaired its rack wrote
    (the original when none did).
    """
    alpha, beta1, beta2 = Fraction(alpha), Fraction(beta1), Fraction(beta2)
    if min(alpha, beta1, beta2) < 0:
        raise ValueError("capacities must be nonnegative")
    stages = tuple(history)
    for s, stage in enumerate(stages, start=1):
        try:
            stage.validate(p)
        except RepairPatternError as exc:
            raise RepairPatternError(f"stage {s}: {exc}") from None
    npr = p.nodes_per_rack

    edges: list[tuple[tuple, tuple, Fraction | None]] = []
    incarnation = {h: 0 for h in range(1, p.r + 1)}

    def out(h: int, i: int, s: int) -> tuple:
        return ("out", h, i, s)

    for h in range(1, p.r + 1):
        for i in range(1, npr + 1):
            edges.append((SOURCE, out(h, i, 0), alpha))
        for i in range(2, npr + 1):
            edges.append((out(h, i, 0), out(h, 1, 0), None))

    for s, stage in enumerate(stages, start=1):
        group = stage.racks
        for rack, failed_idx in stage.failed:
            prev = incarnation[rack]
            virt = ("virt", rack, s)
            mid = ("mid", rack, s)
            survivors = [i for i in range(1, npr + 1) if i not in failed_idx]
            for i in survivors:
                edges.append((out(rack, i, prev), out(rack, i, s), None))
                edges.append((out(rack, i, prev), virt, alpha))
            for helper in stage.helpers:
                edges.append((out(helper, 1, incarnation[helper]), virt, beta1))
            edges.append((virt, mid, None))
            for i in failed_idx:
                edges.append((mid, out(rack, i, s), alpha))
            for i in range(2, npr + 1):
                edges.append((out(rack, i, s), out(rack, 1, s), None))
        for rack in group:
            for other in group:
                if other != rack:
                    edges.append((("virt", rack, s), ("mid", other, s), beta2))
        for rack in group:
            incarnation[rack] = s

    seen = set()
    for h, i in collector:
        if not (1 <= h <= p.r and 1 <= i <= npr):
            raise CollectorError(f"collector node ({h}, {i}) out of range")
        if (h, i) in seen:
            raise CollectorError(f"duplicate collector node ({h}, {i})")
        seen.add((h, i))
        edges.append((out(h, i, incarnation[h]), SINK, None))
    if len(seen) != p.k:
        raise CollectorError(f"collector must name {p.k} nodes, got {len(seen)}")
    return FlowGraph(edges=edges)


def max_flow(g: FlowGraph) -> Fraction:
    """Exact S-T max-flow by BFS shortest augmenting paths (Edmonds-Karp).

    Capacities (``Fraction``, int, or ``None`` for infinity) are scaled by
    their common denominator, once per graph, and infinity is a sentinel one
    above the finite total, so the kernel runs on plain integers.
    ``UnboundedFlowError`` is raised when the sentinel is reached (the sink
    is infinity-connected to the source).  Integral capacities, as
    :func:`worst_case_mincut` passes, need no rational arithmetic at all.
    """
    denom = math.lcm(*{c.denominator for _, _, c in g.edges if c is not None})
    scaled = [None if c is None else c.numerator * (denom // c.denominator) for _, _, c in g.edges]
    sentinel = sum(c for c in scaled if c is not None) + 1

    # Arc 2i is edge i and arc 2i+1 its residual twin, so arc ^ 1 reverses.
    index = {SOURCE: 0, SINK: 1}
    to: list[int] = []
    cap: list[int] = []
    for (u, v, _), c in zip(g.edges, scaled):
        to += (index.setdefault(v, len(index)), index.setdefault(u, len(index)))
        cap += (sentinel if c is None else c, 0)
    adj: list[list[int]] = [[] for _ in index]
    for arc in range(len(to)):
        adj[to[arc ^ 1]].append(arc)

    flow = 0
    while True:
        # BFS from the source (vertex 0); parent[v] is the arc that first
        # reached v, -1 while unseen.  The sink is vertex 1.
        parent = [-1] * len(adj)
        parent[0] = -2
        queue = [0]
        for u in queue:
            for arc in adj[u]:
                v = to[arc]
                if cap[arc] > 0 and parent[v] == -1:
                    parent[v] = arc
                    queue.append(v)
            if parent[1] != -1:
                break
        if parent[1] == -1:
            return Fraction(flow, denom)
        path = []
        v = 1
        while v:
            path.append(parent[v])
            v = to[parent[v] ^ 1]
        pushed = min(cap[arc] for arc in path)
        for arc in path:
            cap[arc] -= pushed
            cap[arc ^ 1] += pushed
        flow += pushed
        if flow >= sentinel:
            raise UnboundedFlowError("sink is infinity-connected to the source")


class Scenario(NamedTuple):
    history: tuple[RepairStage, ...]
    collector: tuple[tuple[int, int], ...]
    tag: str


def canonical_scenario(p: CodeParams, u: Composition) -> Scenario:
    """The history/collector pair whose min-cut realizes the bound for ``u``.

    Stage i repairs the next u_i collected racks (plus padding racks from
    the tail so the group has f members), failing the relayer and the
    following e/f - 1 nodes of each; helpers are all previously collected
    racks plus fresh ones.  The collector takes racks 1..m whole and fills
    up with non-relayer nodes of rack m+1.  Failing relayers matters: a
    surviving relayer chains its old incarnation to the collector through
    infinite edges and the rack then contributes strictly more than the
    bound's per-rack term.
    """
    npr = p.nodes_per_rack
    failed_idx = tuple(range(1, p.failures_per_rack + 1))
    stages = []
    collected = 0
    for part in u:
        group = list(range(collected + 1, collected + part + 1))
        padding = list(range(p.r - (p.f - part) + 1, p.r + 1))
        group_all = group + padding
        helpers = list(range(1, collected + 1))
        cand = collected + part + 1
        while len(helpers) < p.d:
            if cand not in group_all:
                helpers.append(cand)
            cand += 1
        stages.append(RepairStage.make(
            {rack: failed_idx for rack in group_all}, helpers))
        collected += part
    collector = [(h, i) for h in range(1, p.m + 1) for i in range(1, npr + 1)]
    extra = p.k - p.m * npr
    collector += [(p.m + 1, i) for i in range(2, extra + 2)]
    return Scenario(tuple(stages), tuple(collector), tag=f"composition {list(u)}")


def random_scenario(p: CodeParams, rng: random.Random, max_stages: int) -> Scenario:
    npr = p.nodes_per_rack
    n_stages = rng.randint(1, max_stages)
    stages = [RepairStage.random(p, rng) for _ in range(n_stages)]
    # Collector pruning: a relayer alone forces the whole rack into the cut,
    # so collectors take whole racks first and top up with non-relayers.
    racks = list(range(1, p.r + 1))
    rng.shuffle(racks)
    collector: list[tuple[int, int]] = []
    remaining = p.k
    idx = 0
    while remaining >= npr:
        collector += [(racks[idx], i) for i in range(1, npr + 1)]
        remaining -= npr
        idx += 1
    if remaining:
        collector += [(racks[idx], i) for i in range(2, remaining + 2)]
    return Scenario(tuple(stages), tuple(collector), tag="random")


class WorstCase(NamedTuple):
    value: Fraction
    scenario: Scenario


def worst_case_mincut(
    p: CodeParams,
    alpha,
    beta1,
    beta2,
    max_stages: int | None = None,
    *,
    seed: int = 0,
) -> WorstCase:
    """Minimum max-flow over the canonical scenario family plus
    ``RANDOM_TRIALS`` random probes drawn from ``random.Random(seed)``.

    One canonical scenario per composition of m realizes the bound's
    right-hand side, so the minimum over the family equals the analytic
    maximum file size whenever both are implemented correctly.

    Max-flow is homogeneous in the capacities, so every graph of the scan is
    built on ``(alpha, beta1, beta2)`` scaled once by the lcm D of their
    denominators, and the minimum is divided by D: exact, with integer
    capacities throughout.  The witness is the first scenario attaining it.
    """
    caps = [Fraction(x) for x in (alpha, beta1, beta2)]
    scale = math.lcm(*(c.denominator for c in caps))
    caps = [c.numerator * (scale // c.denominator) for c in caps]
    if max_stages is None:
        max_stages = p.m
    scenarios = [
        canonical_scenario(p, u)
        for u in compositions(p.m, p.f)
        if len(u) <= max_stages
    ]
    rng = random.Random(seed)
    scenarios += [random_scenario(p, rng, max_stages) for _ in range(RANDOM_TRIALS)]
    best: WorstCase | None = None
    for sc in scenarios:
        value = max_flow(build(p, *caps, sc.history, sc.collector))
        if best is None or value < best.value:
            best = WorstCase(value, sc)
    assert best is not None
    return WorstCase(best.value / scale, best.scenario)
