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
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .params import CodeParams, RepairPatternError, RepairStage
from .tradeoff import Composition, compositions

SOURCE = ("S",)
SINK = ("T",)


class CollectorError(ValueError):
    pass


class UnboundedFlowError(RuntimeError):
    pass


@dataclass
class FlowGraph:
    """Capacitated DAG; capacity ``None`` stands for infinity."""

    edges: list[tuple[tuple, tuple, Fraction | None]]
    source: tuple = SOURCE
    sink: tuple = SINK

    def vertices(self) -> set[tuple]:
        verts = {self.source, self.sink}
        for u, v, _ in self.edges:
            verts.add(u)
            verts.add(v)
        return verts

    def to_dot(self) -> str:
        def name(v: tuple) -> str:
            kind = v[0]
            if kind in ("S", "T"):
                return kind
            if kind == "out":
                return f"Out_{v[1]}_{v[2]}_{v[3]}"
            return f"{kind.capitalize()}_{v[1]}_{v[2]}"

        lines = ["digraph ifg {"]
        for u, v, cap in self.edges:
            label = "inf" if cap is None else str(cap)
            lines.append(f'  {name(u)} -> {name(v)} [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def build(p: CodeParams, alpha, beta1, beta2, history, collector) -> FlowGraph:
    """Flow graph for a failure history and a collector of k live nodes.

    Collector entries are ``(rack, node)`` pairs, or ``(rack, node, stage)``
    triples which must name the node's latest incarnation (stage 0 is the
    original); anything stale is rejected.
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
    for entry in collector:
        if len(entry) == 2:
            h, i = entry
            s = incarnation.get(h)
        elif len(entry) == 3:
            h, i, s = entry
        else:
            raise CollectorError(f"collector entry {entry!r} not (rack, node[, stage])")
        if not (1 <= h <= p.r and 1 <= i <= npr):
            raise CollectorError(f"collector node ({h}, {i}) out of range")
        if s != incarnation[h]:
            raise CollectorError(
                f"collector references stale incarnation {s} of node ({h}, {i}); "
                f"latest is {incarnation[h]}"
            )
        if (h, i) in seen:
            raise CollectorError(f"duplicate collector node ({h}, {i})")
        seen.add((h, i))
        edges.append((out(h, i, s), SINK, None))
    if len(seen) != p.k:
        raise CollectorError(f"collector must name {p.k} nodes, got {len(seen)}")
    return FlowGraph(edges=edges)


def max_flow(g: FlowGraph) -> Fraction:
    """Exact S-T max-flow.

    Capacities are scaled by their common denominator and infinity is a
    sentinel one above the finite total, so the value is computed on
    integers; ``UnboundedFlowError`` is raised when the sentinel is reached
    (the sink is infinity-connected to the source).
    """
    denom = 1
    for _, _, cap in g.edges:
        if cap is not None:
            denom = math.lcm(denom, cap.denominator)
    finite_total = sum(int(cap * denom) for _, _, cap in g.edges if cap is not None)
    sentinel = finite_total + 1

    verts = {g.source: 0, g.sink: 1}
    for u, v, _ in g.edges:
        for w in (u, v):
            if w not in verts:
                verts[w] = len(verts)
    n = len(verts)
    adj: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    cap: list[int] = []

    def add_edge(u: int, v: int, c: int) -> None:
        adj[u].append(len(to)); to.append(v); cap.append(c)
        adj[v].append(len(to)); to.append(u); cap.append(0)

    for u, v, c in g.edges:
        add_edge(verts[u], verts[v], sentinel if c is None else int(c * denom))

    src, dst = verts[g.source], verts[g.sink]
    flow = 0
    while True:
        level = [-1] * n
        level[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for eid in adj[u]:
                if cap[eid] > 0 and level[to[eid]] < 0:
                    level[to[eid]] = level[u] + 1
                    queue.append(to[eid])
        if level[dst] < 0:
            break
        it = [0] * n

        def dfs(u: int, pushed: int) -> int:
            if u == dst:
                return pushed
            while it[u] < len(adj[u]):
                eid = adj[u][it[u]]
                v = to[eid]
                if cap[eid] > 0 and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, cap[eid]))
                    if got:
                        cap[eid] -= got
                        cap[eid ^ 1] += got
                        return got
                it[u] += 1
            return 0

        while True:
            pushed = dfs(src, sentinel)
            if not pushed:
                break
            flow += pushed
            if flow >= sentinel:
                raise UnboundedFlowError("sink is infinity-connected to the source")
    if flow >= sentinel:
        raise UnboundedFlowError("sink is infinity-connected to the source")
    return Fraction(flow, denom)


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
    random_trials: int = 8,
    seed: int = 0,
) -> WorstCase:
    """Minimum max-flow over the canonical scenario family plus random probes.

    One canonical scenario per composition of m realizes the bound's
    right-hand side, so the minimum over the family equals the analytic
    maximum file size whenever both are implemented correctly.
    """
    if max_stages is None:
        max_stages = p.m
    scenarios = [
        canonical_scenario(p, u)
        for u in compositions(p.m, p.f)
        if len(u) <= max_stages
    ]
    rng = random.Random(seed)
    scenarios += [random_scenario(p, rng, max_stages) for _ in range(random_trials)]
    best: WorstCase | None = None
    for sc in scenarios:
        value = max_flow(build(p, alpha, beta1, beta2, sc.history, sc.collector))
        if best is None or value < best.value:
            best = WorstCase(value, sc)
    assert best is not None
    return best
