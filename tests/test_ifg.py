import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_min_cut
from rackcoop import ifg, params, tradeoff
from rackcoop.ifg import (
    CollectorError,
    FlowGraph,
    UnboundedFlowError,
    build,
    canonical_scenario,
    max_flow,
    worst_case_mincut,
)
from rackcoop.params import RepairPatternError, RepairStage


@pytest.fixture(scope="module")
def p():
    return params.validate(8, 4, 2, 4, 2, 2)


def two_stage_history():
    return [
        RepairStage.make({1: (1,), 2: (1,)}, (3, 4)),
        RepairStage.make({3: (1,), 4: (1,)}, (1, 2)),
    ]


# ---------------------------------------------------------------------------
# plain max-flow
# ---------------------------------------------------------------------------

def test_max_flow_single_path():
    g = FlowGraph(edges=[(("S",), ("v",), Fr(5)), (("v",), ("T",), None)])
    assert max_flow(g) == 5


def test_max_flow_scales_linearly():
    edges = [
        (("S",), ("a",), Fr(3)), (("S",), ("b",), Fr(2)),
        (("a",), ("T",), Fr(2)), (("b",), ("T",), Fr(2)),
        (("a",), ("b",), Fr(1)),
    ]
    v1 = max_flow(FlowGraph(edges=edges))
    doubled = [(u, v, None if c is None else 2 * c) for u, v, c in edges]
    assert max_flow(FlowGraph(edges=doubled)) == 2 * v1


def test_max_flow_rational_capacities_exact():
    g = FlowGraph(edges=[(("S",), ("v",), Fr(7, 3)), (("v",), ("T",), Fr(5, 2))])
    assert max_flow(g) == Fr(7, 3)


def test_max_flow_integral_on_integral_input():
    rng = random.Random(7)
    nodes = ["a", "b", "c", "d"]
    edges = [(("S",), (x,), Fr(rng.randint(0, 9))) for x in nodes]
    edges += [((x,), ("T",), Fr(rng.randint(0, 9))) for x in nodes]
    edges += [((x,), (y,), Fr(rng.randint(0, 5))) for x in nodes for y in nodes if x < y]
    v = max_flow(FlowGraph(edges=edges))
    assert v.denominator == 1


def test_max_flow_unbounded():
    g = FlowGraph(edges=[(("S",), ("v",), None), (("v",), ("T",), None)])
    with pytest.raises(UnboundedFlowError):
        max_flow(g)


def test_max_flow_mixes_int_and_fraction_capacities():
    g = FlowGraph(edges=[(("S",), ("v",), 3), (("v",), ("T",), Fr(5, 2)),
                         (("S",), ("T",), 0)])
    assert max_flow(g) == Fr(5, 2)


def test_max_flow_cancels_flow_on_a_shortest_path():
    """S-a-b-T is the only shortest path, and the second unit of flow must
    undo its a-b leg: S-x-y-b, back over b-a, then a-p-q-T."""
    e = [("S", "a"), ("a", "b"), ("b", "T"), ("S", "x"), ("x", "y"), ("y", "b"),
         ("a", "p"), ("p", "q"), ("q", "T")]
    g = FlowGraph(edges=[((u,), (v,), Fr(1)) for u, v in e])
    assert max_flow(g) == 2


def _infinite_path(edges):
    """Whether the sink is reachable from the source through infinite edges."""
    reached, frontier = {("S",)}, [("S",)]
    while frontier:
        u = frontier.pop()
        for a, b, c in edges:
            if a == u and c is None and b not in reached:
                reached.add(b)
                frontier.append(b)
    return ("T",) in reached


@st.composite
def _small_dags(draw):
    """Random DAGs on S, up to 8 inner vertices and T, in topological order:
    a chain through every vertex plus random forward edges, parallel ones
    included.  Capacities mix rationals, ints, zero and infinity (``None``)."""
    order = [("S",)] + [("v", i) for i in range(draw(st.integers(0, 8)))] + [("T",)]
    cap = st.one_of(
        st.fractions(0, 20, max_denominator=12),
        st.integers(0, 9),
        st.just(Fr(0)),
        st.none(),
    )
    pairs = [(i, j) for i in range(len(order)) for j in range(i + 1, len(order))]
    chosen = [(i, i + 1) for i in range(len(order) - 1)]
    chosen += draw(st.lists(st.sampled_from(pairs), max_size=24))
    return [(order[i], order[j], draw(cap)) for i, j in chosen]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_small_dags())
def test_max_flow_matches_brute_force_min_cut(edges):
    """Max-flow equals the minimum over every S-T cut, and is unbounded
    exactly when an all-infinite S-T path exists."""
    cut = reference_min_cut(edges)
    assert (cut is None) == _infinite_path(edges)
    if cut is None:
        with pytest.raises(UnboundedFlowError):
            max_flow(FlowGraph(edges=edges))
    else:
        assert max_flow(FlowGraph(edges=edges)) == cut


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_empty_history_whole_racks(p):
    g = build(p, 5, 2, 1, [], [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert max_flow(g) == 20


def test_empty_history_non_relayers(p):
    g = build(p, 5, 2, 1, [], [(1, 2), (2, 2), (3, 2), (4, 2)])
    assert max_flow(g) == 20


def test_stranded_relayer_costs_whole_rack(p):
    # relayer of rack 1 collected alone: rack 1 contributes (n/r)*alpha
    g = build(p, 5, 2, 1, [], [(1, 1), (2, 2), (3, 2), (4, 2)])
    assert max_flow(g) == 25


def test_two_stage_worked_example(p):
    g = build(p, 5, 2, 1, two_stage_history(), [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert max_flow(g) == 18


def test_single_stage_collector_avoids_repairs(p):
    h = [RepairStage.make({1: (1,), 2: (1,)}, (3, 4))]
    g = build(p, 5, 2, 1, h, [(3, 1), (3, 2), (4, 1), (4, 2)])
    assert max_flow(g) == 20


def test_graph_structure_counts(p):
    h = [RepairStage.make({1: (1,), 2: (1,)}, (3, 4))]
    g = build(p, 5, 2, 1, h, [(3, 1), (3, 2), (4, 1), (4, 2)])
    by_cap = {}
    for u, v, c in g.edges:
        by_cap[c] = by_cap.get(c, 0) + 1
    # 8 source edges + 2 virt survivor edges with capacity alpha,
    # 2 mid->out' edges with capacity alpha
    assert by_cap[Fr(5)] == 8 + 2 + 2
    # each of 2 virt vertices has d = 2 helper edges
    assert by_cap[Fr(2)] == 4
    # beta2 exchange: 2 ordered pairs
    assert by_cap[Fr(1)] == 2
    for u, v, c in g.edges:
        assert u != ifg.SINK and v != ifg.SOURCE


def test_collector_latest_incarnation_enforced(p):
    h = two_stage_history()
    ok = build(p, 5, 2, 1, h, [(1, 1), (1, 2), (2, 1), (2, 2)])
    assert max_flow(ok) == 18
    with pytest.raises(CollectorError):
        build(p, 5, 2, 1, h, [(1, 1), (1, 2), (2, 1), (9, 9)])
    with pytest.raises(CollectorError):
        build(p, 5, 2, 1, h, [(1, 1), (1, 2), (2, 1)])


def test_history_validation(p):
    with pytest.raises(RepairPatternError, match="stage 1"):
        build(p, 5, 2, 1, [RepairStage.make({1: (1,)}, (3, 4))], [])
    with pytest.raises(RepairPatternError, match="stage 1"):
        build(p, 5, 2, 1, [RepairStage.make({1: (1,), 2: (1,)}, (2, 4))], [])
    with pytest.raises(RepairPatternError, match="stage 1"):
        build(p, 5, 2, 1, [RepairStage.make({1: (1,), 2: (1,)}, (3,))], [])
    with pytest.raises(RepairPatternError, match="stage 1"):
        build(p, 5, 2, 1, [RepairStage.make({1: (1, 2), 2: (1,)}, (3, 4))], [])


# ---------------------------------------------------------------------------
# worst-case scan against the analytic bound
# ---------------------------------------------------------------------------

def test_worst_case_construction_point(p):
    wc = worst_case_mincut(p, 5, 2, 1)
    assert wc.value == 18
    assert wc.scenario.tag == "composition [2]"


def test_worst_case_msrcr_point(p):
    wc = worst_case_mincut(p, Fr(9, 2), Fr(9, 4), Fr(9, 4))
    assert wc.value == 18


def test_worst_case_detects_deficient_beta2(p):
    wc = worst_case_mincut(p, 5, 2, Fr(1, 2))
    assert wc.value == 17
    assert wc.value < 18


# worst_case_mincut's value and witness at the benchmark's oracle tuples,
# seed 0, recorded from the recursive Dinic kernel that ran on Fraction
# capacities graph by graph: at both corners (the same value and witness),
# and at the MBRCR corner with beta2 halved, where the bound fails and the
# witness is not the first scenario scanned.
PINNED_CORNERS = [
    ((8, 4, 2, 4, 2, 2), 18, "composition [2]", 17, "composition [1, 1]"),
    ((12, 6, 3, 6, 3, 3), 42, "composition [3]", 39, "composition [1, 1, 1]"),
    ((12, 8, 2, 4, 2, 2), 38, "composition [2]", 37, "composition [1, 1]"),
    ((10, 5, 3, 5, 2, 2), 33, "composition [2]", 32, "composition [1, 1]"),
    ((6, 4, 4, 6, 2, 2), 24, "composition [2, 2]", 22, "composition [1, 1, 1, 1]"),
    ((16, 8, 4, 8, 2, 2), 60, "composition [2, 2]", 58, "composition [1, 1, 1, 1]"),
    ((24, 12, 6, 12, 2, 2), 126, "composition [2, 2, 2]",
     123, "composition [1, 1, 1, 1, 1, 1]"),
]


@pytest.mark.parametrize("tup,value,tag,short_value,short_tag", PINNED_CORNERS)
def test_worst_case_pinned_at_corners(tup, value, tag, short_value, short_tag):
    p_ = params.validate(*tup)
    b = params.construction_params(p_).file_size
    msr, mbr = params.msrcr_point(p_, b), params.mbrcr_point(p_, b)
    for point in (msr, mbr):
        wc = worst_case_mincut(p_, point.alpha, point.beta1, point.beta2, seed=0)
        assert (wc.value, wc.scenario.tag) == (value, tag)
    wc = worst_case_mincut(p_, mbr.alpha, mbr.beta1, mbr.beta2 / 2, seed=0)
    assert (wc.value, wc.scenario.tag) == (short_value, short_tag)


def test_worst_case_large_denominators(p):
    """The once-per-scan scaling stays exact when the lcm of the
    denominators is about 10^12."""
    alpha = Fr(5_000_017, 1_000_003)
    beta1 = Fr(2_000_011, 1_000_003)
    beta2 = Fr(999_989, 999_983)
    wc = worst_case_mincut(p, alpha, beta1, beta2)
    assert wc.value == tradeoff.max_file_size(p, alpha, beta1, beta2).value
    assert wc.value.denominator > 1


def test_canonical_scenarios_fail_relayers(p):
    for u in tradeoff.compositions(p.m, p.f):
        sc = canonical_scenario(p, u)
        for stage in sc.history:
            for rack, idxs in stage.failed:
                assert 1 in idxs


def test_adding_rest_of_rack_never_increases_mincut(p):
    """Collector pruning: completing a partially collected rack that holds
    the relayer cannot increase the cut."""
    h = two_stage_history()
    partial = [(1, 1), (2, 1), (2, 2), (3, 2)]
    complete = [(1, 1), (1, 2), (2, 1), (2, 2)]
    v_partial = max_flow(build(p, 5, 2, 1, h, partial))
    v_complete = max_flow(build(p, 5, 2, 1, h, complete))
    assert v_complete <= v_partial


def test_clamped_and_relayer_min_presentations_agree(p):
    """The bound's min(0, .) form equals the per-relayer min(n*alpha/r, .)
    accounting for every composition on a value grid."""
    rng = random.Random(51)
    npr = Fr(p.nodes_per_rack)
    epf = Fr(p.failures_per_rack)
    for _ in range(40):
        alpha = Fr(rng.randint(1, 90), rng.randint(1, 6))
        b1 = Fr(rng.randint(0, 60), rng.randint(1, 6))
        b2 = Fr(rng.randint(0, 60), rng.randint(1, 6))
        for u in tradeoff.compositions(p.m, p.f):
            clamped = tradeoff.bound_rhs(p, alpha, b1, b2, u)
            alt = (p.k - p.m * npr) * alpha
            prefix = 0
            for part in u:
                alt += part * min(
                    npr * alpha,
                    (p.d - prefix) * b1 + (npr - epf) * alpha + (p.f - part) * b2,
                )
                prefix += part
            assert clamped == alt


def test_oracle_agrees_on_second_tuple():
    p2 = params.validate(10, 5, 3, 5, 2, 2)
    lay = params.construction_params(p2)
    bound = tradeoff.max_file_size(p2, lay.alpha, lay.beta1, lay.beta2).value
    oracle = worst_case_mincut(p2, lay.alpha, lay.beta1, lay.beta2).value
    assert bound == oracle == lay.file_size
