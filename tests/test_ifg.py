import random
from fractions import Fraction as Fr

import pytest

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
