import oracles
import pytest
from hypothesis import given, settings
from oracles import brute_min_intermediate, brute_min_raw_broadcasts
from test_coverage import small_instances

from flexshuffle.coverage import uncovered_count
from flexshuffle.errors import BudgetExceeded, Infeasible, Outage
from flexshuffle.instance import (
    FunctionSet,
    Instance,
    Placement,
    demo_instance,
    generate_functions,
    generate_placement,
)
from flexshuffle.shuffle import (
    greedy_raw_broadcasts,
    min_intermediate_broadcasts,
    min_raw_broadcasts,
    missing_messages,
)


def tiny_instance(seed, m=7, n=5, K=3, d=2, p=0.3):
    return Instance(
        placement=generate_placement(m, n, p, seed),
        workload=generate_functions(m, K, d, seed + 1),
    )


def solvable(inst):
    return not missing_messages(inst) and inst.k <= inst.n


def outage_instance():
    # message 1 is used by the function but nobody holds it
    return Instance(
        placement=Placement.from_sets(m=3, n=2, side_info=(frozenset({0}), frozenset({0, 2}))),
        workload=FunctionSet(functions=((0, 1),), d=1),
    )


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_missing_messages_matches_set_union(inst):
    assert missing_messages(inst) == oracles.missing_messages(inst)


def test_demo_exact_is_two():
    plan = min_raw_broadcasts(demo_instance())
    assert plan.size == 2
    assert plan.broadcast_messages == (1, 3)
    assert len(plan.assignment) == 3


def test_demo_no_single_broadcast_works():
    # exhaustively confirm optimality at size 1 via the independent oracle
    assert brute_min_raw_broadcasts(demo_instance(), max_size=1) is None
    assert brute_min_raw_broadcasts(demo_instance(), max_size=2) == (1, 3)


def test_exact_zero_when_covered():
    inst = Instance(
        placement=generate_placement(8, 6, 1.0, seed=0),
        workload=generate_functions(8, 4, 2, seed=1),
    )
    plan = min_raw_broadcasts(inst)
    assert plan.size == 0
    assert plan.broadcast_messages == ()


def test_exact_outage():
    with pytest.raises(Outage) as err:
        min_raw_broadcasts(outage_instance())
    assert err.value.missing == (1,)


def test_exact_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        min_raw_broadcasts(demo_instance(), budget=1)


def test_exact_infeasible_when_more_functions_than_nodes():
    inst = Instance(
        placement=Placement.from_sets(m=6, n=2, side_info=(frozenset(range(6)),) * 2),
        workload=FunctionSet(functions=((0, 1), (2, 3), (4, 5)), d=1),
    )
    with pytest.raises(Infeasible):
        min_raw_broadcasts(inst)


def test_senders_hold_their_message():
    for seed in range(40):
        inst = tiny_instance(seed)
        if not solvable(inst):
            continue
        for plan in (min_raw_broadcasts(inst), greedy_raw_broadcasts(inst)):
            for j, sender in plan.senders:
                assert j in inst.placement.side_info[sender]


def test_assignment_valid_under_augmented_side_info():
    for seed in range(40):
        inst = tiny_instance(seed)
        if not solvable(inst):
            continue
        plan = min_raw_broadcasts(inst)
        extra = set(plan.broadcast_messages)
        assert len(plan.assignment) == inst.k
        for k, i in plan.assignment.pairs:
            for j in inst.workload.functions[k]:
                assert j in inst.placement.side_info[i] or j in extra


def test_greedy_demo():
    plan = greedy_raw_broadcasts(demo_instance())
    assert plan.size in (2, 3)


def test_greedy_zero_when_covered():
    inst = Instance(
        placement=generate_placement(8, 6, 1.0, seed=0),
        workload=generate_functions(8, 4, 2, seed=1),
    )
    assert greedy_raw_broadcasts(inst).size == 0


def test_exact_matches_subset_oracle():
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        inst = tiny_instance(seed, m=8, n=5, K=3, d=2, p=0.25)
        if not solvable(inst):
            continue
        oracle = brute_min_raw_broadcasts(inst, max_size=4)
        if oracle is None:
            continue
        assert min_raw_broadcasts(inst).size == len(oracle)
        checked += 1


def test_greedy_bounds():
    for seed in range(60):
        inst = tiny_instance(seed, m=8, n=6, K=4, d=2, p=0.3)
        if not solvable(inst):
            continue
        exact = min_raw_broadcasts(inst, budget=8)
        greedy = greedy_raw_broadcasts(inst)
        assert exact.size <= greedy.size
        # never more than the distinct messages the uncovered functions demand
        from flexshuffle.coverage import build_coverage_graph, max_matching

        result = max_matching(build_coverage_graph(inst))
        unmatched = set(range(inst.k)) - {k for k, _ in result.assignment.pairs}
        demanded = {j for k in unmatched for j in inst.workload.functions[k]}
        assert greedy.size <= len(demanded)


def test_raw_zero_iff_no_uncovered():
    for seed in range(40):
        inst = tiny_instance(seed)
        if not solvable(inst):
            continue
        plan = min_raw_broadcasts(inst)
        assert (plan.size == 0) == (uncovered_count(inst) == 0)


def test_demo_intermediate_is_three():
    plan = min_intermediate_broadcasts(demo_instance())
    assert plan.total == 3
    assert plan.cost_per_function == (1, 1, 1)
    assert len(plan.assignment) == 3


def test_intermediate_zero_at_p1():
    inst = Instance(
        placement=generate_placement(8, 6, 1.0, seed=0),
        workload=generate_functions(8, 4, 2, seed=1),
    )
    assert min_intermediate_broadcasts(inst).total == 0


def test_intermediate_infeasible_when_k_exceeds_n():
    inst = Instance(
        placement=Placement.from_sets(m=6, n=2, side_info=(frozenset(range(6)),) * 2),
        workload=FunctionSet(functions=((0, 1), (2, 3), (4, 5)), d=1),
    )
    with pytest.raises(Infeasible):
        min_intermediate_broadcasts(inst)


def test_intermediate_outage():
    with pytest.raises(Outage):
        min_intermediate_broadcasts(outage_instance())


def test_intermediate_matches_permutation_oracle():
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        inst = tiny_instance(seed, m=8, n=5, K=3, d=2, p=0.35)
        if not solvable(inst):
            continue
        assert min_intermediate_broadcasts(inst).total == brute_min_intermediate(inst)
        checked += 1


def test_intermediate_at_least_raw():
    # a raw broadcast can serve several nodes, an intermediate value cannot
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        inst = tiny_instance(seed, m=8, n=5, K=3, d=2, p=0.3)
        if not solvable(inst):
            continue
        raw = min_raw_broadcasts(inst, budget=8).size
        inter = min_intermediate_broadcasts(inst).total
        assert inter >= raw
        checked += 1
    assert min_intermediate_broadcasts(demo_instance()).total >= min_raw_broadcasts(
        demo_instance()
    ).size


def test_adding_side_info_never_hurts():
    for seed in range(25):
        inst = tiny_instance(seed, m=6, n=5, K=3, d=2, p=0.35)
        if not solvable(inst):
            continue
        raw = min_raw_broadcasts(inst, budget=8).size
        inter = min_intermediate_broadcasts(inst).total
        for i in range(inst.n):
            for j in range(inst.m):
                if j in inst.placement.side_info[i]:
                    continue
                side = list(inst.placement.side_info)
                side[i] = side[i] | {j}
                bigger = Instance(
                    placement=Placement.from_sets(m=inst.m, n=inst.n, side_info=tuple(side)),
                    workload=inst.workload,
                )
                assert min_raw_broadcasts(bigger, budget=8).size <= raw
                assert min_intermediate_broadcasts(bigger).total <= inter
