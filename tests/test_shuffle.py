import contextlib
import hashlib
import itertools
import time

import oracles
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_min_intermediate, brute_min_raw_broadcasts, side_sets
from test_coverage import small_instances

from flexshuffle.analysis import no_shuffle_threshold
from flexshuffle.coding import best_coded_plan
from flexshuffle.coverage import augment, base_matching, uncovered_count
from flexshuffle.errors import BudgetExceeded, Infeasible, Outage
from flexshuffle.instance import (
    FunctionSet,
    Instance,
    Placement,
    demo_instance,
    generate_functions,
    generate_placement,
    random_instance,
)
from flexshuffle.shuffle import (
    _gains,
    _grown,
    _hitting_sets,
    _input_tables,
    _reachable,
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


@settings(max_examples=150, deadline=None)
@given(small_instances(), st.data())
def test_gains_match_set_oracle(inst, data):
    # The node lists behind _gains, built up front, filled on first read,
    # or dropped and refilled after greedy's update for a broadcast, name
    # exactly the nodes whose every missing input the broadcast set holds.
    lacks, nodes, users = _input_tables(inst)
    messages = sorted(users)
    side = [set(s) for s in side_sets(inst.placement)]
    pick = st.lists(st.sampled_from(messages), unique=True, max_size=3) if messages else st.just([])
    for j in data.draw(pick):
        for k, s in users[j]:
            lacks[k, s] = False
            nodes[k] = [None, None, None]
        for held in side:
            held.add(j)
    for _ in range(3):
        combo = data.draw(pick)
        expected = {}
        for k, pair in enumerate(inst.workload.functions):
            missing = [set(pair) - held for held in side]
            got = [i for i, miss in enumerate(missing) if miss and miss <= set(combo)]
            if got:
                expected[k] = got
        assert dict(_gains(combo, lacks, nodes, users)) == expected


def test_demo_exact_is_two():
    plan = min_raw_broadcasts(demo_instance())
    assert plan.size == 2
    assert plan.broadcast_messages == (1, 3)
    assert len(plan.assignment.pairs) == 3


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


@pytest.mark.parametrize(
    "solver",
    [min_raw_broadcasts, greedy_raw_broadcasts, min_intermediate_broadcasts, best_coded_plan],
)
def test_outage_is_reported_before_k_exceeds_n(solver):
    # three functions on two nodes, and nobody holds message 5
    inst = Instance(
        placement=Placement.from_sets(m=6, n=2, side_info=(frozenset(range(5)),) * 2),
        workload=FunctionSet(functions=((0, 1), (2, 3), (4, 5)), d=1),
    )
    with pytest.raises(Outage) as err:
        solver(inst)
    assert err.value.missing == (5,)


def test_senders_hold_their_message():
    for seed in range(40):
        inst = tiny_instance(seed)
        if not solvable(inst):
            continue
        for plan in (min_raw_broadcasts(inst), greedy_raw_broadcasts(inst)):
            for j, sender in plan.senders:
                assert inst.placement.cells[sender, j]


def test_assignment_valid_under_augmented_side_info():
    for seed in range(40):
        inst = tiny_instance(seed)
        if not solvable(inst):
            continue
        for plan in (min_raw_broadcasts(inst), greedy_raw_broadcasts(inst)):
            extra = set(plan.broadcast_messages)
            assert len(plan.assignment.pairs) == inst.k
            for k, i in plan.assignment.pairs:
                for j in inst.workload.functions[k]:
                    assert inst.placement.cells[i, j] or j in extra


def test_greedy_demo():
    plan = greedy_raw_broadcasts(demo_instance())
    assert plan.size in (2, 3)


def test_greedy_zero_when_covered():
    inst = Instance(
        placement=generate_placement(8, 6, 1.0, seed=0),
        workload=generate_functions(8, 4, 2, seed=1),
    )
    assert greedy_raw_broadcasts(inst).size == 0


def test_greedy_plans_are_pinned():
    # sha256 of 176 greedy plans at d = 1 to 4 (the golden file has no
    # d = 1 greedy case), recorded before greedy committed its scored
    # candidate instead of rebuilding it.
    lines = []
    for d in (1, 2, 3, 4):
        for p in (0.2, 0.3):
            for s in range(25):
                inst = random_instance(40, 20, 10, d, p, s)
                if missing_messages(inst):
                    continue
                plan = greedy_raw_broadcasts(inst)
                lines.append(repr((
                    plan.broadcast_messages, plan.senders, plan.assignment.pairs, plan.uncovered,
                )))
    assert len(lines) == 176
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "067f5ef8b7c8250e1bdbc80c70eaa317f7e181285a3746ef0b78719704f8812f"
    )


def test_greedy_plans_are_pinned_at_sweep_size():
    # sha256 of 91 greedy plans at the sweep workload's size, recorded
    # before greedy kept its gain lists across rounds.  At 0.5 p_th a plan
    # takes about 15 rounds, and gain-2 winners are common, so each plan
    # drops and rebuilds many kept lists.
    p_th = no_shuffle_threshold(100, 50)
    lines = []
    for d in (2, 3):
        for mult in (0.2, 0.5, 1.0):
            for s in range(20):
                inst = random_instance(100, 100, 50, d, mult * p_th, s)
                if missing_messages(inst):
                    continue
                plan = greedy_raw_broadcasts(inst)
                lines.append(repr((
                    plan.broadcast_messages, plan.senders, plan.assignment.pairs, plan.uncovered,
                )))
    assert len(lines) == 91
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "4c6bb4471899e48f4a02e46c05c74511fcf226b14d7452f43ec398fbc99cca50"
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hitting_sets_are_the_hitting_combinations_in_order(data):
    candidates = sorted(data.draw(st.sets(st.integers(0, 30), max_size=10)))
    pairs = []
    if len(candidates) >= 2:
        pair = st.lists(st.sampled_from(candidates), min_size=2, max_size=2, unique=True)
        pairs = [tuple(p) for p in data.draw(st.lists(pair, max_size=5))]
    size = data.draw(st.integers(0, 6))
    expected = [
        combo for combo in itertools.combinations(candidates, size)
        if all(set(pair) & set(combo) for pair in pairs)
    ]
    assert list(_hitting_sets(candidates, size, pairs)) == expected


def test_exact_raw_plans_are_pinned():
    # sha256 of 220 exact searches at budget 4 (175 plans, 8 refusals on
    # the budget, 37 outages), recorded before the search visited only the
    # sets that hit every nowhere-covered function.
    def outcome(inst):
        try:
            return repr(min_raw_broadcasts(inst, budget=4))
        except (BudgetExceeded, Outage) as exc:
            return type(exc).__name__

    lines = [
        outcome(random_instance(40, 20, 10, 2, p, 2400 + s))
        for p in (0.2, 0.25, 0.3, 0.4)
        for s in range(25)
    ]
    lines += [
        outcome(random_instance(8, 6, 4, d, 0.4, 2500 + s))
        for d in (1, 2, 3, 4)
        for s in range(30)
    ]
    assert len(lines) == 220
    assert lines.count("BudgetExceeded") == 8
    assert lines.count("Outage") == 37
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "5701dac12cb9edcb670d30714110515225025616369a42df3afb3c827ebf460c"
    )


def test_exact_refuses_a_sweep_size_budget_at_once():
    # At m=n=100, K=50, 0.5 p_th about 18 functions have no covering node,
    # and more than 8 of them share no input, so no set of 8 can hit them
    # all.  Enumerating every set up to size 8 would take days.
    inst = random_instance(100, 100, 50, 2, 0.5 * no_shuffle_threshold(100, 50), 5, 0)
    assert not missing_messages(inst)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        min_raw_broadcasts(inst, budget=8)
    assert time.perf_counter() - start < 1.0


def test_gain_is_bounded_by_reachable_gained_functions():
    # Greedy skips a candidate whose gained functions reached by an
    # alternating path from a free function cannot beat the best gain.
    # Some gains here need a path through a matched function, and some
    # candidates gain edges at functions no such path reaches.
    through_matched = unreached = 0
    for d in (1, 2, 3, 4):
        for seed in range(40):
            inst = tiny_instance(seed, m=8, n=6, K=4, d=d, p=0.5)
            if not solvable(inst):
                continue
            adjacency, match_fn, match_node, _ = base_matching(inst)
            free = [k for k, i in enumerate(match_fn) if i == -1]
            reached = _reachable(adjacency, match_node, free)
            lacks, nodes, users = _input_tables(inst)
            for j in sorted({j for k in free for j in inst.workload.functions[k]}):
                gains = _gains((j,), lacks, nodes, users)
                trial = _grown(adjacency, gains)
                roots = [k for k in free if trial[k]]
                gain = augment(trial, match_fn.copy(), match_node.copy(), roots)
                bound = sum(k in reached for k, _ in gains)
                assert gain <= bound
                through_matched += gain > sum(k in free for k, _ in gains)
                unreached += bound < len(gains)
    assert through_matched > 0
    assert unreached > 0


def test_exact_matches_subset_oracle():
    # At d >= 2 functions share messages, so a broadcast set can hold both
    # inputs of one function while it adds a single input of another.
    for d in (1, 2, 3, 4):
        checked = 0
        for seed in range(1, 200):
            inst = tiny_instance(seed, m=8, n=6, K=4, d=d, p=0.25)
            if not solvable(inst):
                continue
            oracle = brute_min_raw_broadcasts(inst, max_size=4)
            if oracle is None:
                continue
            assert min_raw_broadcasts(inst).size == len(oracle)
            checked += 1
            if checked == 15:
                break
        assert checked >= 10, d


def test_greedy_bounds():
    # d caps how many functions read one message, so a broadcast can add
    # edges at up to d functions.
    from flexshuffle.coverage import build_coverage_graph, hopcroft_karp

    for d in (1, 2, 3, 4):
        checked = 0
        for seed in range(60):
            inst = tiny_instance(seed, m=8, n=6, K=4, d=d, p=0.3)
            if not solvable(inst):
                continue
            exact = min_raw_broadcasts(inst, budget=8)
            greedy = greedy_raw_broadcasts(inst)
            assert exact.size <= greedy.size
            # never more than the distinct messages the uncovered functions demand
            graph = build_coverage_graph(inst)
            match_fn, _, _ = hopcroft_karp(graph.adjacency, graph.n_nodes)
            unmatched = {k for k, i in enumerate(match_fn) if i == -1}
            demanded = {j for k in unmatched for j in inst.workload.functions[k]}
            assert greedy.size <= len(demanded)
            checked += 1
        assert checked >= 10, d


def test_raw_zero_iff_no_uncovered():
    for seed in range(40):
        inst = tiny_instance(seed)
        if not solvable(inst):
            continue
        plan = min_raw_broadcasts(inst)
        assert (plan.size == 0) == (uncovered_count(inst) == 0)


@settings(max_examples=150, deadline=None)
@given(small_instances())
@example(demo_instance())  # Y = 3
@example(random_instance(6, 5, 3, 2, 1.0, 0))  # Y = 0
def test_raw_plans_report_uncovered_count(inst):
    if not solvable(inst):
        return
    y = uncovered_count(inst)
    assert greedy_raw_broadcasts(inst).uncovered == y
    with contextlib.suppress(BudgetExceeded):
        assert min_raw_broadcasts(inst, budget=4).uncovered == y


def test_demo_intermediate_is_three():
    plan = min_intermediate_broadcasts(demo_instance())
    assert plan.total == 3
    assert plan.cost_per_function == (1, 1, 1)
    assert len(plan.assignment.pairs) == 3


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
        held = side_sets(inst.placement)
        for i in range(inst.n):
            for j in range(inst.m):
                if j in held[i]:
                    continue
                side = list(held)
                side[i] = side[i] | {j}
                bigger = Instance(
                    placement=Placement.from_sets(m=inst.m, n=inst.n, side_info=tuple(side)),
                    workload=inst.workload,
                )
                assert min_raw_broadcasts(bigger, budget=8).size <= raw
                assert min_intermediate_broadcasts(bigger).total <= inter


RING_K = 1200


def ring_instance(broken: bool) -> Instance:
    """K functions (2k, 2k+1) on K nodes; node i holds the inputs of
    functions i-1 (mod K) and i, so each function has two covering nodes.

    Broken: node K-1 holds only function K-2, node 0 keeps message 2K-2
    and node 1 gains 2K-1, so function K-1 has no covering node and the
    one augmenting path after a broadcast runs through every function.
    """
    K = RING_K

    def pair(k):
        return {2 * (k % K), 2 * (k % K) + 1}

    side = [pair(i - 1) | pair(i) for i in range(K)]
    if broken:
        side[0] = pair(0) | {2 * K - 2}
        side[1] = side[1] | {2 * K - 1}
        side[K - 1] = pair(K - 2)
    return Instance(
        placement=Placement.from_sets(m=2 * K, n=K, side_info=tuple(map(frozenset, side))),
        workload=FunctionSet(functions=tuple((2 * k, 2 * k + 1) for k in range(K)), d=1),
    )


def test_ring_needs_no_broadcast():
    inst = ring_instance(broken=False)
    for plan in (greedy_raw_broadcasts(inst), min_raw_broadcasts(inst)):
        assert plan.size == 0
        assert len(plan.assignment.pairs) == RING_K


def test_broken_ring_one_broadcast_through_every_function():
    inst = ring_instance(broken=True)
    assert uncovered_count(inst) == 1
    K = RING_K
    for plan in (greedy_raw_broadcasts(inst), min_raw_broadcasts(inst)):
        assert plan.broadcast_messages == (2 * K - 2,)
        assert plan.senders == ((2 * K - 2, 0),)
        assert len(plan.assignment.pairs) == K
        assert dict(plan.assignment.pairs)[K - 1] == 1
