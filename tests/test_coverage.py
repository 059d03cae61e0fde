import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import brute_max_matching, covered_nodes, side_sets

from flexshuffle.analysis import no_shuffle_threshold
from flexshuffle.coverage import (
    Assignment,
    CoverageGraph,
    augment,
    base_matching,
    build_coverage_graph,
    hopcroft_karp,
    uncovered_count,
)
from flexshuffle.errors import InvariantViolation
from flexshuffle.instance import (
    FunctionSet,
    Instance,
    Placement,
    demo_instance,
    generate_functions,
    generate_placement,
    random_instance,
)


def tiny_instance(seed, m=6, n=5, K=3, d=2, p=0.35):
    return Instance(
        placement=generate_placement(m, n, p, seed),
        workload=generate_functions(m, K, d, seed + 1),
    )


def test_demo_graph_empty():
    graph = build_coverage_graph(demo_instance())
    assert all(adj == () for adj in graph.adjacency)


def test_p1_graph_complete():
    inst = Instance(
        placement=generate_placement(6, 4, 1.0, seed=0),
        workload=generate_functions(6, 3, 2, seed=1),
    )
    graph = build_coverage_graph(inst)
    assert all(adj == (0, 1, 2, 3) for adj in graph.adjacency)


def test_single_edge_graph():
    inst = Instance(
        placement=Placement.from_sets(m=2, n=2, side_info=(frozenset(), frozenset({0, 1}))),
        workload=FunctionSet(functions=((0, 1),), d=1),
    )
    graph = build_coverage_graph(inst)
    assert graph.adjacency == ((1,),)


@st.composite
def small_instances(draw):
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 3))
    K = draw(st.integers(0, min(d * m // 2, m * (m - 1) // 2, 8)))
    p = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_instance(m, n, K, d, p, seed)


@settings(max_examples=100, deadline=None)
@given(small_instances())
def test_dense_graph_matches_set_oracle(inst):
    assert list(build_coverage_graph(inst).adjacency) == covered_nodes(inst)


def test_demo_matching():
    graph = build_coverage_graph(demo_instance())
    match_fn, match_node, matched = hopcroft_karp(graph.adjacency, graph.n_nodes)
    assert matched == 0
    assert match_fn == [-1] * 3
    assert match_node == [-1] * 4


def test_complete_graph_matches_everything():
    graph = CoverageGraph(n_nodes=4, adjacency=((0, 1, 2, 3),) * 3)
    match_fn, match_node, matched = hopcroft_karp(graph.adjacency, graph.n_nodes)
    assert matched == 3
    assert match_fn == [0, 1, 2]
    assert match_node == [0, 1, 2, -1]


def test_contended_matching():
    graph = CoverageGraph(n_nodes=3, adjacency=((0, 1), (0, 1), (1,)))
    match_fn, _, matched = hopcroft_karp(graph.adjacency, graph.n_nodes)
    assert brute_max_matching(graph.adjacency, 3) == 2
    assert matched == 2
    assert match_fn.count(-1) == 1


def test_matching_edges_are_graph_edges():
    for seed in range(30):
        inst = tiny_instance(seed)
        graph = build_coverage_graph(inst)
        match_fn, match_node, matched = hopcroft_karp(graph.adjacency, graph.n_nodes)
        pairs = [(k, i) for k, i in enumerate(match_fn) if i != -1]
        assert len(pairs) == matched
        for k, i in pairs:
            assert i in graph.adjacency[k]
            assert match_node[i] == k
        assert sum(k != -1 for k in match_node) == matched


def test_uncovered_count_demo():
    assert uncovered_count(demo_instance()) == 3


def test_uncovered_count_p1():
    inst = Instance(
        placement=generate_placement(8, 6, 1.0, seed=0),
        workload=generate_functions(8, 4, 2, seed=1),
    )
    assert uncovered_count(inst) == 0


def test_uncovered_count_single_isolated_function():
    # function (0,1) sits together nowhere; the other two are covered
    inst = Instance(
        placement=Placement.from_sets(
            m=6,
            n=3,
            side_info=(frozenset({0, 2, 3}), frozenset({1, 4, 5}), frozenset({2, 3})),
        ),
        workload=FunctionSet(functions=((0, 1), (2, 3), (4, 5)), d=1),
    )
    assert brute_max_matching(build_coverage_graph(inst).adjacency, 3) == 2
    assert uncovered_count(inst) == 1


def _rich_rows(inst) -> int:
    """How many functions K or more nodes cover."""
    return sum(len(adj) >= inst.k for adj in build_coverage_graph(inst).adjacency)


# One draw of each case: two of five functions have K or more covering
# nodes; none of five has; K = 7 functions on n = 6 nodes.
SLACK_EXAMPLES = {
    "some rows rich": dict(m=12, n=6, K=5, d=2, p=0.7, seed=0),
    "all rows poor": dict(m=12, n=6, K=5, d=2, p=0.4, seed=0),
    "K > n": dict(m=12, n=6, K=7, d=2, p=1.0, seed=0),
}


def test_slack_examples_are_the_three_cases():
    rich, poor, over = (random_instance(**args) for args in SLACK_EXAMPLES.values())
    assert 0 < _rich_rows(rich) < rich.k
    assert _rich_rows(poor) == 0
    assert over.k > over.n


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(2, 12),
    n=st.integers(1, 10),
    K=st.integers(0, 12),
    d=st.integers(1, 4),
    p=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
@example(**SLACK_EXAMPLES["some rows rich"])
@example(**SLACK_EXAMPLES["all rows poor"])
@example(**SLACK_EXAMPLES["K > n"])
def test_uncovered_count_matches_full_matching(m, n, K, d, p, seed):
    K = min(K, d * m // 2, m * (m - 1) // 2)
    inst = random_instance(m, n, K, d, p, seed)
    adjacency = build_coverage_graph(inst).adjacency
    matched = hopcroft_karp(adjacency, n)[2]
    assert uncovered_count(inst) == K - matched == K - brute_max_matching(adjacency, n)


def test_uncovered_count_when_rich_functions_share_every_node():
    # Function 0 is covered by all K = 4 nodes, and each of those nodes
    # also covers one of the others: functions 1 and 2 only at node 0,
    # function 3 at nodes 1-3.  One of functions 1 and 2 stays uncovered.
    inst = Instance(
        placement=Placement.from_sets(
            m=8,
            n=4,
            side_info=({0, 1, 2, 3, 4, 5}, {0, 1, 6, 7}, {0, 1, 6, 7}, {0, 1, 6, 7}),
        ),
        workload=FunctionSet(functions=((0, 1), (2, 3), (4, 5), (6, 7)), d=1),
    )
    adjacency = build_coverage_graph(inst).adjacency
    assert adjacency == ((0, 1, 2, 3), (0,), (0,), (1, 2, 3))
    assert brute_max_matching(adjacency, 4) == 3
    assert uncovered_count(inst) == 1 == inst.k - base_matching(inst)[3]


def test_uncovered_count_above_threshold_at_monte_carlo_size():
    # The c03 size at 5 p_th: nearly every function has K or more nodes.
    p = 5 * no_shuffle_threshold(200, 100)
    inst = random_instance(200, 200, 100, 2, p, seed=5, trial=3)
    assert _rich_rows(inst) > 90
    assert uncovered_count(inst) == 0 == inst.k - base_matching(inst)[3]


@pytest.mark.parametrize(
    "mult, ys",
    [
        (0.2, [90, 78, 83, 78, 82, 86, 84, 84]),
        (1.0, [0, 0, 1, 1, 1, 1, 0, 2]),
        (5.0, [0, 0, 0, 0, 0, 0, 0, 0]),
    ],
)
def test_uncovered_count_pinned_at_monte_carlo_size(mult, ys):
    p = mult * no_shuffle_threshold(200, 100)
    assert [uncovered_count(random_instance(200, 200, 100, 2, p, 5, t)) for t in range(8)] == ys


def test_matching_equals_brute_force():
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        inst = tiny_instance(seed, m=6, n=6, K=min(4, 6), d=2, p=0.3)
        graph = build_coverage_graph(inst)
        assert hopcroft_karp(graph.adjacency, graph.n_nodes)[2] == brute_max_matching(
            graph.adjacency, graph.n_nodes
        )
        checked += 1


def test_node_permutation_invariance():
    for seed in range(25):
        inst = tiny_instance(seed)
        base = uncovered_count(inst)
        side = side_sets(inst.placement)
        permuted = Instance(
            placement=Placement.from_sets(m=inst.m, n=inst.n, side_info=side[::-1]),
            workload=inst.workload,
        )
        assert uncovered_count(permuted) == base


def test_one_lipschitz_in_nodes():
    import random

    rng = random.Random(4)
    for seed in range(25):
        inst = tiny_instance(seed, n=6)
        base = uncovered_count(inst)
        for drop in range(inst.n):
            side = tuple(
                s for i, s in enumerate(side_sets(inst.placement)) if i != drop
            )
            smaller = Instance(
                placement=Placement.from_sets(m=inst.m, n=inst.n - 1, side_info=side),
                workload=inst.workload,
            )
            delta = uncovered_count(smaller) - base
            assert 0 <= delta <= 1
        # adding a node lowers the count by at most one
        new_node = frozenset(j for j in range(inst.m) if rng.random() < 0.5)
        bigger = Instance(
            placement=Placement.from_sets(
                m=inst.m, n=inst.n + 1, side_info=side_sets(inst.placement) + (new_node,)
            ),
            workload=inst.workload,
        )
        assert base - 1 <= uncovered_count(bigger) <= base


def test_adding_side_info_is_monotone():
    for seed in range(25):
        inst = tiny_instance(seed)
        base = uncovered_count(inst)
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
                assert uncovered_count(bigger) <= base


def seeded_augment(adjacency, n, initial):
    """``augment`` from the matching ``initial``; returns the gain and the
    match_fn/match_node lists it grew in place."""
    match_fn, match_node = [-1] * len(adjacency), [-1] * n
    for k, i in initial.items():
        match_fn[k], match_node[i] = i, k
    return augment(adjacency, match_fn, match_node), match_fn, match_node


def test_hopcroft_karp_initial_matching_preserved():
    adjacency = ((0, 1), (1, 2), (2,))
    assert hopcroft_karp(adjacency, 3) == ([0, 1, 2], [0, 1, 2], 3)
    gained, match_fn, match_node = seeded_augment(adjacency, 3, {0: 0})
    assert gained == 2
    assert match_fn == match_node == [0, 1, 2]


@st.composite
def graphs_with_seed_matching(draw):
    """A small bipartite graph plus a sub-matching of a maximum matching."""
    K = draw(st.integers(0, 6))
    n = draw(st.integers(1, 6))
    adjacency = tuple(
        tuple(sorted(draw(st.frozensets(st.integers(0, n - 1), max_size=n))))
        for _ in range(K)
    )
    matchings = [
        dict((k, i) for k, i in enumerate(choice) if i is not None)
        for choice in itertools.product(*[(None, *nbrs) for nbrs in adjacency])
        if len([i for i in choice if i is not None]) == len({i for i in choice if i is not None})
    ]
    best = max(map(len, matchings))
    maximum = draw(st.sampled_from([mm for mm in matchings if len(mm) == best]))
    kept = draw(st.frozensets(st.sampled_from(sorted(maximum)))) if maximum else frozenset()
    return adjacency, n, {k: maximum[k] for k in kept}


@settings(max_examples=200, deadline=None)
@given(graphs_with_seed_matching())
def test_hopcroft_karp_seeded_is_maximum_and_keeps_seed(case):
    adjacency, n, initial = case
    gained, match_fn, match_node = seeded_augment(adjacency, n, initial)
    matching = {k: i for k, i in enumerate(match_fn) if i != -1}
    assert len(matching) == len(initial) + gained == brute_max_matching(adjacency, n)
    assert all(i in adjacency[k] for k, i in matching.items())
    # match_node is the inverse of match_fn, so no node is used twice
    assert {i: k for i, k in enumerate(match_node) if k != -1} == {
        i: k for k, i in matching.items()
    }
    assert set(initial) <= set(matching)


def test_hopcroft_karp_long_augmenting_path():
    # Greedy takes node k for function k, so the last function's only
    # augmenting path runs through every function: no recursion may follow it.
    K = 10_000
    adjacency = tuple((k, k + 1) for k in range(K - 1)) + ((0,),)
    match_fn, match_node, matched = hopcroft_karp(adjacency, K)
    assert matched == K
    assert match_fn[K - 1] == 0
    assert match_node[0] == K - 1


def test_assignment_rejects_non_injective():
    with pytest.raises(InvariantViolation):
        Assignment(pairs=((0, 1), (1, 1)))
    with pytest.raises(InvariantViolation):
        Assignment(pairs=((0, 1), (0, 2)))


@settings(max_examples=200, deadline=None)
@given(graphs_with_seed_matching())
def test_augment_with_given_roots_matches_scan(case):
    adjacency, n, initial = case
    expected = seeded_augment(adjacency, n, initial)
    match_fn, match_node = [-1] * len(adjacency), [-1] * n
    for k, i in initial.items():
        match_fn[k], match_node[i] = i, k
    roots = [k for k, i in enumerate(match_fn) if i == -1 and adjacency[k]]
    gained = augment(adjacency, match_fn, match_node, roots)
    assert (gained, match_fn, match_node) == expected
