import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_max_matching, covered_nodes

from flexshuffle.coverage import (
    Assignment,
    CoverageGraph,
    build_coverage_graph,
    hopcroft_karp,
    max_matching,
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
    result = max_matching(build_coverage_graph(demo_instance()))
    assert result.matched == 0
    assert result.uncovered == 3
    assert len(result.assignment) == 0


def test_complete_graph_matches_everything():
    graph = CoverageGraph(k_functions=3, n_nodes=4, adjacency=((0, 1, 2, 3),) * 3)
    result = max_matching(graph)
    assert result.matched == 3
    assert result.uncovered == 0


def test_contended_matching():
    graph = CoverageGraph(k_functions=3, n_nodes=3, adjacency=((0, 1), (0, 1), (1,)))
    result = max_matching(graph)
    assert brute_max_matching(graph.adjacency, 3) == 2
    assert result.matched == 2
    assert result.uncovered == 1


def test_matching_edges_are_graph_edges():
    for seed in range(30):
        inst = tiny_instance(seed)
        graph = build_coverage_graph(inst)
        result = max_matching(graph)
        for k, i in result.assignment.pairs:
            assert i in graph.adjacency[k]


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


def test_matching_equals_brute_force():
    checked = 0
    seed = 0
    while checked < 200:
        seed += 1
        inst = tiny_instance(seed, m=6, n=6, K=min(4, 6), d=2, p=0.3)
        graph = build_coverage_graph(inst)
        assert max_matching(graph).matched == brute_max_matching(
            graph.adjacency, graph.n_nodes
        )
        checked += 1


def test_node_permutation_invariance():
    for seed in range(25):
        inst = tiny_instance(seed)
        base = uncovered_count(inst)
        perm = list(range(inst.n))[::-1]
        permuted = Instance(
            placement=Placement.from_sets(
                m=inst.m,
                n=inst.n,
                side_info=tuple(inst.placement.side_info[i] for i in perm),
            ),
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
                s for i, s in enumerate(inst.placement.side_info) if i != drop
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
                m=inst.m, n=inst.n + 1, side_info=inst.placement.side_info + (new_node,)
            ),
            workload=inst.workload,
        )
        assert base - 1 <= uncovered_count(bigger) <= base


def test_adding_side_info_is_monotone():
    for seed in range(25):
        inst = tiny_instance(seed)
        base = uncovered_count(inst)
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
                assert uncovered_count(bigger) <= base


def test_hopcroft_karp_initial_matching_preserved():
    adjacency = ((0, 1), (1, 2), (2,))
    full = hopcroft_karp(adjacency, 3)
    seeded = hopcroft_karp(adjacency, 3, initial={0: 0})
    assert len(full) == len(seeded) == 3
    assert seeded[0] == 0


def test_assignment_rejects_non_injective():
    with pytest.raises(InvariantViolation):
        Assignment(pairs=((0, 1), (1, 1)))
    with pytest.raises(InvariantViolation):
        Assignment(pairs=((0, 1), (0, 2)))


def test_graph_rejects_unsorted_adjacency():
    with pytest.raises(InvariantViolation):
        CoverageGraph(k_functions=1, n_nodes=3, adjacency=((2, 1),))
