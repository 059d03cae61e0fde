import pytest
from oracles import brute_minrank

from flexshuffle.coding import (
    IndexCodingInstance,
    Receiver,
    best_coded_plan,
    build_fitting_matrix,
    extract_instance,
    gf2_rank,
    minrank_gf2,
    optimal_coded_flexible,
)
from flexshuffle.coverage import Assignment
from flexshuffle.errors import CapExceeded, InvariantViolation
from flexshuffle.instance import (
    Instance,
    demo_instance,
    generate_functions,
    generate_placement,
)
from flexshuffle.shuffle import min_raw_broadcasts, missing_messages


def tiny_instance(seed, m=7, n=5, K=3, d=2, p=0.3):
    return Instance(
        placement=generate_placement(m, n, p, seed),
        workload=generate_functions(m, K, d, seed + 1),
    )


def demo_walkthrough_assignment():
    # {D,E} on node 0, {B,C} on node 1, {A,B} on node 2
    return Assignment(pairs=((0, 2), (1, 1), (2, 0)))


def test_extract_demo():
    ic = extract_instance(demo_instance(), demo_walkthrough_assignment())
    assert ic.receivers == (
        Receiver(node=2, demand=0, side_info=frozenset({1, 4, 5})),
        Receiver(node=1, demand=2, side_info=frozenset({1, 3, 5})),
        Receiver(node=0, demand=3, side_info=frozenset({0, 2, 4})),
    )


def test_extract_p1_empty():
    inst = Instance(
        placement=generate_placement(6, 4, 1.0, seed=0),
        workload=generate_functions(6, 3, 2, seed=1),
    )
    ic = extract_instance(inst, Assignment(pairs=((0, 0), (1, 1), (2, 2))))
    assert ic.receivers == ()


def test_extract_double_missing_gives_two_receivers():
    # node 1 holds neither input of function 0
    from flexshuffle.instance import FunctionSet, Placement

    inst = Instance(
        placement=Placement.from_sets(m=4, n=2, side_info=(frozenset({0, 1}), frozenset({2, 3}))),
        workload=FunctionSet(functions=((0, 1),), d=1),
    )
    ic = extract_instance(inst, Assignment(pairs=((0, 1),)))
    assert len(ic.receivers) == 2
    assert {r.demand for r in ic.receivers} == {0, 1}
    assert ic.receivers[0].side_info == ic.receivers[1].side_info == frozenset({2, 3})


def test_receiver_cannot_demand_held_message():
    with pytest.raises(InvariantViolation):
        IndexCodingInstance(
            receivers=(Receiver(node=0, demand=1, side_info=frozenset({1})),),
            universe=frozenset({1}),
        )


def walkthrough_fitting_matrix():
    # receivers ordered so the columns come out (D, C, A) = (3, 2, 0)
    ic = IndexCodingInstance(
        receivers=(
            Receiver(node=0, demand=3, side_info=frozenset({0, 2, 4})),
            Receiver(node=1, demand=2, side_info=frozenset({1, 3, 5})),
            Receiver(node=2, demand=0, side_info=frozenset({1, 4, 5})),
        ),
        universe=frozenset(range(6)),
    )
    return build_fitting_matrix(ic)


def test_fitting_matrix_demo_pattern():
    fm = walkthrough_fitting_matrix()
    assert fm.columns == (3, 2, 0)
    pattern = [[fm.cell(r, c) for c in range(3)] for r in range(3)]
    assert pattern == [
        ["one", "free", "free"],
        ["free", "one", "zero"],
        ["zero", "zero", "one"],
    ]


def test_fitting_matrix_no_side_info_is_identity_pattern():
    ic = IndexCodingInstance(
        receivers=tuple(
            Receiver(node=i, demand=i, side_info=frozenset()) for i in range(3)
        ),
        universe=frozenset(range(3)),
    )
    fm = build_fitting_matrix(ic)
    assert all(fm.free[r] == 0 for r in range(3))
    assert fm.demand_col == (0, 1, 2)


def test_fitting_matrix_repeated_demand_shares_column():
    ic = IndexCodingInstance(
        receivers=(
            Receiver(node=0, demand=7, side_info=frozenset()),
            Receiver(node=1, demand=7, side_info=frozenset()),
        ),
        universe=frozenset({7}),
    )
    fm = build_fitting_matrix(ic)
    assert fm.n_cols == 1
    assert fm.demand_col == (0, 0)
    assert fm.free == (0, 0)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_minrank_identity_pattern(r):
    ic = IndexCodingInstance(
        receivers=tuple(
            Receiver(node=i, demand=i, side_info=frozenset()) for i in range(r)
        ),
        universe=frozenset(range(r)),
    )
    result = minrank_gf2(build_fitting_matrix(ic))
    assert result.rank == r


def test_minrank_three_cycle():
    ic = IndexCodingInstance(
        receivers=tuple(
            Receiver(node=i, demand=i, side_info=frozenset({(i + 1) % 3}))
            for i in range(3)
        ),
        universe=frozenset(range(3)),
    )
    fm = build_fitting_matrix(ic)
    result = minrank_gf2(fm)
    assert result.rank == 2
    assert brute_minrank(fm.demand_col, fm.free, fm.n_cols) == 2


def test_minrank_demo_fitting_matrix():
    fm = walkthrough_fitting_matrix()
    result = minrank_gf2(fm)
    assert result.rank == 2
    assert brute_minrank(fm.demand_col, fm.free, fm.n_cols) == 2
    assert gf2_rank(result.witness, fm.n_cols) == 2
    # the witness respects the cell pattern
    for r, row in enumerate(result.witness):
        assert row & (1 << fm.demand_col[r])
        for c in range(fm.n_cols):
            if fm.cell(r, c) == "zero":
                assert not row & (1 << c)


def test_minrank_matches_oracle_on_random_patterns():
    import random

    rng = random.Random(7)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        demand_col = tuple(rng.randrange(cols) for _ in range(rows))
        free = tuple(
            rng.randrange(1 << cols) & ~(1 << dc) for dc in demand_col
        )
        ic_cols = cols
        from flexshuffle.coding import FittingMatrix

        fm = FittingMatrix(
            columns=tuple(range(ic_cols)), demand_col=demand_col, free=free
        )
        assert minrank_gf2(fm).rank == brute_minrank(demand_col, free, cols)


def test_minrank_cap():
    from flexshuffle.coding import FittingMatrix

    fm = FittingMatrix(
        columns=tuple(range(8)),
        demand_col=tuple([0] * 5),
        free=tuple([0b11111110] * 5),
    )
    with pytest.raises(CapExceeded):
        minrank_gf2(fm, free_cap=20)


def test_minrank_more_side_info_never_hurts():
    base = walkthrough_fitting_matrix()
    base_rank = minrank_gf2(base).rank
    from flexshuffle.coding import FittingMatrix

    # open one more free cell (row 1, column 2 was zero)
    widened = FittingMatrix(
        columns=base.columns,
        demand_col=base.demand_col,
        free=(base.free[0], base.free[1] | 0b100, base.free[2]),
    )
    assert minrank_gf2(widened).rank <= base_rank


def test_optimal_coded_demo_is_two():
    assert optimal_coded_flexible(demo_instance()) == 2


def test_best_coded_plan_demo_supportable():
    plan = best_coded_plan(demo_instance())
    assert plan.count == 2
    side = demo_instance().placement.side_info
    for support, sender in zip(plan.broadcasts, plan.senders):
        assert support <= side[sender]


def test_optimal_coded_p1_is_zero():
    inst = Instance(
        placement=generate_placement(6, 4, 1.0, seed=0),
        workload=generate_functions(6, 3, 2, seed=1),
    )
    assert optimal_coded_flexible(inst) == 0


def test_optimal_coded_at_most_raw():
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        inst = tiny_instance(seed, m=6, n=4, K=2, d=2, p=0.3)
        if missing_messages(inst) or inst.k > inst.n:
            continue
        coded = optimal_coded_flexible(inst)
        raw = min_raw_broadcasts(inst, budget=8).size
        assert coded <= raw
        checked += 1


def test_optimal_coded_assignment_cap():
    # demo needs transmissions, and perm(4, 3) = 24 > 5
    with pytest.raises(CapExceeded):
        optimal_coded_flexible(demo_instance(), assignment_cap=5)


def test_minrank_bounded_by_receivers_and_demands():
    for seed in range(20):
        inst = tiny_instance(seed, m=6, n=4, K=2, d=2, p=0.35)
        if missing_messages(inst) or inst.k > inst.n:
            continue
        import itertools

        for nodes in itertools.permutations(range(inst.n), inst.k):
            ic = extract_instance(inst, Assignment(pairs=tuple(enumerate(nodes))))
            if not ic.receivers:
                continue
            fm = build_fitting_matrix(ic)
            if len(fm.free_cells) > 16:
                continue
            rank = minrank_gf2(fm).rank
            assert rank <= len(ic.receivers)
            assert rank <= fm.n_cols
