import hashlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    brute_coded_count,
    brute_mais,
    brute_minrank,
    brute_supported_minrank,
    completions,
    permutation_coded_plan,
    rank_gf2,
    side_sets,
)

from flexshuffle import coding, gf2
from flexshuffle.coding import (
    FittingMatrix,
    MinrankResult,
    _has_acyclic_rows,
    _held_masks,
    _receivers,
    _supported_minrank,
    best_coded_plan,
    build_fitting_matrix,
    minrank_gf2,
    solve,
)
from flexshuffle.coverage import Assignment
from flexshuffle.errors import BudgetExceeded, CapExceeded, InvariantViolation
from flexshuffle.instance import (
    FunctionSet,
    Instance,
    demo_instance,
    generate_functions,
    generate_placement,
    random_instance,
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


def mask(messages) -> int:
    return sum(1 << j for j in messages)


def receivers(inst, pairs):
    return _receivers(inst.workload.functions, _held_masks(inst.placement.cells), pairs)


def test_extract_demo():
    assert receivers(demo_instance(), demo_walkthrough_assignment().pairs) == [
        (0, mask({1, 4, 5})),
        (2, mask({1, 3, 5})),
        (3, mask({0, 2, 4})),
    ]


def test_extract_p1_empty():
    inst = Instance(
        placement=generate_placement(6, 4, 1.0, seed=0),
        workload=generate_functions(6, 3, 2, seed=1),
    )
    assert receivers(inst, ((0, 0), (1, 1), (2, 2))) == []


def test_extract_double_missing_gives_two_receivers():
    # node 1 holds neither input of function 0
    from flexshuffle.instance import FunctionSet, Placement

    inst = Instance(
        placement=Placement.from_sets(m=4, n=2, side_info=(frozenset({0, 1}), frozenset({2, 3}))),
        workload=FunctionSet(functions=((0, 1),), d=1),
    )
    assert receivers(inst, ((0, 1),)) == [(0, mask({2, 3})), (1, mask({2, 3}))]


def test_receiver_cannot_demand_held_message():
    with pytest.raises(InvariantViolation) as err:
        build_fitting_matrix([(1, mask({1}))])
    assert err.value.invariant == "demand-not-held"


def test_receiver_cannot_demand_a_negative_message():
    with pytest.raises(InvariantViolation) as err:
        build_fitting_matrix([(0, 0), (-1, 0)])
    assert err.value.invariant == "demand-range"
    assert err.value.detail == "receiver 1 demands message -1"


@st.composite
def valid_receivers(draw):
    """Up to six receivers over up to eight messages, none demanding a
    message it holds."""
    m = draw(st.integers(1, 8))
    out = []
    for _ in range(draw(st.integers(0, 6))):
        demand = draw(st.integers(0, m - 1))
        out.append((demand, draw(st.integers(0, (1 << m) - 1)) & ~(1 << demand)))
    return out


@settings(max_examples=200, deadline=None)
@given(valid_receivers())
def test_built_fitting_matrices_meet_the_minrank_checks(receivers):
    # what minrank_gf2 checks on a hand-built matrix holds by construction
    fm = build_fitting_matrix(receivers)
    assert len(fm.demand_col) == len(fm.free) == len(receivers)
    for dc, f in zip(fm.demand_col, fm.free):
        assert 0 <= dc < fm.n_cols
        assert not f >> fm.n_cols
        assert not f >> dc & 1


@pytest.mark.parametrize(
    "demand_col, free, invariant",
    [
        ((0, 1), (0,), "row-count"),
        ((0, 2), (0, 0), "demand-column-range"),
        ((0, 1), (0b100, 0), "free-mask-range"),
        ((0, 1), (0, 0b10), "demand-cell-forced-one"),
    ],
)
def test_minrank_checks_hand_built_matrices(demand_col, free, invariant):
    fm = FittingMatrix(columns=(0, 1), demand_col=demand_col, free=free)
    with pytest.raises(InvariantViolation) as err:
        minrank_gf2(fm)
    assert err.value.invariant == invariant


def walkthrough_fitting_matrix():
    # receivers ordered so the columns come out (D, C, A) = (3, 2, 0)
    return build_fitting_matrix(
        [(3, mask({0, 2, 4})), (2, mask({1, 3, 5})), (0, mask({1, 4, 5}))]
    )


def cell_pattern(fm):
    """Each cell as "one" (a row's demand), "free" or "zero"."""
    return [
        [
            "one" if c == dc else "free" if f >> c & 1 else "zero"
            for c in range(fm.n_cols)
        ]
        for dc, f in zip(fm.demand_col, fm.free)
    ]


def test_fitting_matrix_demo_pattern():
    fm = walkthrough_fitting_matrix()
    assert fm.columns == (3, 2, 0)
    assert cell_pattern(fm) == [
        ["one", "free", "free"],
        ["free", "one", "zero"],
        ["zero", "zero", "one"],
    ]


def test_fitting_matrix_no_side_info_is_identity_pattern():
    fm = build_fitting_matrix([(i, 0) for i in range(3)])
    assert all(fm.free[r] == 0 for r in range(3))
    assert fm.demand_col == (0, 1, 2)


def test_fitting_matrix_repeated_demand_shares_column():
    fm = build_fitting_matrix([(7, 0), (7, 0)])
    assert fm.n_cols == 1
    assert fm.demand_col == (0, 0)
    assert fm.free == (0, 0)


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
def test_minrank_identity_pattern(r):
    result = minrank_gf2(build_fitting_matrix([(i, 0) for i in range(r)]))
    assert result.rank == r


def test_minrank_three_cycle():
    fm = build_fitting_matrix([(i, mask({(i + 1) % 3})) for i in range(3)])
    result = minrank_gf2(fm)
    assert result.rank == 2
    assert brute_minrank(fm.demand_col, fm.free, fm.n_cols) == 2


def test_minrank_demo_fitting_matrix():
    fm = walkthrough_fitting_matrix()
    result = minrank_gf2(fm)
    assert result.rank == 2
    assert brute_minrank(fm.demand_col, fm.free, fm.n_cols) == 2
    assert len(gf2.gf2_row_basis(result.witness, fm.n_cols)) == 2
    # the witness respects the cell pattern
    for r, (row, cells) in enumerate(zip(result.witness, cell_pattern(fm))):
        assert row & (1 << fm.demand_col[r])
        for c, cell in enumerate(cells):
            if cell == "zero":
                assert not row & (1 << c)


def test_minrank_matches_oracle_on_random_patterns():
    import random

    rng = random.Random(7)
    for _ in range(200):
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
        result = minrank_gf2(fm)
        assert result.rank == brute_minrank(demand_col, free, cols)
        # the witness is the first completion of least rank in completion order
        first = next(
            rows for rows in completions(demand_col, free, cols)
            if rank_gf2(rows, cols) == result.rank
        )
        assert result.witness == tuple(sum(b << c for c, b in enumerate(r)) for r in first)


def test_minrank_cap():
    from flexshuffle.coding import FittingMatrix

    fm = FittingMatrix(
        columns=tuple(range(8)),
        demand_col=tuple([0] * 5),
        free=tuple([0b11111110] * 5),
    )
    with pytest.raises(CapExceeded):
        minrank_gf2(fm, free_cap=20)
    # a matrix with no rows is held to the column cap like any other
    no_rows = FittingMatrix(columns=tuple(range(coding.MAX_COLS + 1)), demand_col=(), free=())
    with pytest.raises(CapExceeded, match="fitting-matrix columns"):
        minrank_gf2(no_rows)


def test_free_cells_are_capped_whatever_free_cap_is():
    # one row demanding column 0 with every other column free: one free
    # cell over the limit
    n_cols = coding.MAX_FREE + 2
    fm = FittingMatrix(
        columns=tuple(range(n_cols)), demand_col=(0,), free=((1 << n_cols) - 2,)
    )
    cap = f"^free cells: {coding.MAX_FREE + 1} exceeds cap {coding.MAX_FREE}$"
    with pytest.raises(CapExceeded, match=cap):
        minrank_gf2(fm, free_cap=coding.MAX_FREE + 10)


def test_minrank_answers_at_the_free_cell_cap():
    # exactly MAX_FREE free cells: ranking all 2**24 completions into a
    # table took about 15 s on one core of a 2-core x86 machine
    fm = FittingMatrix(
        columns=tuple(range(6)), demand_col=tuple(range(6)), free=(30, 29, 58, 39, 15, 23)
    )
    assert sum(f.bit_count() for f in fm.free) == coding.MAX_FREE
    result = minrank_gf2(fm, free_cap=coding.MAX_FREE)
    assert result == MinrankResult(rank=2, witness=(31, 31, 46, 46, 31, 49))


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
    assert best_coded_plan(demo_instance()).count == 2


def test_best_coded_plan_demo_supportable():
    plan = best_coded_plan(demo_instance())
    assert plan.count == 2
    side = side_sets(demo_instance().placement)
    for support, sender in zip(plan.broadcasts, plan.senders):
        assert support <= side[sender]


def test_optimal_coded_p1_is_zero():
    inst = Instance(
        placement=generate_placement(6, 4, 1.0, seed=0),
        workload=generate_functions(6, 3, 2, seed=1),
    )
    assert best_coded_plan(inst).count == 0


def test_optimal_coded_at_most_raw():
    checked = 0
    seed = 0
    while checked < 50:
        seed += 1
        inst = tiny_instance(seed, m=6, n=4, K=2, d=2, p=0.3)
        if missing_messages(inst) or inst.k > inst.n:
            continue
        coded = best_coded_plan(inst).count
        raw = min_raw_broadcasts(inst, budget=8).size
        assert coded <= raw
        checked += 1


def test_optimal_coded_matches_oracle():
    # the acyclic-rows bound settles about a hundred of these draws' patterns
    for K in (2, 3):
        checked = seed = 0
        while checked < 20:
            seed += 1
            inst = tiny_instance(seed, m=6, n=4, K=K, d=2, p=0.3)
            if missing_messages(inst):
                continue
            assert best_coded_plan(inst).count == brute_coded_count(inst)
            checked += 1


def test_coded_search_refuses_without_ranking_every_pattern(monkeypatch):
    # searching every pattern made 4,573 calls, about a minute, before this refusal
    calls = 0
    completions_by_rank = coding._completions_by_rank

    def counted(*args):
        nonlocal calls
        calls += 1
        return completions_by_rank(*args)

    monkeypatch.setattr(coding, "_completions_by_rank", counted)
    with pytest.raises(CapExceeded, match="^free cells: 22 exceeds cap 20$"):
        best_coded_plan(random_instance(10, 8, 5, 2, 0.3, seed=0))
    assert calls <= 50


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10_000))
def test_coded_senders_are_the_lowest_nodes_holding_each_broadcast(K, seed):
    inst = random_instance(6, 4, K, 2, 0.35, seed=seed)
    assume(not missing_messages(inst))
    side = side_sets(inst.placement)
    plan = best_coded_plan(inst)
    for support, sender in zip(plan.broadcasts, plan.senders, strict=True):
        assert support <= side[sender]
        assert not any(support <= side[i] for i in range(sender))


def test_each_receiver_set_is_searched_once(monkeypatch):
    # counts the receiver set of each matrix handed to the minrank search
    built, searched = {}, []
    build, search = coding.build_fitting_matrix, coding._supported_minrank

    def built_from(receivers):
        fm = build(receivers)
        built[id(fm)] = fm, frozenset(receivers)
        return fm

    def counted(fm, *args):
        searched.append(built[id(fm)][1])
        return search(fm, *args)

    monkeypatch.setattr(coding, "build_fitting_matrix", built_from)
    monkeypatch.setattr(coding, "_supported_minrank", counted)
    for seed in range(40):
        built.clear()
        searched.clear()
        inst = random_instance(7, 5, 4, 2, 0.35, seed=seed)
        if missing_messages(inst):
            continue
        best_coded_plan(inst)
        assert len(searched) == len(set(searched))


def pinned_instances():
    """The 69 non-outage draws whose coded outcomes are pinned."""
    for m, n, K, p in ((7, 5, 4, 0.35), (8, 6, 4, 0.3), (6, 5, 3, 0.35)):
        for s in range(40):
            inst = random_instance(m, n, K, 2, p, seed=4242 + s)
            if not missing_messages(inst):
                yield inst


def coded_outcome(inst, **caps) -> str:
    try:
        return repr(best_coded_plan(inst, **caps))
    except CapExceeded as exc:
        return f"refused {exc}"


def test_coded_plans_are_pinned():
    # sha256 of 67 coded plans and 2 refusals, recorded while the search
    # still ranked every completion of a pattern into a table
    lines = [coded_outcome(inst) for inst in pinned_instances()]
    assert len(lines) == 69
    assert sum(line.startswith("refused ") for line in lines) == 2
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "e86a64315eb5d11d7bec6d9f75ee5b70384cae38b0a40ee08e1d9515f81993e1"
    )


def test_coded_plans_match_the_permutation_walk():
    # the pruned search must give the walk's plan, or its refusal at the
    # same assignment, at every cap
    rng = random.Random(25)
    draws = refused = 0
    while draws < 300:
        m = rng.randint(4, 9)
        n = rng.randint(2, min(7, m))
        K = rng.randint(1, min(4, n))
        inst = random_instance(m, n, K, 2, rng.uniform(0.15, 0.55), seed=rng.randrange(10**6))
        if missing_messages(inst):
            continue
        draws += 1
        for cap in (3, 5, 8, 12, 20):
            try:
                expected = repr(permutation_coded_plan(inst, free_cap=cap))
            except CapExceeded as exc:
                expected = f"refused {exc}"
                refused += 1
            assert coded_outcome(inst, free_cap=cap) == expected, (m, n, K, cap)
    assert refused >= 100


def test_coded_search_starts_bounded(monkeypatch):
    belows = []
    search = coding._supported_minrank

    def recorded(fm, held, free_cap, below=None):
        belows.append(below)
        return search(fm, held, free_cap, below)

    monkeypatch.setattr(coding, "_supported_minrank", recorded)
    for inst in pinned_instances():
        coded_outcome(inst)
    assert belows and None not in belows
    belows.clear()
    # the unbounded first pattern made the permutation walk search 360
    best_coded_plan(random_instance(8, 6, 4, 2, 0.3, seed=4258))
    assert len(belows) <= 20


def test_optimal_coded_assignment_cap():
    # demo needs transmissions, and perm(4, 3) = 24 > 5
    with pytest.raises(CapExceeded):
        best_coded_plan(demo_instance(), assignment_cap=5)


def test_solve_demo_counts():
    report = solve(demo_instance())
    assert report.raw.uncovered == 3
    assert (report.raw.size, report.raw_solver) == (2, "exact")
    assert report.inter.total == 3
    assert report.coded.count == 2
    assert report.coded_refusal is None


def test_solve_falls_back_to_greedy_past_the_budget():
    report = solve(demo_instance(), budget=1)
    assert report.raw_solver == "greedy"
    assert report.raw.uncovered == 3


def test_solve_without_fallback_raises_before_the_coded_search(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the coded search ran")

    monkeypatch.setattr(coding, "best_coded_plan", never)
    with pytest.raises(BudgetExceeded):
        solve(demo_instance(), budget=1, greedy_fallback=False)


def test_solve_records_a_coded_refusal():
    # perm(4, 3) = 24 assignments exceed the cap; the CLI prints this text
    report = solve(demo_instance(), assignment_cap=5)
    assert report.coded is None
    assert str(report.coded_refusal) == "assignments: 24 exceeds cap 5"
    assert report.raw.size == 2


def test_solve_without_functions():
    inst = Instance(
        placement=generate_placement(4, 3, 0.5, seed=0), workload=FunctionSet((), d=1)
    )
    report = solve(inst)
    assert (report.raw.size, report.raw.uncovered, report.raw_solver) == (0, 0, "exact")
    assert (report.inter.total, report.inter.assignment.pairs) == (0, ())
    assert (report.coded.count, report.coded.assignment.pairs) == (0, ())


def test_solve_skip_coded():
    report = solve(demo_instance(), skip_coded=True)
    assert (report.coded, report.coded_refusal) == (None, None)
    assert report.inter.total == 3


def test_minrank_bounded_by_receivers_and_demands():
    for seed in range(20):
        inst = tiny_instance(seed, m=6, n=4, K=2, d=2, p=0.35)
        if missing_messages(inst) or inst.k > inst.n:
            continue
        import itertools

        for nodes in itertools.permutations(range(inst.n), inst.k):
            rs = receivers(inst, enumerate(nodes))
            if not rs:
                continue
            fm = build_fitting_matrix(rs)
            if sum(f.bit_count() for f in fm.free) > 16:
                continue
            rank = minrank_gf2(fm).rank
            assert rank <= len(rs)
            assert rank <= fm.n_cols


@st.composite
def supported_patterns(draw):
    """A fitting matrix up to 4x4 and up to three nodes' column masks."""
    n_cols = draw(st.integers(1, 4))
    demand_col = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=4))
    free = [draw(st.integers(0, (1 << n_cols) - 1)) & ~(1 << dc) for dc in demand_col]
    node_masks = draw(st.lists(st.integers(0, (1 << n_cols) - 1), max_size=3))
    fm = FittingMatrix(
        columns=tuple(range(n_cols)), demand_col=tuple(demand_col), free=tuple(free)
    )
    return fm, node_masks


def bits(row, n_cols):
    return [(row >> c) & 1 for c in range(n_cols)]


@settings(max_examples=200, deadline=None)
@given(supported_patterns())
def test_supported_minrank_below_matches_oracle(case):
    fm, node_masks = case  # columns are messages 0..n_cols-1
    want = brute_supported_minrank(fm.demand_col, fm.free, fm.n_cols, node_masks)
    unbounded = _supported_minrank(fm, node_masks, 20)
    for below in [None, *range(1, fm.n_cols + 2)]:
        rank, basis = _supported_minrank(fm, node_masks, 20, below)
        if want is None or (below is not None and want >= below):
            assert (rank, basis) == (None, None)
            continue
        assert rank == want
        assert (rank, basis) == unbounded
        # the basis is supportable and spans the row space of a completion
        assert len(basis) == rank
        assert all(v and any(v & ~nm == 0 for nm in node_masks) for v in basis)
        vectors = [bits(v, fm.n_cols) for v in basis]
        assert rank_gf2(vectors, fm.n_cols) == rank
        assert any(
            rank_gf2(rows, fm.n_cols) == rank == rank_gf2(rows + vectors, fm.n_cols)
            for rows in completions(fm.demand_col, fm.free, fm.n_cols)
        )


@st.composite
def sparse_patterns(draw):
    """A fitting matrix up to 6x5 with at most eight free cells."""
    n_cols = draw(st.integers(1, 5))
    demand_col = draw(st.lists(st.integers(0, n_cols - 1), min_size=1, max_size=6))
    cells = draw(st.sets(
        st.tuples(st.integers(0, len(demand_col) - 1), st.integers(0, n_cols - 1)), max_size=8
    ))
    free = [0] * len(demand_col)
    for r, c in cells:
        if c != demand_col[r]:
            free[r] |= 1 << c
    return FittingMatrix(
        columns=tuple(range(n_cols)), demand_col=tuple(demand_col), free=tuple(free)
    )


@settings(max_examples=150, deadline=None)
@given(sparse_patterns())
def test_acyclic_rows_match_oracle_and_bound_minrank(fm):
    mais = brute_mais(fm.demand_col, fm.free)
    for size in range(1, fm.n_rows + 2):
        assert _has_acyclic_rows(zip(fm.demand_col, fm.free), size) == (mais >= size)
    assert mais <= brute_minrank(fm.demand_col, fm.free, fm.n_cols)


@st.composite
def receiver_lists(draw):
    """Up to seven (demand, held mask) receivers over up to eight messages."""
    m = draw(st.integers(1, 8))
    demands = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=7))
    return [(j, draw(st.integers(0, (1 << m) - 1)) & ~(1 << j)) for j in demands]


@settings(max_examples=200, deadline=None)
@given(receiver_lists())
def test_acyclic_rows_of_receivers_match_their_matrix(receivers):
    # the coded search tests partial assignments' receivers without
    # building their fitting matrix
    fm = build_fitting_matrix(receivers)
    for size in range(1, len(receivers) + 2):
        assert _has_acyclic_rows(receivers, size) == _has_acyclic_rows(
            zip(fm.demand_col, fm.free), size
        )


@pytest.mark.parametrize(
    "fm, free_cap",
    [
        # every off-demand cell free: the closed form would find rank 1
        (FittingMatrix(columns=tuple(range(5)), demand_col=tuple(range(5)),
                       free=tuple(0b11111 & ~(1 << r) for r in range(5))), 19),
        (FittingMatrix(columns=tuple(range(33)), demand_col=tuple(range(33)),
                       free=(0,) * 33), 20),
        # free cells above the diagonal only: the acyclic-rows bound gives rank 5
        (FittingMatrix(columns=tuple(range(5)), demand_col=tuple(range(5)),
                       free=tuple(0b11111 & ~((2 << r) - 1) for r in range(5))), 9),
    ],
)
def test_rank_one_test_checks_caps_first(fm, free_cap):
    everything = [mask(fm.columns)]
    with pytest.raises(CapExceeded):
        _supported_minrank(fm, everything, free_cap)
    for below in (2, 3):
        with pytest.raises(CapExceeded):
            _supported_minrank(fm, everything, free_cap, below=below)
