import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexshuffle.errors import Infeasible, InvariantViolation, ParseError
from flexshuffle.instance import (
    FunctionSet,
    Instance,
    Placement,
    demo_functions,
    demo_instance,
    demo_placement,
    expected_side_info,
    generate_functions,
    generate_placement,
    instance_from_text,
    instance_to_text,
    load_instance,
    save_instance,
    total_side_info,
)


def test_placement_p0_all_empty():
    pl = generate_placement(6, 4, 0.0, seed=123)
    assert all(len(s) == 0 for s in pl.side_info)


def test_placement_p1_all_full():
    pl = generate_placement(6, 4, 1.0, seed=123)
    assert all(s == frozenset(range(6)) for s in pl.side_info)


def test_placement_total_concentrates():
    pl = generate_placement(100, 100, 0.3, seed=7)
    mean, sd = expected_side_info(100, 100, 0.3)
    assert mean == 3000
    assert abs(total_side_info(pl) - mean) <= 4 * sd


def test_placement_deterministic():
    a = generate_placement(30, 10, 0.4, seed=99)
    b = generate_placement(30, 10, 0.4, seed=99)
    assert a == b
    c = generate_placement(30, 10, 0.4, seed=100)
    assert a != c


def test_placement_coupled_across_p():
    lo = generate_placement(40, 15, 0.2, seed=5)
    hi = generate_placement(40, 15, 0.6, seed=5)
    for s_lo, s_hi in zip(lo.side_info, hi.side_info):
        assert s_lo <= s_hi


def test_placement_cell_frequency():
    # 3-sigma binomial check on every cell over 10^4 seeds
    m, n, p, trials = 3, 2, 0.35, 10_000
    counts = [[0] * m for _ in range(n)]
    for seed in range(trials):
        pl = generate_placement(m, n, p, seed)
        for i, s in enumerate(pl.side_info):
            for j in s:
                counts[i][j] += 1
    sd = math.sqrt(trials * p * (1 - p))
    for row in counts:
        for c in row:
            assert abs(c - trials * p) <= 3 * sd


def test_demo_placement_matches_walkthrough():
    pl = demo_placement()
    assert (pl.m, pl.n) == (6, 4)
    assert pl.side_info[0] == frozenset({0, 2, 4})
    assert pl.side_info[1] == frozenset({1, 3, 5})
    assert pl.side_info[2] == frozenset({1, 4, 5})
    assert pl.side_info[3] == frozenset({0, 2, 3})


def test_demo_functions():
    fs = demo_functions()
    assert fs.functions == ((0, 1), (1, 2), (3, 4))
    assert fs.functions[0] == (0, 1)
    assert fs.functions[2] == (3, 4)
    # message 1 appears twice, everything else once
    usage = {}
    for pair in fs.functions:
        for j in pair:
            usage[j] = usage.get(j, 0) + 1
    assert max(usage.values()) == 2 == usage[1]


def test_generate_functions_d1_disjoint():
    fs = generate_functions(m=6, K=3, d=1, seed=11)
    used = [j for pair in fs.functions for j in pair]
    assert len(used) == len(set(used)) == 6


def test_generate_functions_complete_pair_set():
    fs = generate_functions(m=6, K=15, d=5, seed=11)
    assert len(fs.functions) == 15
    assert set(fs.functions) == {
        (a, b) for a in range(6) for b in range(a + 1, 6)
    }


def test_generate_functions_infeasible():
    with pytest.raises(Infeasible):
        generate_functions(m=4, K=3, d=1, seed=1)


def test_generate_functions_too_many_pairs():
    with pytest.raises(Infeasible):
        generate_functions(m=4, K=7, d=4, seed=1)


def test_generate_functions_deterministic():
    assert generate_functions(20, 8, 2, seed=3) == generate_functions(20, 8, 2, seed=3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_generate_functions_invariants(data):
    m = data.draw(st.integers(2, 12))
    d = data.draw(st.integers(1, 4))
    k_max = min(d * m // 2, m * (m - 1) // 2)
    K = data.draw(st.integers(0, k_max))
    seed = data.draw(st.integers(0, 2**32 - 1))
    fs = generate_functions(m, K, d, seed)
    assert fs.k == K
    # constructing FunctionSet revalidates distinctness and the cap
    FunctionSet(functions=fs.functions, d=d)
    assert all(0 <= j < m for pair in fs.functions for j in pair)


def test_function_set_rejects_duplicates():
    with pytest.raises(InvariantViolation):
        FunctionSet(functions=((0, 1), (0, 1)), d=3)
    with pytest.raises(InvariantViolation):
        FunctionSet(functions=((2, 2),), d=3)
    with pytest.raises(InvariantViolation):
        FunctionSet(functions=((0, 1), (0, 2)), d=1)


def test_placement_rejects_out_of_range():
    with pytest.raises(InvariantViolation):
        Placement.from_sets(m=3, n=1, side_info=(frozenset({3}),))


def test_placement_rejects_wrong_length():
    with pytest.raises(InvariantViolation) as err:
        Placement.from_sets(m=3, n=2, side_info=(frozenset(),))
    assert err.value.invariant == "side-info-length"


def test_from_sets_equals_generated():
    gen = generate_placement(15, 9, 0.4, seed=8)
    built = Placement.from_sets(15, 9, gen.side_info, p=0.4, seed=gen.seed)
    assert built == gen
    assert hash(built) == hash(gen)
    assert np.array_equal(built.cells, gen.cells)
    assert Placement.from_sets(15, 9, gen.side_info) != gen  # metadata differs


def test_side_info_derived_from_cells():
    pl = generate_placement(20, 7, 0.3, seed=4)
    assert pl.side_info == tuple(
        frozenset(j for j in range(20) if pl.cells[i, j]) for i in range(7)
    )
    assert pl.holders(3) == tuple(i for i in range(7) if pl.cells[i, 3])


def test_cells_read_only():
    pl = generate_placement(6, 4, 0.5, seed=1)
    with pytest.raises(ValueError):
        pl.cells[0, 0] = not pl.cells[0, 0]
    source = np.zeros((2, 3), dtype=bool)
    pl = Placement(m=3, n=2, cells=source)
    source[0, 0] = True  # the placement keeps its own copy
    assert not pl.cells.any()


def test_instance_rejects_workload_out_of_range():
    with pytest.raises(InvariantViolation):
        Instance(
            placement=Placement.from_sets(m=3, n=1, side_info=(frozenset(),)),
            workload=FunctionSet(functions=((0, 5),), d=1),
        )


def test_save_load_round_trip(tmp_path):
    inst = demo_instance()
    path = tmp_path / "demo.txt"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_save_load_round_trip_generated(tmp_path):
    inst = Instance(
        placement=generate_placement(12, 5, 0.4, seed=21),
        workload=generate_functions(12, 6, 2, seed=22),
    )
    path = tmp_path / "gen.txt"
    save_instance(inst, path)
    assert load_instance(path) == inst


def test_text_round_trip_stable():
    text = instance_to_text(demo_instance())
    assert instance_to_text(instance_from_text(text)) == text


def test_load_rejects_equal_pair():
    text = instance_to_text(demo_instance()).replace("func 0 1", "func 1 1")
    with pytest.raises(InvariantViolation) as err:
        instance_from_text(text)
    assert "distinct-inputs" in str(err.value)


def test_load_rejects_out_of_range_index():
    text = instance_to_text(demo_instance()).replace("func 3 4", "func 3 6")
    with pytest.raises(InvariantViolation) as err:
        instance_from_text(text)
    assert "range" in str(err.value)


def test_load_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        instance_from_text("flexshuffle-instance 1\nm x\n")
    assert err.value.line == 2


def test_load_rejects_bad_header():
    with pytest.raises(ParseError):
        instance_from_text("something-else 1\n")
    with pytest.raises(ParseError):
        instance_from_text("")


def test_load_rejects_wrong_counts():
    text = instance_to_text(demo_instance()).replace("node 0 2 3\n", "")
    with pytest.raises(ParseError):
        instance_from_text(text)


def _demo_text_with(old: str, new: str) -> str:
    text = instance_to_text(demo_instance())
    assert old in text
    return text.replace(old, new)


def test_load_rejects_repeated_header_field():
    text = _demo_text_with("n 4\n", "n 4\nm 7\n")
    with pytest.raises(ParseError) as err:
        instance_from_text(text)
    assert err.value.line == 4
    assert "repeated" in str(err.value)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1.5", "-0.1"])
def test_load_rejects_p_outside_unit_interval(value):
    text = _demo_text_with("d 2\n", f"d 2\np {value}\n")
    with pytest.raises(ParseError) as err:
        instance_from_text(text)
    assert err.value.line == 6


def test_load_rejects_repeated_node_index():
    text = _demo_text_with("node 1 3 5\n", "node 1 3 3 5\n")
    with pytest.raises(ParseError) as err:
        instance_from_text(text)
    assert err.value.line == 7
