import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import pair_fault, side_sets

from flexshuffle.errors import Infeasible, InvariantViolation, ParseError
from flexshuffle.instance import (
    FunctionSet,
    Instance,
    Placement,
    demo_instance,
    generate_functions,
    generate_placement,
    instance_from_text,
    instance_to_text,
    load_instance,
    random_instance,
    save_instance,
)


def test_placement_p0_all_empty():
    pl = generate_placement(6, 4, 0.0, seed=123)
    assert all(len(s) == 0 for s in side_sets(pl))


def test_placement_p1_all_full():
    pl = generate_placement(6, 4, 1.0, seed=123)
    assert all(s == frozenset(range(6)) for s in side_sets(pl))


def test_placement_total_concentrates():
    pl = generate_placement(100, 100, 0.3, seed=7)
    # the total is Binomial(m*n, p)
    mean, sd = 100 * 100 * 0.3, math.sqrt(100 * 100 * 0.3 * 0.7)
    assert abs(int(pl.cells.sum()) - mean) <= 4 * sd


def test_placement_deterministic():
    a = generate_placement(30, 10, 0.4, seed=99)
    b = generate_placement(30, 10, 0.4, seed=99)
    assert a == b
    c = generate_placement(30, 10, 0.4, seed=100)
    assert a != c


def test_placement_coupled_across_p():
    lo = generate_placement(40, 15, 0.2, seed=5)
    hi = generate_placement(40, 15, 0.6, seed=5)
    for s_lo, s_hi in zip(side_sets(lo), side_sets(hi)):
        assert s_lo <= s_hi


def test_placement_cell_frequency():
    # 3-sigma binomial check on every cell over 10^4 seeds
    m, n, p, trials = 3, 2, 0.35, 10_000
    counts = [[0] * m for _ in range(n)]
    for seed in range(trials):
        pl = generate_placement(m, n, p, seed)
        for i, s in enumerate(side_sets(pl)):
            for j in s:
                counts[i][j] += 1
    sd = math.sqrt(trials * p * (1 - p))
    for row in counts:
        for c in row:
            assert abs(c - trials * p) <= 3 * sd


def test_demo_placement_matches_walkthrough():
    pl = demo_instance().placement
    assert (pl.m, pl.n) == (6, 4)
    assert side_sets(pl) == (
        frozenset({0, 2, 4}), frozenset({1, 3, 5}), frozenset({1, 4, 5}), frozenset({0, 2, 3})
    )


def test_demo_functions():
    fs = demo_instance().workload
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


def test_generate_functions_restart_is_pinned():
    # This draw takes its first three pairs, then can only reject (every
    # pair left is taken or capped) until 4000 rejections restart it.
    assert generate_functions(4, 4, 2, seed=17).functions == ((0, 2), (2, 3), (1, 3), (0, 1))


def test_generate_functions_repeated_restarts_are_pinned():
    # m=6, K=6, d=2 leaves so few pairs that this draw restarts three
    # times before a full set is accepted.
    assert generate_functions(6, 6, 2, seed=20).functions == (
        (4, 5), (0, 2), (1, 3), (2, 5), (0, 1), (3, 4),
    )


@pytest.mark.parametrize(
    "seed, digest, first, last",
    [
        (0, "6916423b6271d7d3", (127, 170), (117, 160)),
        (1, "8de8077bc51286a0", (94, 102), (27, 194)),
        (2, "7eca5daf76f72201", (52, 167), (9, 193)),
        (777, "31c0e7122d4845ef", (122, 181), (180, 193)),
    ],
)
def test_generate_functions_pinned_at_monte_carlo_size(seed, digest, first, last):
    # The c03 workload size: m=200, K=100, d=2.
    pairs = generate_functions(200, 100, 2, seed).functions
    assert (pairs[0], pairs[-1]) == (first, last)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest()[:16] == digest


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
    # the sampler's set is not checked again; the checked hand-built set of
    # the same pairs is equal to it, array and all
    checked = FunctionSet(functions=fs.functions, d=d)
    assert fs == checked and fs.inputs.dtype == checked.inputs.dtype
    assert np.array_equal(fs.inputs, checked.inputs) and not fs.inputs.flags.writeable
    assert all(0 <= j < m for pair in fs.functions for j in pair)


def test_function_set_rejects_duplicates():
    with pytest.raises(InvariantViolation):
        FunctionSet(functions=((0, 1), (0, 1)), d=3)
    with pytest.raises(InvariantViolation):
        FunctionSet(functions=((2, 2),), d=3)
    with pytest.raises(InvariantViolation):
        FunctionSet(functions=((0, 1), (0, 2)), d=1)


@pytest.mark.parametrize(
    "functions, d, invariant, detail",
    [
        (((0, 1),), 0, "multiplicity-cap-positive", "d=0"),
        (((0, 1), (2, 2)), 3, "distinct-inputs", "pair (2, 2)"),
        (((0, 1), (3, 2)), 3, "pair-sorted", "pair (3, 2) not (low, high)"),
        (((0, 1), (1, 2), (0, 1)), 3, "distinct-pairs", "pair (0, 1) repeated"),
        (((0, 1), (0, 2)), 1, "multiplicity-cap", "message 0 used 2 > d=1 times"),
        # (0, 2) both repeats a pair and uses message 0 a third time: the
        # pair rules come first.
        (((0, 1), (0, 2), (0, 2)), 2, "distinct-pairs", "pair (0, 2) repeated"),
        # (3, 0) both is unsorted and uses message 0 a third time.
        (((0, 1), (0, 2), (3, 0)), 2, "pair-sorted", "pair (3, 0) not (low, high)"),
        # The first offending pair in order wins, whatever its rule: (0, 3)
        # breaks the cap before (5, 4) breaks the sort.
        (((0, 1), (0, 2), (0, 3), (5, 4)), 2, "multiplicity-cap", "message 0 used 3 > d=2 times"),
    ],
)
def test_function_set_names_first_offending_pair(functions, d, invariant, detail):
    with pytest.raises(InvariantViolation) as err:
        FunctionSet(functions=functions, d=d)
    assert (err.value.invariant, err.value.detail) == (invariant, detail)
    assert pair_fault(functions, d) == (invariant, detail)


_any_pair = st.tuples(st.integers(-2, 5), st.integers(-2, 5))
_pair_lists = st.one_of(
    st.lists(_any_pair, max_size=8),
    st.lists(_any_pair.filter(lambda pair: pair[0] < pair[1]), max_size=8, unique=True),
)


@settings(max_examples=300, deadline=None)
@given(_pair_lists, st.integers(1, 3))
def test_function_set_check_matches_pairwise_reference(pairs, d):
    functions = tuple(pairs)
    fault = pair_fault(functions, d)
    if fault is None:
        fs = FunctionSet(functions=functions, d=d)
        assert fs.inputs.shape == (len(functions), 2)
        assert fs.inputs.tolist() == [list(pair) for pair in functions]
    else:
        with pytest.raises(InvariantViolation) as err:
            FunctionSet(functions=functions, d=d)
        assert (err.value.invariant, err.value.detail) == fault


def test_function_set_inputs_built_once():
    fs = FunctionSet(functions=((0, 3), (1, 2)), d=1)
    assert fs.inputs is fs.inputs
    assert fs.inputs.tolist() == [[0, 3], [1, 2]]
    assert not fs.inputs.flags.writeable
    assert FunctionSet(functions=(), d=1).inputs.shape == (0, 2)
    assert fs == FunctionSet(functions=((0, 3), (1, 2)), d=1)


def test_placement_rejects_out_of_range():
    with pytest.raises(InvariantViolation):
        Placement.from_sets(m=3, n=1, side_info=(frozenset({3}),))


@pytest.mark.parametrize(
    "build, invariant",
    [
        (lambda: Placement(m=0, n=2, cells=np.zeros((2, 0))), "positive-dimensions"),
        (lambda: Placement.from_sets(m=3, n=0, side_info=()), "positive-dimensions"),
        (lambda: Placement(m=3, n=2, cells=np.zeros((3, 2))), "cells-shape"),
    ],
)
def test_placement_names_invariants(build, invariant):
    with pytest.raises(InvariantViolation) as err:
        build()
    assert err.value.invariant == invariant


def test_placement_is_not_equal_to_other_types():
    pl = demo_instance().placement
    assert pl != 3
    assert pl.__eq__(3) is NotImplemented


@pytest.mark.parametrize(
    "draw",
    [
        lambda: generate_placement(6, 4, 1.5, seed=0),
        lambda: generate_placement(6, 4, float("nan"), seed=0),
        lambda: generate_placement(0, 4, 0.5, seed=0),
        lambda: generate_placement(6, 0, 0.5, seed=0),
        lambda: generate_functions(6, 2, 0, seed=0),
    ],
)
def test_generators_reject_out_of_range_parameters(draw):
    with pytest.raises(ValueError):
        draw()


def test_placement_rejects_wrong_length():
    with pytest.raises(InvariantViolation) as err:
        Placement.from_sets(m=3, n=2, side_info=(frozenset(),))
    assert err.value.invariant == "side-info-length"


def test_from_sets_equals_generated():
    gen = generate_placement(15, 9, 0.4, seed=8)
    built = Placement.from_sets(15, 9, side_sets(gen), p=0.4, seed=gen.seed)
    assert built == gen
    assert hash(built) == hash(gen)
    assert np.array_equal(built.cells, gen.cells)
    assert Placement.from_sets(15, 9, side_sets(gen)) != gen  # metadata differs


def test_side_info_derived_from_cells():
    # The file writer's node lines and holders() both read cells.
    pl = generate_placement(20, 7, 0.1, seed=4)
    side = side_sets(pl)
    assert frozenset() in side  # an empty node line too
    text = instance_to_text(Instance(placement=pl, workload=FunctionSet(((0, 1),), d=1)))
    assert [line for line in text.splitlines() if line.startswith("node")] == [
        " ".join(["node", *map(str, sorted(s))]) for s in side
    ]
    assert pl.holders(3) == tuple(i for i, s in enumerate(side) if 3 in s)


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


@pytest.mark.parametrize(
    "functions, detail",
    [
        (((0, 5),), "function input 5 >= m=3"),
        (((-1, 2),), "function input -1 < 0"),
        (((0, 1), (1, 7), (-2, 0)), "function input 7 >= m=3"),
        (((0, 10**30),), f"function input {10**30} >= m=3"),
    ],
)
def test_instance_names_out_of_range_input(functions, detail):
    with pytest.raises(InvariantViolation) as err:
        Instance(
            placement=Placement.from_sets(m=3, n=1, side_info=(frozenset(),)),
            workload=FunctionSet(functions=functions, d=2),
        )
    assert (err.value.invariant, err.value.detail) == ("workload-index-range", detail)


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
    # a NumPy scalar p is written as the float it holds
    numpy_p = random_instance(6, 4, 2, 2, np.linspace(0.1, 0.5, 3)[1], 5)
    for name, case in [("gen.txt", inst), ("numpy_p.txt", numpy_p)]:
        path = tmp_path / name
        save_instance(case, path)
        assert load_instance(path) == case
    assert "p 0.30000000000000004\n" in instance_to_text(numpy_p)


def test_text_round_trip_stable():
    text = instance_to_text(demo_instance())
    assert instance_to_text(instance_from_text(text)) == text


def test_load_skips_comments_and_blank_lines():
    lines = instance_to_text(demo_instance()).splitlines()
    text = "# a whole-line comment\n\n" + "\n".join(f"{line}  # note" for line in lines)
    assert instance_from_text(text) == demo_instance()


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


def test_load_rejects_negative_index():
    text = instance_to_text(demo_instance()).replace("func 3 4", "func -1 4")
    with pytest.raises(InvariantViolation) as err:
        instance_from_text(text)
    assert err.value.invariant == "workload-index-range"
    assert err.value.detail == "function input -1 < 0"


def test_load_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        instance_from_text("flexshuffle-instance 1\nm x\n")
    assert err.value.line == 2


def test_load_rejects_bad_header():
    with pytest.raises(ParseError):
        instance_from_text("something-else 1\n")
    with pytest.raises(ParseError):
        instance_from_text("")
    for header, version in [("flexshuffle-instance 2", 2), ("flexshuffle-instance", 0)]:
        with pytest.raises(ParseError, match=f"line 1: unsupported format version {version}$"):
            instance_from_text(header + "\n")


def test_load_rejects_wrong_counts():
    text = instance_to_text(demo_instance()).replace("node 0 2 3\n", "")
    with pytest.raises(ParseError):
        instance_from_text(text)


def _demo_text_with(old: str, new: str) -> str:
    text = instance_to_text(demo_instance())
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("func 0 1\n", "func 0 1 2\n", "line 10: func line needs exactly two message indices"),
        ("d 2\n", "d 2\nq 1\n", "line 6: unknown directive 'q'"),
        ("d 2\n", "", "missing header field d"),
        ("func 3 4\n", "", "expected 3 func lines, found 2"),
    ],
)
def test_load_names_the_fault(old, new, message):
    with pytest.raises(ParseError) as err:
        instance_from_text(_demo_text_with(old, new))
    assert str(err.value) == message


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


@pytest.mark.parametrize("value", ["abc", "np.float64(0.3)"])
def test_load_rejects_p_that_is_not_a_float(value):
    text = _demo_text_with("d 2\n", f"d 2\np {value}\n")
    with pytest.raises(ParseError, match="field p: expected a float") as err:
        instance_from_text(text)
    assert err.value.line == 6


def test_load_rejects_repeated_node_index():
    text = _demo_text_with("node 1 3 5\n", "node 1 3 3 5\n")
    with pytest.raises(ParseError) as err:
        instance_from_text(text)
    assert err.value.line == 7


def test_load_rejects_trailing_header_token():
    text = _demo_text_with("flexshuffle-instance 1\n", "flexshuffle-instance 1 junk\n")
    with pytest.raises(ParseError) as err:
        instance_from_text(text)
    assert err.value.line == 1


def test_load_rejects_second_p_value():
    text = _demo_text_with("d 2\n", "d 2\np 0.5 0.9\n")
    with pytest.raises(ParseError) as err:
        instance_from_text(text)
    assert err.value.line == 6
    assert "one value" in str(err.value)


def test_load_rejects_oversized_placement():
    # a generated file's 64-bit seed, swapped into m, must not reach numpy
    text = instance_to_text(demo_instance()).replace("m 6", "m 7434755675892716031")
    with pytest.raises(ParseError, match="placement cells"):
        instance_from_text(text)


@st.composite
def generated_instances(draw):
    m = draw(st.integers(2, 12))
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    K = draw(st.integers(0, min(m * d // 2, m * (m - 1) // 2)))
    p = draw(st.floats(0.0, 1.0))
    return random_instance(m, n, K, d, p, seed=draw(st.integers(0, 999)))


@settings(max_examples=100, deadline=None)
@given(generated_instances())
def test_text_round_trip_property(inst):
    assert instance_from_text(instance_to_text(inst)) == inst


@settings(max_examples=300, deadline=None)
@given(generated_instances(), st.data())
def test_mutated_text_fails_only_with_parse_errors(inst, data):
    # A swapped-in 64-bit seed can become m; the parser refuses it before
    # allocating the placement.
    lines = instance_to_text(inst).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if not lines:
            break
        at = data.draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[at]
        elif kind == "duplicate":
            lines.insert(at, lines[at])
        else:
            tokens = [(r, t) for r, line in enumerate(lines) for t in range(len(line.split()))]
            (r1, t1), (r2, t2) = (data.draw(st.sampled_from(tokens)) for _ in range(2))
            words = [line.split() for line in lines]
            words[r1][t1], words[r2][t2] = words[r2][t2], words[r1][t1]
            lines = [" ".join(w) for w in words]
    try:
        instance_from_text("\n".join(lines) + "\n")
    except (ParseError, InvariantViolation):
        pass
