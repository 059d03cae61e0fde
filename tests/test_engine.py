from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import eager_run_plan

import flexshuffle.engine as engine
from flexshuffle.coding import best_coded_plan
from flexshuffle.coverage import Assignment, build_coverage_graph, hopcroft_karp
from flexshuffle.engine import (
    MessagePayload,
    coded_transmission,
    common_friends,
    decode_payload,
    demo_assignment,
    demo_payloads,
    demo_plan,
    encode_payload,
    intermediate_transmission,
    run_demo,
    run_plan,
    transmissions_from_coded_plan,
    transmissions_from_intermediate_plan,
    transmissions_from_uncoded_plan,
)
from flexshuffle.errors import DecodeFailure, InvariantViolation
from flexshuffle.instance import (
    Instance,
    demo_instance,
    generate_functions,
    generate_placement,
    random_instance,
)
from flexshuffle.shuffle import (
    greedy_raw_broadcasts,
    min_intermediate_broadcasts,
    min_raw_broadcasts,
    missing_messages,
)

GOLDEN = Path(__file__).parent / "data" / "demo_transcript.golden"

symbols = st.text(alphabet="ABCDEFGHij", min_size=1, max_size=3)


@settings(max_examples=100, deadline=None)
@given(owner=symbols, friends=st.frozensets(symbols, max_size=6))
def test_payload_codec_round_trip(owner, friends):
    payload = MessagePayload(owner=owner, friends=tuple(sorted(friends)))
    width = len(payload.content()) + 2 + 5
    assert decode_payload(encode_payload(payload, width)) == payload


def test_codec_empty_friend_set():
    payload = MessagePayload(owner="Z", friends=())
    assert decode_payload(encode_payload(payload, 16)) == payload


@pytest.mark.parametrize(
    "owner, friends, invariant",
    [
        ("A", ("b", "a"), "friends-sorted-unique"),
        ("A", ("a", "a"), "friends-sorted-unique"),
        ("A", ["a"], "friends-sorted-unique"),  # a list, not a tuple
        ("a:b", ("x",), "owner-separator"),  # would read back as ("a", ("b:x",))
        ("A", ("x,y",), "friend-separator"),  # would read back as ("x", "y")
        ("A", ("",), "friends-lone-empty"),  # would read back as ()
    ],
)
def test_payload_rejects_invalid_friend_lists(owner, friends, invariant):
    with pytest.raises(InvariantViolation) as err:
        MessagePayload(owner=owner, friends=friends)
    assert err.value.invariant == invariant


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("abc"), max_size=4).map(tuple))
def test_sorted_unique_check_matches_reference(friends):
    try:
        MessagePayload(owner="A", friends=friends)
        rejected = False
    except InvariantViolation as err:
        assert err.invariant == "friends-sorted-unique"
        rejected = True
    assert rejected == (tuple(sorted(set(friends))) != friends)


separator_symbols = st.text(alphabet="Ab:,", max_size=3)


@settings(max_examples=200, deadline=None)
@given(owner=separator_symbols, friends=st.frozensets(separator_symbols, max_size=4))
def test_accepted_payloads_round_trip(owner, friends):
    try:
        payload = MessagePayload(owner=owner, friends=tuple(sorted(friends)))
    except InvariantViolation:
        return
    assert decode_payload(encode_payload(payload, len(payload.content()) + 2)) == payload


def test_payload_content_is_built_once():
    payload = demo_payloads()[0]
    assert payload.content() is payload.content()


def test_oracle_values():
    payloads = demo_payloads()
    assert common_friends(payloads, (0, 1)) == ("D",)
    assert common_friends(payloads, (1, 2)) == ("A", "E")
    assert common_friends(payloads, (3, 4)) == ("B", "F")


def lacked_inputs(inst, assignment):
    """(node, function, message) for every input an assigned node lacks."""
    rows = inst.placement.cells.tolist()
    return sorted(
        (i, k, j) for k, i in assignment.pairs for j in inst.workload.functions[k] if not rows[i][j]
    )


def decoded_inputs(transcript):
    return sorted((i, k, j) for i, k, j, _ in transcript.decodes)


def test_run_plan_reads_held_inputs_demo():
    inst = demo_instance()
    transcript = run_demo()
    # A node reads the inputs it holds from its placement row and decodes
    # only the rest: node 0 holds A, C, E and runs {D,E}, so it decodes D.
    assert decoded_inputs(transcript) == lacked_inputs(inst, demo_assignment())
    assert [(k, j) for i, k, j, _ in transcript.decodes if i == 0] == [(2, 3)]


def test_run_plan_empty_side_info():
    from flexshuffle.instance import FunctionSet, Placement

    inst = Instance(
        placement=Placement.from_sets(m=2, n=2, side_info=(frozenset(), frozenset({0, 1}))),
        workload=FunctionSet(functions=((0, 1),), d=1),
    )
    payloads = {
        0: MessagePayload(owner="A", friends=("B",)),
        1: MessagePayload(owner="B", friends=("A",)),
    }
    # node 1 holds both inputs and needs nothing; node 0 holds nothing and
    # decodes both from node 1's broadcasts
    on_node_1 = Assignment(pairs=((0, 1),))
    transcript = run_plan(inst, payloads, [], on_node_1)
    assert transcript.decodes == []
    assert transcript.outputs == {0: ()}
    on_node_0 = Assignment(pairs=((0, 0),))
    broadcasts = [coded_transmission(inst, payloads, 1, (j,)) for j in (0, 1)]
    transcript = run_plan(inst, payloads, broadcasts, on_node_0)
    assert decoded_inputs(transcript) == lacked_inputs(inst, on_node_0) == [(0, 0, 0), (0, 0, 1)]
    assert transcript.outputs == {0: ()}


def test_one_message_support_is_raw():
    inst = demo_instance()
    payloads = demo_payloads()
    tx = coded_transmission(inst, payloads, 3, (0,))
    assert (tx.kind, tx.support) == ("raw", (0,))
    assert tx.data == encode_payload(payloads[0], len(tx.data))
    assert decode_payload(tx.data) == payloads[0]


def test_run_demo_success():
    transcript = run_demo()
    assert len(transcript.transmissions) == 2
    assert transcript.outputs == {0: ("D",), 1: ("A", "E"), 2: ("B", "F")}
    assert transcript.total_bytes == 2 * 9


def test_run_demo_matches_golden_transcript():
    assert run_demo().render() == GOLDEN.read_text()


def test_run_demo_empty_plan_fails_everywhere():
    with pytest.raises(DecodeFailure) as err:
        run_demo(plan="empty")
    assert len(err.value.failures) == 3
    assert {k for _, k, _ in err.value.failures} == {0, 1, 2}


def test_empty_plan_on_covered_instance():
    inst = Instance(
        placement=generate_placement(6, 4, 1.0, seed=0),
        workload=generate_functions(6, 3, 2, seed=1),
    )
    payloads = demo_payloads()
    graph = build_coverage_graph(inst)
    match_fn, _, matched = hopcroft_karp(graph.adjacency, graph.n_nodes)
    assert matched == inst.k
    transcript = run_plan(inst, payloads, [], Assignment(pairs=tuple(enumerate(match_fn))))
    assert transcript.decodes == []
    for k, pair in enumerate(inst.workload.functions):
        assert transcript.outputs[k] == common_friends(payloads, pair)


def test_sender_must_hold_support():
    inst = demo_instance()
    payloads = demo_payloads()
    with pytest.raises(InvariantViolation):
        coded_transmission(inst, payloads, sender=0, support=(1,))  # node 0 lacks B
    with pytest.raises(InvariantViolation):
        coded_transmission(inst, payloads, sender=0, support=(0, 1))
    with pytest.raises(InvariantViolation):
        intermediate_transmission(inst, payloads, sender=0, k=0, slot=1)


def synthetic_payloads(m, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    universe = [f"u{t}" for t in range(6)]
    out = {}
    for j in range(m):
        friends = tuple(
            sorted(u for u in universe if rng.random() < 0.5)
        )
        out[j] = MessagePayload(owner=f"m{j}", friends=friends)
    return out


def tiny_instance(seed, m=7, n=5, K=3, d=2, p=0.3):
    return Instance(
        placement=generate_placement(m, n, p, seed),
        workload=generate_functions(m, K, d, seed + 1),
    )


def assert_outputs_match_oracle(inst, payloads, transcript):
    for k, pair in enumerate(inst.workload.functions):
        assert transcript.outputs[k] == common_friends(payloads, pair)


def test_solver_plans_all_execute():
    checked = 0
    seed = 0
    while checked < 60:
        seed += 1
        inst = tiny_instance(seed)
        if missing_messages(inst) or inst.k > inst.n:
            continue
        payloads = synthetic_payloads(inst.m, seed)
        exact = min_raw_broadcasts(inst, budget=8)
        txs = transmissions_from_uncoded_plan(inst, payloads, exact)
        assert_outputs_match_oracle(
            inst, payloads, run_plan(inst, payloads, txs, exact.assignment)
        )
        greedy = greedy_raw_broadcasts(inst)
        txs = transmissions_from_uncoded_plan(inst, payloads, greedy)
        assert_outputs_match_oracle(
            inst, payloads, run_plan(inst, payloads, txs, greedy.assignment)
        )
        inter = min_intermediate_broadcasts(inst)
        txs = transmissions_from_intermediate_plan(inst, payloads, inter)
        assert_outputs_match_oracle(
            inst, payloads, run_plan(inst, payloads, txs, inter.assignment)
        )
        checked += 1


def test_coded_plans_decode():
    checked = 0
    seed = 0
    while checked < 30:
        seed += 1
        inst = tiny_instance(seed, m=6, n=4, K=2, d=2, p=0.3)
        if missing_messages(inst) or inst.k > inst.n:
            continue
        payloads = synthetic_payloads(inst.m, seed)
        plan = best_coded_plan(inst)
        txs = transmissions_from_coded_plan(inst, payloads, plan)
        assert len(txs) == plan.count
        assert_outputs_match_oracle(
            inst, payloads, run_plan(inst, payloads, txs, plan.assignment)
        )
        checked += 1


def test_demo_plan_transmission_invariants():
    inst = demo_instance()
    payloads = demo_payloads()
    for tx in demo_plan(inst, payloads):
        assert all(inst.placement.cells[tx.sender, j] for j in tx.support)
    assert demo_assignment().mapping == {0: 2, 1: 1, 2: 0}


def test_run_plan_builds_each_content_once(monkeypatch):
    inst = demo_instance()
    transmissions = demo_plan(inst, demo_payloads())
    builds = []
    build = MessagePayload._content.func
    counted = cached_property(lambda self: builds.append(1) or build(self))
    counted.__set_name__(MessagePayload, "_content")
    monkeypatch.setattr(MessagePayload, "_content", counted)
    # fresh payloads, so no content is cached before the run
    run_plan(inst, demo_payloads(), transmissions, demo_assignment())
    assert len(builds) == inst.m


def plan_outcome(run, inst, payloads, transmissions, assignment):
    try:
        return run(inst, payloads, transmissions, assignment).render()
    except DecodeFailure as err:
        return err.failures


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    shape=st.sampled_from([(6, 4, 2), (7, 5, 3), (6, 5, 3)]),
    p=st.sampled_from([0.3, 0.45]),
    data=st.data(),
)
def test_lazy_decoder_matches_eager_reference(seed, shape, p, data):
    m, n, K = shape
    inst = random_instance(m, n, K, 2, p, seed)
    assume(not missing_messages(inst))
    payloads = synthetic_payloads(m, seed)
    plans = [
        (transmissions_from_uncoded_plan, min_raw_broadcasts(inst, budget=8)),
        (transmissions_from_intermediate_plan, min_intermediate_broadcasts(inst)),
        (transmissions_from_coded_plan, best_coded_plan(inst)),
    ]
    for build, plan in plans:
        txs = build(inst, payloads, plan)
        # a plan with broadcasts dropped fails on some nodes, which checks
        # the failures and their order too
        kept = [tx for tx in txs if data.draw(st.booleans())]
        for sent in (txs, kept):
            assert plan_outcome(run_plan, inst, payloads, sent, plan.assignment) == plan_outcome(
                eager_run_plan, inst, payloads, sent, plan.assignment
            )


def test_nodes_holding_both_inputs_run_no_elimination(monkeypatch):
    from flexshuffle.instance import FunctionSet, Placement

    # node 0 holds both inputs of function 0; node 1 lacks input 0 of
    # function 1 and hears it from node 0
    inst = Instance(
        placement=Placement.from_sets(m=3, n=2, side_info=(frozenset({0, 1}), frozenset({1, 2}))),
        workload=FunctionSet(functions=((0, 1), (0, 2)), d=2),
    )
    payloads = synthetic_payloads(inst.m, 0)
    calls = []
    decode = engine._decode_node

    def counted(held, heard, local, wanted, names, width):
        calls.append((held, list(wanted)))
        return decode(held, heard, local, wanted, names, width)

    monkeypatch.setattr(engine, "_decode_node", counted)
    transcript = run_plan(
        inst, payloads, [coded_transmission(inst, payloads, 0, (0,))],
        Assignment(pairs=((0, 0), (1, 1))),
    )
    assert calls == [([False, True, True], [0])]
    assert decoded_inputs(transcript) == [(1, 1, 0)]
    assert_outputs_match_oracle(inst, payloads, transcript)
