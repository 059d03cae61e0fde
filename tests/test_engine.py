from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flexshuffle.coding import best_coded_plan
from flexshuffle.coverage import build_coverage_graph, max_matching
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
    map_phase,
    raw_transmission,
    run_demo,
    run_plan,
    transmissions_from_coded_plan,
    transmissions_from_intermediate_plan,
    transmissions_from_uncoded_plan,
    xor_bytes,
)
from flexshuffle.errors import DecodeFailure, InvariantViolation
from flexshuffle.instance import (
    Instance,
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


def test_xor_self_is_zero():
    payload = MessagePayload(owner="A", friends=("B", "C"))
    enc = encode_payload(payload, 12)
    assert xor_bytes(enc, enc) == bytes(12)


def test_xor_pair_recovers():
    a = encode_payload(MessagePayload(owner="A", friends=("B",)), 10)
    b = encode_payload(MessagePayload(owner="C", friends=("D", "E")), 10)
    assert xor_bytes(xor_bytes(a, b), b) == a


def test_oracle_values():
    payloads = demo_payloads()
    assert common_friends(payloads, (0, 1)) == ("D",)
    assert common_friends(payloads, (1, 2)) == ("A", "E")
    assert common_friends(payloads, (3, 4)) == ("B", "F")


def test_map_phase_demo():
    inst = demo_instance()
    values = map_phase(inst, demo_payloads())
    # node 0 holds A, C, E: slots it can serve are (f0 slot 0)=A,
    # (f1 slot 1)=C, (f2 slot 1)=E
    assert set(values[0]) == {(0, 0), (1, 1), (2, 1)}
    assert values[0][(0, 0)] == ("B", "C", "D")


def test_map_phase_empty_side_info():
    from flexshuffle.instance import FunctionSet, Placement

    inst = Instance(
        placement=Placement.from_sets(m=2, n=2, side_info=(frozenset(), frozenset({0, 1}))),
        workload=FunctionSet(functions=((0, 1),), d=1),
    )
    payloads = {
        0: MessagePayload(owner="A", friends=("B",)),
        1: MessagePayload(owner="B", friends=("A",)),
    }
    values = map_phase(inst, payloads)
    assert values[0] == {}
    assert set(values[1]) == {(0, 0), (0, 1)}


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
    result = max_matching(build_coverage_graph(inst))
    transcript = run_plan(inst, payloads, [], result.assignment)
    assert transcript.decodes == []
    for k, pair in enumerate(inst.workload.functions):
        assert transcript.outputs[k] == common_friends(payloads, pair)


def test_sender_must_hold_support():
    inst = demo_instance()
    payloads = demo_payloads()
    with pytest.raises(InvariantViolation):
        raw_transmission(inst, payloads, sender=0, j=1)  # node 0 lacks B
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
        assert set(tx.support) <= inst.placement.side_info[tx.sender]
    assert demo_assignment().mapping == {0: 2, 1: 1, 2: 0}
