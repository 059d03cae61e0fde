"""Properties of the GF(2) core and of the engine decoder built on it."""

from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import rank_gf2

from flexshuffle.engine import (
    MessagePayload,
    Transmission,
    _decode_node,
    _heard_rows,
    demo_payloads,
    encode_payload,
    payload_width,
)
from flexshuffle.gf2 import gf2_row_basis


def bit_lists(rows, n_cols):
    return [[(row >> c) & 1 for c in range(n_cols)] for row in rows]


@st.composite
def row_sets(draw, max_cols=10):
    n_cols = draw(st.integers(1, max_cols))
    rows = draw(st.lists(st.integers(0, (1 << n_cols) - 1), max_size=12))
    return rows, n_cols


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_rank_matches_oracle(case):
    rows, n_cols = case
    assert len(gf2_row_basis(rows, n_cols)) == rank_gf2(bit_lists(rows, n_cols), n_cols)


@settings(max_examples=300, deadline=None)
@given(row_sets())
def test_row_basis_is_reduced_and_spans(case):
    rows, n_cols = case
    basis = gf2_row_basis(rows, n_cols)
    pivots = [b & -b for b in basis]
    assert all(basis) and len(set(pivots)) == len(pivots)
    for p in pivots:
        assert sum(1 for b in basis if b & p) == 1
    rank = rank_gf2(bit_lists(rows, n_cols), n_cols)
    assert len(basis) == rank
    assert rank_gf2(bit_lists(rows + basis, n_cols), n_cols) == rank


friends = st.lists(st.sampled_from("ABCDEFGH"), unique=True, max_size=5).map(
    lambda f: tuple(sorted(f))
)


@st.composite
def decode_cases(draw):
    m = draw(st.integers(1, 6))
    payloads = {
        j: MessagePayload(owner=f"m{j}", friends=draw(friends)) for j in range(m)
    }
    side = frozenset(draw(st.sets(st.integers(0, m - 1))))
    # A support may name a message twice; the two copies cancel.
    supports = draw(
        st.lists(st.lists(st.integers(0, m - 1), min_size=1, max_size=4), max_size=6)
    )
    return payloads, side, [tuple(sorted(s)) for s in supports]


def xor(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b, strict=True))


@settings(max_examples=300, deadline=None)
@given(decode_cases())
# Node 1 of the demo (holding 1, 3, 5) hears message 0 raw, 2 XOR 2 (all
# zeros) and message 3 raw: message 2 is not in the span.
@example((demo_payloads(), frozenset({1, 3, 5}), [(0,), (2, 2), (3,)]))
def test_decoder_recovers_exactly_the_span(case):
    payloads, side, supports = case
    m = len(payloads)
    width = payload_width(payloads)
    raw = {j: encode_payload(p, width) for j, p in payloads.items()}
    transmissions = []
    for support in supports:
        data = bytes(width)
        for j in support:
            data = xor(data, raw[j])
        transmissions.append(Transmission(sender=0, kind="coded", support=support, data=data))
    shared, local = _heard_rows(transmissions, payloads, width, m)
    held = [j in side for j in range(m)]
    names = [f"tx{t}" for t in range(len(transmissions))] + [f"local{j}" for j in range(m)]
    # ask for every message, so the span check below covers all of them
    decoded = _decode_node(held, shared, local, range(m), names, width)

    heard = [reduce(int.__xor__, (1 << j for j in s if j not in side), 0) for s in supports]
    rank = rank_gf2(bit_lists(heard, m), m)
    for j in range(m):
        in_span = rank_gf2(bit_lists(heard + [1 << j], m), m) == rank
        assert (j in decoded) == (in_span and j not in side)
    for j, (payload, via) in decoded.items():
        assert payload == payloads[j]
        # the provenance names the broadcasts and local messages that sum to it
        total = bytes(width)
        for name in via.split("+"):
            if name.startswith("tx"):
                total = xor(total, transmissions[int(name[2:])].data)
            else:
                assert int(name[5:]) in side
                total = xor(total, raw[int(name[5:])])
        assert total == raw[j]
