"""End-to-end execution: map phase, broadcast shuffle, reduce phase.

Message payloads are friend lists.  The map phase projects each message to
the intermediate values the functions need; here that is the identity on
the friend set, so a node reads its held inputs straight from the
payloads.  The shuffle phase executes a plan of message broadcasts (the
XOR of the encodings of one or more messages, raw when there is one) or
intermediate broadcasts, and the reduce phase intersects the two friend
sets of each function.  Every run is checked against the direct
set-intersection oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import gf2
from .coverage import Assignment
from .errors import DecodeFailure, InvariantViolation
from .instance import Instance, demo_instance
from .shuffle import IntermediatePlan, UncodedPlan

PAYLOAD_SEPARATOR = ","
_LEN_BYTES = 2


@dataclass(frozen=True)
class MessagePayload:
    """One user's friend list: an owner symbol plus a sorted friend set."""

    owner: str
    friends: tuple[str, ...]

    def __post_init__(self):
        # sorting an already sorted tuple is linear, so test order and
        # uniqueness apart
        friends = self.friends
        if tuple(sorted(friends)) != friends or len(set(friends)) != len(friends):
            raise InvariantViolation("friends-sorted-unique", f"{friends}")
        # The codec splits the content at the first ":" and then at every
        # ",", so these would come back as a different payload.
        if ":" in self.owner:
            raise InvariantViolation("owner-separator", f"owner {self.owner!r} contains ':'")
        if PAYLOAD_SEPARATOR in "".join(friends):
            raise InvariantViolation(
                "friend-separator", f"a friend in {friends} contains {PAYLOAD_SEPARATOR!r}"
            )
        if friends == ("",):
            raise InvariantViolation("friends-lone-empty", "one empty friend reads back as none")

    def content(self) -> bytes:
        return self._content

    @cached_property
    def _content(self) -> bytes:
        # payloads are immutable and shared by every plan of a solve
        return (self.owner + ":" + PAYLOAD_SEPARATOR.join(self.friends)).encode("utf-8")


def payload_width(payloads: dict[int, MessagePayload]) -> int:
    """Fixed wire width: length prefix plus the longest content."""
    return _LEN_BYTES + max(len(p.content()) for p in payloads.values())


def encode_payload(payload: MessagePayload, width: int) -> bytes:
    """Length-prefixed canonical bytes, zero-padded to ``width``."""
    return _framed(payload.content(), width)


def _framed(content: bytes, width: int) -> bytes:
    if _LEN_BYTES + len(content) > width:
        raise ValueError(f"payload needs {_LEN_BYTES + len(content)} bytes, width is {width}")
    return len(content).to_bytes(_LEN_BYTES, "big") + content + b"\x00" * (
        width - _LEN_BYTES - len(content)
    )


def decode_payload(data: bytes) -> MessagePayload:
    length = int.from_bytes(data[:_LEN_BYTES], "big")
    text = data[_LEN_BYTES : _LEN_BYTES + length].decode("utf-8")
    owner, _, friends = text.partition(":")
    return MessagePayload(
        owner=owner, friends=tuple(friends.split(PAYLOAD_SEPARATOR)) if friends else ()
    )


@dataclass(frozen=True)
class Transmission:
    """One broadcast: raw or coded carries message encodings, intermediate
    carries a single per-function value."""

    sender: int
    kind: str  # "raw" | "coded" | "intermediate"
    support: tuple  # message indices, or (function, slot) for intermediate
    data: bytes


@dataclass
class Transcript:
    transmissions: list[Transmission] = field(default_factory=list)
    decodes: list[tuple[int, int, int, str]] = field(default_factory=list)
    outputs: dict[int, tuple[str, ...]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return sum(len(t.data) for t in self.transmissions)

    def lines(self) -> list[str]:
        out = []
        for t, tx in enumerate(self.transmissions):
            support = "+".join(str(s) for s in tx.support)
            out.append(
                f"tx {t} sender={tx.sender} kind={tx.kind} support={support} bytes={len(tx.data)}"
            )
        for node, func, msg, via in self.decodes:
            out.append(f"decode node={node} func={func} msg={msg} via={via}")
        for func in sorted(self.outputs):
            out.append(f"reduce func={func} out={PAYLOAD_SEPARATOR.join(self.outputs[func])}")
        out.append(f"total transmissions={len(self.transmissions)} bytes={self.total_bytes}")
        return out

    def render(self) -> str:
        return "\n".join(self.lines()) + "\n"


def common_friends(payloads: dict[int, MessagePayload], pair) -> tuple[str, ...]:
    """Direct answer for one function: the sorted intersection of the two
    friend sets.  This is the oracle every executed plan is checked against."""
    j1, j2 = pair
    return tuple(sorted(set(payloads[j1].friends) & set(payloads[j2].friends)))


def coded_transmission(
    instance: Instance, payloads: dict[int, MessagePayload], sender: int, support
) -> Transmission:
    """One broadcast of the XOR of the ``support`` messages' encodings; a
    one-message support is sent raw."""
    return _message_transmissions(instance, payloads, [(support, sender)])[0]


def _message_transmissions(
    instance: Instance, payloads: dict[int, MessagePayload], sends
) -> list[Transmission]:
    """One broadcast per (support, sender) pair in ``sends``, all at one
    payload width; only the support's messages are encoded."""
    if not sends:
        return []
    width = payload_width(payloads)
    rows = instance.placement.cells.tolist()
    out = []
    for support, sender in sends:
        support = tuple(sorted(support))
        lacking = {j for j in support if not rows[sender][j]}
        if lacking:
            raise InvariantViolation("sender-holds-support", f"node {sender} lacks {lacking}")
        data = 0
        for j in support:
            data ^= int.from_bytes(encode_payload(payloads[j], width), "big")
        kind = "raw" if len(support) == 1 else "coded"
        data = data.to_bytes(width, "big")
        out.append(Transmission(sender=sender, kind=kind, support=support, data=data))
    return out


def intermediate_transmission(
    instance: Instance, payloads: dict[int, MessagePayload], sender: int, k: int, slot: int
) -> Transmission:
    j = instance.workload.functions[k][slot]
    if not instance.placement.cells[sender].tolist()[j]:
        raise InvariantViolation(
            "sender-computes-value", f"node {sender} cannot produce slot {slot} of function {k}"
        )
    # never XORed with anything, so it travels at its natural length
    value = MessagePayload(owner=f"{k}.{slot}", friends=payloads[j].friends)
    return Transmission(
        sender=sender,
        kind="intermediate",
        support=(k, slot),
        data=encode_payload(value, _LEN_BYTES + len(value.content())),
    )


def transmissions_from_uncoded_plan(
    instance: Instance, payloads: dict[int, MessagePayload], plan: UncodedPlan
) -> list[Transmission]:
    senders = dict(plan.senders)
    sends = [((j,), senders[j]) for j in plan.broadcast_messages]
    return _message_transmissions(instance, payloads, sends)


def transmissions_from_intermediate_plan(
    instance: Instance, payloads: dict[int, MessagePayload], plan: IntermediatePlan
) -> list[Transmission]:
    out = []
    rows = instance.placement.cells.tolist()
    for k, i in plan.assignment.pairs:
        for slot, j in enumerate(instance.workload.functions[k]):
            if not rows[i][j]:
                sender = instance.placement.holders(j)[0]
                out.append(intermediate_transmission(instance, payloads, sender, k, slot))
    return out


def transmissions_from_coded_plan(
    instance: Instance, payloads: dict[int, MessagePayload], plan
) -> list[Transmission]:
    return _message_transmissions(instance, payloads, list(zip(plan.broadcasts, plan.senders)))


def _heard_rows(transmissions, payloads, width: int, n_msgs: int):
    """The parts of every node's augmented rows that do not depend on the node.

    Each raw or coded transmission t becomes the row of its payload and its
    provenance bit ``tx{t}``; a node then XORs in, for each support message
    j, either its unknown bit j or, when it holds j, ``local[j]``: the
    encoding of j and its provenance bit ``local{j}``.  ``payloads`` maps
    each message to its payload.  Bits are laid out as in
    ``_decode_node``.  Returns (heard, local): heard lists (support, row)
    per raw or coded transmission in order, and local covers exactly the
    messages named in some support.
    """
    local_at = n_msgs + len(transmissions)
    payload_at = local_at + n_msgs
    heard = [
        (tx.support, int.from_bytes(tx.data, "big") << payload_at | 1 << (n_msgs + t))
        for t, tx in enumerate(transmissions)
        if tx.kind != "intermediate"
    ]
    local = {
        j: int.from_bytes(_framed(payloads[j].content(), width), "big") << payload_at
        | 1 << (local_at + j)
        for j in {j for support, _ in heard for j in support}
    }
    return heard, local


def _decode_node(held, heard, local, wanted, names, width: int):
    """The ``wanted`` messages a node recovers by GF(2) elimination over
    what it heard.

    Each raw or coded transmission becomes one augmented row: the XOR of
    the bits of its messages the node lacks (one bit per message), so a
    message repeated in the support cancels as its payload does, then
    provenance bits for the transmission and for each local message XORed
    out of it, then the payload.  ``held[j]`` is true when the node holds
    message j, ``heard`` and ``local`` come from ``_heard_rows``, and
    ``names[b]`` names provenance bit b: ``tx{t}`` for each transmission,
    then ``local{j}`` for each message.  Every heard row is eliminated, so
    a recovered message's provenance does not depend on ``wanted``.
    Returns {message: (payload, provenance string)} for each wanted
    message in the span.
    """
    n_msgs = len(held)
    payload_at = n_msgs + len(names)
    basis: dict[int, int] = {}
    for support, row in heard:
        for j in support:
            row ^= local[j] if held[j] else 1 << j
        gf2.insert(basis, row, n_msgs)
    decoded = {}
    for j in wanted:
        row = basis.get(1 << j)
        # the basis is fully reduced, so j is in the span exactly when the
        # row with pivot j has no other unknown bit
        if row is None or row & ((1 << n_msgs) - 1) != 1 << j:
            continue
        prov = row >> n_msgs & ((1 << len(names)) - 1)
        via = []
        while prov:
            low = prov & -prov
            via.append(names[low.bit_length() - 1])
            prov ^= low
        data = (row >> payload_at).to_bytes(width, "big")
        decoded[j] = (decode_payload(data), "+".join(sorted(via)))
    return decoded


def run_plan(
    instance: Instance,
    payloads: dict[int, MessagePayload],
    transmissions: list[Transmission],
    assignment: Assignment,
) -> Transcript:
    """Execute a shuffle plan and reduce every assigned function.

    Each assigned node reads the inputs it holds from the payloads and
    recovers the ones it lacks from the broadcasts (XOR elimination against
    its own side information), then intersects the two friend sets.  A
    node that holds both inputs runs no elimination.  Raises DecodeFailure
    listing every (node, function, message) triple that cannot be
    recovered.
    """
    if sorted(k for k, _ in assignment.pairs) != list(range(instance.k)):
        raise InvariantViolation("assignment-total", "every function needs a node")
    width = payload_width(payloads)
    transcript = Transcript(transmissions=list(transmissions))
    received: dict[tuple[int, int], int] = {}  # (function, slot) -> intermediate tx index
    for t, tx in enumerate(transcript.transmissions):
        if tx.kind == "intermediate":
            received[tx.support] = t
        elif len(tx.data) != width:
            raise InvariantViolation(
                "transmission-width", f"raw and coded data must be {width} bytes"
            )
    heard, local = _heard_rows(transcript.transmissions, payloads, width, instance.m)
    rows = instance.placement.cells.tolist()
    names = [f"tx{t}" for t in range(len(transmissions))]
    names += [f"local{j}" for j in range(instance.m)]
    failures = []
    results: dict[int, tuple[str, ...]] = {}
    for k, i in assignment.pairs:
        held = rows[i]
        pair = instance.workload.functions[k]
        lacked = [j for j in pair if not held[j]]
        decoded = _decode_node(held, heard, local, lacked, names, width) if lacked else {}
        inputs = []
        for slot, j in enumerate(pair):
            if held[j]:
                inputs.append(payloads[j].friends)
            elif j in decoded:
                payload, via = decoded[j]
                transcript.decodes.append((i, k, j, via))
                inputs.append(payload.friends)
            elif (k, slot) in received:
                t = received[(k, slot)]
                transcript.decodes.append((i, k, j, f"tx{t}"))
                inputs.append(decode_payload(transcript.transmissions[t].data).friends)
            else:
                failures.append((i, k, j))
                inputs = None
                break
        if inputs is not None:
            results[k] = tuple(sorted(set(inputs[0]).intersection(inputs[1])))
    if failures:
        raise DecodeFailure(failures)
    transcript.outputs = results
    return transcript


# ---------------------------------------------------------------------------
# The common-friends walkthrough


def demo_payloads() -> dict[int, MessagePayload]:
    """Friend lists of users A..F, keyed by message index 0..5."""
    friends = {
        "A": ("B", "C", "D"),
        "B": ("A", "D", "E"),
        "C": ("A", "E"),
        "D": ("A", "B", "F"),
        "E": ("B", "C", "F"),
        "F": ("D", "E"),
    }
    return {
        j: MessagePayload(owner=owner, friends=friends[owner])
        for j, owner in enumerate("ABCDEF")
    }


def demo_plan(instance: Instance, payloads: dict[int, MessagePayload]) -> list[Transmission]:
    """The two-broadcast plan: node 3 sends message 0 raw and 2 XOR 3 coded."""
    return [
        coded_transmission(instance, payloads, sender=3, support=(0,)),
        coded_transmission(instance, payloads, sender=3, support=(2, 3)),
    ]


def demo_assignment() -> Assignment:
    """{A,B} on node 2, {B,C} on node 1, {D,E} on node 0."""
    return Assignment(pairs=((0, 2), (1, 1), (2, 0)))


def run_demo(plan: str = "default") -> Transcript:
    """Run the walkthrough end to end and verify outputs against the oracle.

    ``plan="empty"`` broadcasts nothing, which fails to decode on all three
    functions.
    """
    instance = demo_instance()
    payloads = demo_payloads()
    transmissions = [] if plan == "empty" else demo_plan(instance, payloads)
    transcript = run_plan(instance, payloads, transmissions, demo_assignment())
    for k, pair in enumerate(instance.workload.functions):
        expected = common_friends(payloads, pair)
        if transcript.outputs[k] != expected:
            raise AssertionError(
                f"function {k}: got {transcript.outputs[k]}, oracle says {expected}"
            )
    return transcript
