"""End-to-end execution: map phase, broadcast shuffle, reduce phase.

Message payloads are friend lists.  The map phase projects each message to
the intermediate values the functions need (here the identity on the
friend set), the shuffle phase executes a plan of raw, coded (XOR of raw
encodings) or intermediate broadcasts, and the reduce phase intersects the
two friend sets of each function.  Every run is checked against the direct
set-intersection oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if tuple(sorted(set(self.friends))) != self.friends:
            raise InvariantViolation("friends-sorted-unique", f"{self.friends}")

    def content(self) -> bytes:
        return (self.owner + ":" + PAYLOAD_SEPARATOR.join(self.friends)).encode("utf-8")


def payload_width(payloads: dict[int, MessagePayload]) -> int:
    """Fixed wire width: length prefix plus the longest content."""
    return _LEN_BYTES + max(len(p.content()) for p in payloads.values())


def encode_payload(payload: MessagePayload, width: int) -> bytes:
    """Length-prefixed canonical bytes, zero-padded to ``width``."""
    content = payload.content()
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


def map_phase(instance: Instance, payloads: dict[int, MessagePayload]):
    """Intermediate values each node can compute locally.

    Returns {node: {(function, slot): friend tuple}}; the per-input map is
    the identity on the friend set, so the value for slot s of function k is
    just the friend list of that input message.
    """
    values: dict[int, dict[tuple[int, int], tuple[str, ...]]] = {}
    for i, held in enumerate(instance.placement.cells.tolist()):
        mine = {}
        for k, pair in enumerate(instance.workload.functions):
            for slot, j in enumerate(pair):
                if held[j]:
                    mine[(k, slot)] = payloads[j].friends
        values[i] = mine
    return values


def raw_transmission(
    instance: Instance, payloads: dict[int, MessagePayload], sender: int, j: int
) -> Transmission:
    width = payload_width(payloads)
    if not instance.placement.cells[sender].tolist()[j]:
        raise InvariantViolation("sender-holds-support", f"node {sender} lacks message {j}")
    return Transmission(
        sender=sender, kind="raw", support=(j,), data=encode_payload(payloads[j], width)
    )


def coded_transmission(
    instance: Instance, payloads: dict[int, MessagePayload], sender: int, support
) -> Transmission:
    width = payload_width(payloads)
    support = tuple(sorted(support))
    held = instance.placement.cells[sender].tolist()
    lacking = {j for j in support if not held[j]}
    if lacking:
        raise InvariantViolation("sender-holds-support", f"node {sender} lacks {lacking}")
    data = 0
    for j in support:
        data ^= int.from_bytes(encode_payload(payloads[j], width), "big")
    return Transmission(
        sender=sender, kind="coded", support=support, data=data.to_bytes(width, "big")
    )


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
    return [raw_transmission(instance, payloads, senders[j], j) for j in plan.broadcast_messages]


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
    out = []
    for support, sender in zip(plan.broadcasts, plan.senders):
        if len(support) == 1:
            out.append(raw_transmission(instance, payloads, sender, next(iter(support))))
        else:
            out.append(coded_transmission(instance, payloads, sender, support))
    return out


def _decode_node(held, encoded, transmissions, n_msgs: int, width: int):
    """Messages a node can recover by GF(2) elimination over what it heard.

    Each raw or coded transmission becomes one augmented row: the mask of
    its messages the node lacks (bits below ``n_msgs``), then provenance
    bits for the transmission and for each local message XORed out of it,
    then the payload.  ``held[j]`` is true when the node holds message j,
    and ``encoded`` maps each held message to its encoding as an int.
    Returns {message: (payload, provenance string)}.
    """
    local_at = n_msgs + len(transmissions)
    payload_at = local_at + n_msgs
    basis: dict[int, int] = {}
    for t, tx in enumerate(transmissions):
        if tx.kind == "intermediate":
            continue
        row = int.from_bytes(tx.data, "big") << payload_at | 1 << (n_msgs + t)
        for j in tx.support:
            if held[j]:
                row ^= encoded[j] << payload_at | 1 << (local_at + j)
            else:
                row |= 1 << j
        gf2.insert(basis, row, n_msgs)
    names = [f"tx{t}" for t in range(len(transmissions))] + [f"local{j}" for j in range(n_msgs)]
    decoded = {}
    for pivot, row in basis.items():
        if row & ((1 << n_msgs) - 1) == pivot:
            prov = row >> n_msgs
            via = sorted(name for b, name in enumerate(names) if prov >> b & 1)
            data = (row >> payload_at).to_bytes(width, "big")
            decoded[pivot.bit_length() - 1] = (decode_payload(data), "+".join(via))
    return decoded


def run_plan(
    instance: Instance,
    payloads: dict[int, MessagePayload],
    transmissions: list[Transmission],
    assignment: Assignment,
) -> Transcript:
    """Execute a shuffle plan and reduce every assigned function.

    Each assigned node recovers its missing inputs from the broadcasts (XOR
    elimination against its own side information), then intersects the two
    friend sets.  Raises DecodeFailure listing every (node, function,
    message) triple that cannot be recovered.
    """
    if sorted(k for k, _ in assignment.pairs) != list(range(instance.k)):
        raise InvariantViolation("assignment-total", "every function needs a node")
    width = payload_width(payloads)
    if any(len(tx.data) != width for tx in transmissions if tx.kind != "intermediate"):
        raise InvariantViolation("transmission-width", f"raw and coded data must be {width} bytes")
    encoded = {j: int.from_bytes(encode_payload(p, width), "big") for j, p in payloads.items()}
    transcript = Transcript(transmissions=list(transmissions))
    values = map_phase(instance, payloads)
    rows = instance.placement.cells.tolist()
    failures = []
    results: dict[int, tuple[str, ...]] = {}
    received = {
        tx.support: tx
        for tx in transcript.transmissions
        if tx.kind == "intermediate"
    }
    for k, i in assignment.pairs:
        decoded = _decode_node(rows[i], encoded, transcript.transmissions, instance.m, width)
        inputs = []
        for slot, j in enumerate(instance.workload.functions[k]):
            if (k, slot) in values[i]:
                inputs.append(values[i][(k, slot)])
            elif j in decoded:
                payload, via = decoded[j]
                transcript.decodes.append((i, k, j, via))
                inputs.append(payload.friends)
            elif (k, slot) in received:
                tx = received[(k, slot)]
                t = transcript.transmissions.index(tx)
                transcript.decodes.append((i, k, j, f"tx{t}"))
                inputs.append(decode_payload(tx.data).friends)
            else:
                failures.append((i, k, j))
                inputs = None
                break
        if inputs is not None:
            results[k] = tuple(sorted(set(inputs[0]) & set(inputs[1])))
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
        raw_transmission(instance, payloads, sender=3, j=0),
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
