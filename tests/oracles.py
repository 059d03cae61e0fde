"""Brute-force reference implementations used to cross-check the solvers.

Everything here enumerates exhaustively and stays independent of the
library's algorithms (no matching, assignment or rank code is shared).
"""

from __future__ import annotations

import functools
import itertools

from flexshuffle.engine import Transcript, decode_payload, encode_payload
from flexshuffle.errors import DecodeFailure, InvariantViolation


def side_sets(placement):
    """Per node, the frozenset of messages it holds, read cell by cell."""
    return tuple(
        frozenset(j for j, held in enumerate(row) if held) for row in placement.cells.tolist()
    )


def brute_max_matching(adjacency, n_nodes: int) -> int:
    """Largest injective partial assignment, by recursion over functions,
    memoised on (function, nodes used) so K above n stays cheap."""

    @functools.cache
    def go(k: int, used: frozenset) -> int:
        if k == len(adjacency):
            return 0
        best = go(k + 1, used)  # leave function k uncovered
        for i in adjacency[k]:
            if i not in used:
                best = max(best, 1 + go(k + 1, used | {i}))
        return best

    return go(0, frozenset())


def covered_nodes(instance, extra=frozenset()):
    """Adjacency lists after broadcasting ``extra`` to everyone."""
    side = side_sets(instance.placement)
    out = []
    for j1, j2 in instance.workload.functions:
        out.append(
            tuple(
                i
                for i, s in enumerate(side)
                if (j1 in s or j1 in extra) and (j2 in s or j2 in extra)
            )
        )
    return out


def missing_messages(instance):
    """Sorted workload messages outside the union of all side-info sets."""
    held = frozenset().union(*side_sets(instance.placement))
    return tuple(sorted(instance.workload.used_messages() - held))


def brute_min_raw_broadcasts(instance, max_size: int = 4):
    """Smallest broadcast set enabling a full matching, or None.

    Enumerates every subset of the held, workload-relevant messages up to
    ``max_size``, smallest first.
    """
    held = frozenset().union(*side_sets(instance.placement))
    candidates = sorted(instance.workload.used_messages() & held)
    K = instance.k
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            adj = covered_nodes(instance, frozenset(combo))
            if brute_max_matching(adj, instance.n) == K:
                return combo
    return None


def brute_min_intermediate(instance):
    """Minimum total missing-input count over all total injective assignments."""
    side = side_sets(instance.placement)
    K, n = instance.k, instance.n
    if K > n:
        return None
    best = None
    for nodes in itertools.permutations(range(n), K):
        total = sum(
            sum(1 for j in instance.workload.functions[k] if j not in side[i])
            for k, i in enumerate(nodes)
        )
        if best is None or total < best:
            best = total
    return best


def rank_gf2(rows, n_cols: int) -> int:
    """Independent GF(2) rank over lists of 0/1 lists."""
    work = [list(r) for r in rows]
    rank = 0
    for c in range(n_cols):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][c]:
                work[r] = [(a + b) % 2 for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def completions(demand_col, free_masks, n_cols: int):
    """Every completion of the cell pattern, as lists of 0/1 rows."""
    cells = [
        (r, c)
        for r, fm in enumerate(free_masks)
        for c in range(n_cols)
        if fm & (1 << c)
    ]
    for completion in range(1 << len(cells)):
        rows = []
        for r, dc in enumerate(demand_col):
            row = [0] * n_cols
            row[dc] = 1
            rows.append(row)
        for f, (r, c) in enumerate(cells):
            if (completion >> f) & 1:
                rows[r][c] = 1
        yield rows


def brute_minrank(demand_col, free_masks, n_cols: int) -> int:
    """Exhaustive minimum rank over all completions of the cell pattern."""
    best = None
    for rows in completions(demand_col, free_masks, n_cols):
        rank = rank_gf2(rows, n_cols)
        if best is None or rank < best:
            best = rank
    return 0 if best is None else best


def brute_supported_minrank(demand_col, free_masks, n_cols: int, node_masks):
    """Least rank over completions whose row space is spanned by the
    supportable vectors in it, or None when no completion qualifies.

    A vector is supportable when it is nonzero and lies inside one node's
    column mask, so one node can send it.
    """
    supportable = [
        [(v >> c) & 1 for c in range(n_cols)]
        for v in range(1, 1 << n_cols)
        if any(v & ~nm == 0 for nm in node_masks)
    ]
    best = None
    for rows in completions(demand_col, free_masks, n_cols):
        rank = rank_gf2(rows, n_cols)
        if best is not None and rank >= best:
            continue
        inside = [v for v in supportable if rank_gf2(rows + [v], n_cols) == rank]
        if rank_gf2(inside, n_cols) == rank:
            best = rank
    return best


def brute_mais(demand_col, free_masks) -> int:
    """Largest set of rows with distinct demand columns whose digraph
    "row r -> row s when r's free mask holds s's demand column" is acyclic.

    Tries every row subset, largest first; a subset is acyclic when
    repeatedly deleting a row with no edge to another remaining row
    empties it.
    """
    rows = range(len(demand_col))
    for size in range(len(demand_col), 0, -1):
        for subset in itertools.combinations(rows, size):
            if len({demand_col[r] for r in subset}) < size:
                continue
            left = set(subset)
            while sinks := {
                r for r in left if not any(free_masks[r] >> demand_col[s] & 1 for s in left)
            }:
                left -= sinks
            if not left:
                return size
    return 0


def brute_coded_count(instance):
    """Least sender-supportable coded broadcast count over all total
    injective assignments, or None when no assignment has such a code.

    Each assigned node demands every input it lacks, knowing its side
    information; columns are the demanded messages.
    """
    side = side_sets(instance.placement)
    functions = instance.workload.functions
    best = None
    for nodes in itertools.permutations(range(instance.n), instance.k):
        receivers = [
            (j, side[i]) for k, i in enumerate(nodes) for j in functions[k] if j not in side[i]
        ]
        columns = sorted({j for j, _ in receivers})
        col = {j: c for c, j in enumerate(columns)}
        demand_col = [col[j] for j, _ in receivers]
        free_masks = [sum(1 << col[j] for j in held if j in col)
                      for _, held in receivers]
        node_masks = [sum(1 << col[j] for j in s if j in col) for s in side]
        count = brute_supported_minrank(demand_col, free_masks, len(columns), node_masks)
        if count is not None and (best is None or count < best):
            best = count
    return best


def pair_fault(functions, d: int):
    """``(invariant, detail)`` of the first rule a workload breaks, or None.

    The pair rules are walked pair by pair, in the order the workload lists
    them, as ``FunctionSet`` once checked them itself.
    """
    if d < 1:
        return "multiplicity-cap-positive", f"d={d}"
    seen = set()
    counts: dict[int, int] = {}
    for pair in functions:
        j1, j2 = pair
        if j1 == j2:
            return "distinct-inputs", f"pair {pair}"
        if j1 > j2:
            return "pair-sorted", f"pair {pair} not (low, high)"
        if pair in seen:
            return "distinct-pairs", f"pair {pair} repeated"
        seen.add(pair)
        for j in pair:
            counts[j] = counts.get(j, 0) + 1
            if counts[j] > d:
                return "multiplicity-cap", f"message {j} used {counts[j]} > d={d} times"
    return None


def eager_run_plan(instance, payloads, transmissions, assignment):
    """``engine.run_plan`` as it once ran: every assigned node eliminates
    over every raw or coded broadcast and decodes every message in its
    span, and the reduce phase then reads what it needs.

    Kept as the reference that the lazy decoder's transcripts and failures
    must equal byte for byte.  It shares no decoding code with the engine:
    the row reduction below is a copy of ``gf2.insert``'s, because the
    provenance strings depend on its order.
    """
    if sorted(k for k, _ in assignment.pairs) != list(range(instance.k)):
        raise InvariantViolation("assignment-total", "every function needs a node")
    width = 2 + max(len(p.content()) for p in payloads.values())
    transcript = Transcript(transmissions=list(transmissions))
    received = {}
    for t, tx in enumerate(transcript.transmissions):
        if tx.kind == "intermediate":
            received[tx.support] = t
        elif len(tx.data) != width:
            raise InvariantViolation(
                "transmission-width", f"raw and coded data must be {width} bytes"
            )
    encoded = {j: int.from_bytes(encode_payload(p, width), "big") for j, p in payloads.items()}
    rows = instance.placement.cells.tolist()
    names = [f"tx{t}" for t in range(len(transmissions))]
    names += [f"local{j}" for j in range(instance.m)]
    failures, results = [], {}
    for k, i in assignment.pairs:
        decoded = _eager_decode(rows[i], encoded, transcript.transmissions, names, width)
        inputs = []
        for slot, j in enumerate(instance.workload.functions[k]):
            if rows[i][j]:
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
            results[k] = tuple(sorted(set(inputs[0]) & set(inputs[1])))
    if failures:
        raise DecodeFailure(failures)
    transcript.outputs = results
    return transcript


def _eager_decode(held, encoded, transmissions, names, width):
    """Every message one node recovers: {message: (payload, provenance)}."""
    n_msgs = len(held)
    local_at = n_msgs + len(transmissions)
    payload_at = local_at + n_msgs
    basis = {}
    for t, tx in enumerate(transmissions):
        if tx.kind == "intermediate":
            continue
        row = int.from_bytes(tx.data, "big") << payload_at | 1 << (n_msgs + t)
        for j in tx.support:
            if held[j]:
                row ^= encoded[j] << payload_at | 1 << (local_at + j)
            else:
                row ^= 1 << j
        for pivot, b in basis.items():
            if row & pivot:
                row ^= b
        coef = row & ((1 << n_msgs) - 1)
        if not coef:
            continue
        pivot = coef & -coef
        for p, b in basis.items():
            if b & pivot:
                basis[p] = b ^ row
        basis[pivot] = row
    decoded = {}
    for pivot, row in basis.items():
        if row & ((1 << n_msgs) - 1) == pivot:
            prov = row >> n_msgs & ((1 << len(names)) - 1)
            via = []
            while prov:
                low = prov & -prov
                via.append(names[low.bit_length() - 1])
                prov ^= low
            data = (row >> payload_at).to_bytes(width, "big")
            decoded[pivot.bit_length() - 1] = (decode_payload(data), "+".join(sorted(via)))
    return decoded
