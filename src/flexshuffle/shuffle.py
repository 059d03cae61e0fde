"""Minimum uncoded broadcast counts.

Two scenarios are solved: broadcasting raw messages (one broadcast can
serve many nodes) and broadcasting per-function intermediate values (each
useful to a single node).  The raw count has an exact iterative-deepening
solver and a greedy upper-bound heuristic; the intermediate count reduces
to a min-cost assignment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .coverage import Assignment, hopcroft_karp
from .errors import BudgetExceeded, Infeasible, InvariantViolation, Outage
from .instance import Instance


@dataclass(frozen=True)
class UncodedPlan:
    """A set of raw-message broadcasts plus the assignment they enable."""

    broadcast_messages: tuple[int, ...]
    senders: tuple[tuple[int, int], ...]  # (message, sending node)
    assignment: Assignment

    @property
    def size(self) -> int:
        return len(self.broadcast_messages)


@dataclass(frozen=True)
class IntermediatePlan:
    """A total assignment plus the per-function count of missing inputs."""

    assignment: Assignment
    cost_per_function: tuple[int, ...]
    total: int

    def __post_init__(self):
        if self.total != sum(self.cost_per_function):
            raise InvariantViolation("total-is-sum")


def missing_messages(instance: Instance) -> tuple[int, ...]:
    """Messages used by some function but held by no node (outage set)."""
    held = instance.placement.cells.any(axis=0)
    return tuple(j for j in sorted(instance.workload.used_messages()) if not held[j])


def _missing_masks(instance: Instance) -> list[list[int]]:
    """missing[k][i]: bitmask of function k's inputs that node i lacks."""
    side_masks = [
        sum(1 << j for j in s) for s in instance.placement.side_info
    ]
    out = []
    for j1, j2 in instance.workload.functions:
        pair_mask = (1 << j1) | (1 << j2)
        out.append([pair_mask & ~sm for sm in side_masks])
    return out


def _missing_counts(instance: Instance) -> np.ndarray:
    """counts[k, i]: how many of function k's inputs node i lacks (0-2)."""
    lacks = ~instance.placement.cells
    j1, j2 = instance.workload.inputs.T
    return (lacks[:, j1].astype(np.int64) + lacks[:, j2]).T


def _augmented_adjacency(missing: list[list[int]], x_mask: int) -> list[tuple[int, ...]]:
    inv = ~x_mask
    return [
        tuple(i for i, mm in enumerate(row) if mm & inv == 0)
        for row in missing
    ]


def _mask_bits(mask: int) -> list[int]:
    bits = []
    j = 0
    while mask:
        if mask & 1:
            bits.append(j)
        mask >>= 1
        j += 1
    return bits


def _check_solvable(instance: Instance) -> None:
    missing = missing_messages(instance)
    if missing:
        raise Outage(missing)
    if instance.k > instance.n:
        raise Infeasible(f"K={instance.k} functions but only n={instance.n} nodes")


def _plan(instance: Instance, messages: tuple[int, ...], matching: dict[int, int]) -> UncodedPlan:
    senders = tuple((j, instance.placement.holders(j)[0]) for j in messages)
    return UncodedPlan(
        broadcast_messages=messages,
        senders=senders,
        assignment=Assignment(pairs=tuple(sorted(matching.items()))),
    )


def min_raw_broadcasts(instance: Instance, budget: int = 8) -> UncodedPlan:
    """Smallest set of raw-message broadcasts after which a full matching exists.

    Iterative deepening over the broadcast-set size with lexicographic subset
    enumeration, so the returned optimum is deterministic.  Only messages
    that are missing from some (function, node) pair can change the graph,
    which keeps the candidate pool small.

    Raises Outage when a needed message is held by nobody, Infeasible when
    K > n, and BudgetExceeded when no feasible set of size <= budget exists.
    """
    _check_solvable(instance)
    K, n = instance.k, instance.n
    missing = _missing_masks(instance)
    base = hopcroft_karp(_augmented_adjacency(missing, 0), n)
    if len(base) == K:
        return _plan(instance, (), base)
    candidates = sorted(set(b for row in missing for mm in row for b in _mask_bits(mm)))
    for size in range(1, min(budget, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            x_mask = sum(1 << j for j in combo)
            adjacency = _augmented_adjacency(missing, x_mask)
            matching = hopcroft_karp(adjacency, n, initial=base)
            if len(matching) == K:
                return _plan(instance, combo, matching)
    raise BudgetExceeded(budget)


def _augment(k: int, adj, extra, match_fn, match_node, visited) -> bool:
    """Kuhn augmentation from function k; lowest node index wins ties."""
    for i in sorted(adj[k] | extra.get(k, frozenset())):
        if i in visited:
            continue
        visited.add(i)
        owner = match_node.get(i)
        if owner is None or _augment(owner, adj, extra, match_fn, match_node, visited):
            match_fn[k] = i
            match_node[i] = k
            return True
    return False


def _augment_all(K, adj, extra, match_fn, match_node) -> int:
    gained = 0
    for k in range(K):
        if k not in match_fn and (adj[k] or extra.get(k)):
            if _augment(k, adj, extra, match_fn, match_node, set()):
                gained += 1
    return gained


def greedy_raw_broadcasts(instance: Instance) -> UncodedPlan:
    """Feasible raw-broadcast plan; an upper bound on the exact optimum.

    Each round broadcasts the candidate message with the largest true
    matching gain, breaking ties toward the lowest message index.
    Candidates are restricted to inputs of currently unmatched functions, so
    the plan never exceeds the number of distinct messages those functions
    demand.  Edges and the matching are maintained incrementally: adding a
    broadcast only ever completes edges whose last missing message it is.
    """
    _check_solvable(instance)
    K = instance.k
    functions = instance.workload.functions
    # remaining[k][i]: how many inputs of function k node i still lacks.
    remaining = _missing_counts(instance).tolist()
    # by_message[j]: the (function, node) pairs whose node lacks input j.
    lacks = ~instance.placement.cells
    by_message: dict[int, list[tuple[int, int]]] = {}
    for k, pair in enumerate(functions):
        for j in pair:
            nodes = np.flatnonzero(lacks[:, j]).tolist()
            by_message.setdefault(j, []).extend((k, i) for i in nodes)
    adj = [
        {i for i, count in enumerate(row) if count == 0} for row in remaining
    ]
    match_fn: dict[int, int] = {}
    match_node: dict[int, int] = {}
    _augment_all(K, adj, {}, match_fn, match_node)
    broadcast: set[int] = set()
    while len(match_fn) < K:
        unmatched = [k for k in range(K) if k not in match_fn]
        pool = sorted({j for k in unmatched for j in functions[k]} - broadcast)
        best_gain, best_j = -1, None
        for j in pool:
            # j is not broadcast yet, so every pair listed under it still
            # lacks j; the ones lacking nothing else gain an edge.
            extra: dict[int, set[int]] = {}
            for k, i in by_message.get(j, ()):
                if remaining[k][i] == 1:
                    extra.setdefault(k, set()).add(i)
            if not extra:
                gain = 0
            else:
                gain = _augment_all(K, adj, extra, dict(match_fn), dict(match_node))
            if gain > best_gain:
                best_gain, best_j = gain, j
        broadcast.add(best_j)
        for k, i in by_message.get(best_j, ()):
            remaining[k][i] -= 1
            if remaining[k][i] == 0:
                adj[k].add(i)
        _augment_all(K, adj, {}, match_fn, match_node)
    return _plan(instance, tuple(sorted(broadcast)), match_fn)


def min_intermediate_broadcasts(instance: Instance) -> IntermediatePlan:
    """Minimum broadcasts of per-function intermediate values.

    Min-cost assignment of functions to distinct nodes where assigning
    function k to node i costs the number of k's inputs that i lacks
    (0, 1 or 2); every missing value is one broadcast, useful only to its
    assigned node.
    """
    _check_solvable(instance)
    if instance.k == 0:
        return IntermediatePlan(assignment=Assignment(pairs=()), cost_per_function=(), total=0)
    cost = _missing_counts(instance)
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(sorted((int(k), int(i)) for k, i in zip(rows, cols)))
    per_function = tuple(int(cost[k, i]) for k, i in pairs)
    return IntermediatePlan(
        assignment=Assignment(pairs=pairs),
        cost_per_function=per_function,
        total=int(cost[rows, cols].sum()),
    )
