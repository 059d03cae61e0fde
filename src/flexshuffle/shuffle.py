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

from .coverage import Assignment, augment, base_matching, row_lists
from .errors import BudgetExceeded, Infeasible, Outage
from .instance import Instance


@dataclass(frozen=True)
class UncodedPlan:
    """A set of raw-message broadcasts plus the assignment they enable."""

    broadcast_messages: tuple[int, ...]
    senders: tuple[tuple[int, int], ...]  # (message, sending node)
    assignment: Assignment
    uncovered: int  # Y: functions no zero-broadcast assignment covers

    @property
    def size(self) -> int:
        return len(self.broadcast_messages)


@dataclass(frozen=True)
class IntermediatePlan:
    """A total assignment plus the per-function count of missing inputs."""

    assignment: Assignment
    cost_per_function: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.cost_per_function)


def missing_messages(instance: Instance) -> tuple[int, ...]:
    """Messages used by some function but held by no node (outage set)."""
    held = instance.placement.cells.any(axis=0)
    return tuple(j for j in sorted(instance.workload.used_messages()) if not held[j])


def _lacks(instance: Instance) -> np.ndarray:
    """lacks[k, s, i]: node i lacks input s of function k, a (K, 2, n) array."""
    return (~instance.placement.cells.T)[instance.workload.inputs]


def _input_tables(instance: Instance):
    """The tables both raw solvers search: ``lacks``, which greedy updates;
    ``nodes[k][s]``, for s = 0, 1 the nodes lacking only that input, which
    broadcasting it would cover, and for s = -1 those lacking either, None
    until ``_gains`` first reads it; ``users[j]``, the (function, slot)
    pairs reading message j, at most d.
    """
    lacks = _lacks(instance)
    edges = lacks & ~lacks[:, ::-1]
    lists = row_lists(edges.reshape(-1, instance.n))
    nodes = [[*pair, None] for pair in zip(lists[::2], lists[1::2])]
    users: dict[int, list[tuple[int, int]]] = {}
    for k, pair in enumerate(instance.workload.functions):
        for s, j in enumerate(pair):
            users.setdefault(j, []).append((k, s))
    return lacks, nodes, users


def _gains(combo, lacks, nodes, users) -> list[tuple[int, list[int]]]:
    """The (function, nodes) pairs that gain a covering edge when every
    message in ``combo`` is broadcast, omitting functions that gain none.

    A node gains an edge at function k when the combo holds every input it
    lacks: slot s when only that input is in the combo, -1 for both.
    """
    slots: dict[int, int] = {}
    for j in combo:
        for k, s in users[j]:
            slots[k] = -1 if k in slots else s
    gains = []
    for k, s in slots.items():
        got = nodes[k][s]
        if got is None:
            row = lacks[k, 0] | lacks[k, 1] if s < 0 else lacks[k, s] & ~lacks[k, 1 - s]
            got = nodes[k][s] = np.flatnonzero(row).tolist()
        if got:
            gains.append((k, got))
    return gains


def _grown(adjacency, gains) -> list:
    """A copy of ``adjacency`` with each gained function's nodes merged in."""
    trial = list(adjacency)
    for k, got in gains:
        trial[k] = sorted([*adjacency[k], *got])
    return trial


def check_solvable(instance: Instance) -> None:
    """Raise Outage when a needed message is held by nobody, else
    Infeasible when K > n."""
    missing = missing_messages(instance)
    if missing:
        raise Outage(missing)
    if instance.k > instance.n:
        raise Infeasible(f"K={instance.k} functions but only n={instance.n} nodes")


def _plan(
    instance: Instance, messages: tuple[int, ...], match_fn: list[int], uncovered: int
) -> UncodedPlan:
    senders = tuple((j, instance.placement.holders(j)[0]) for j in messages)
    return UncodedPlan(
        broadcast_messages=messages,
        senders=senders,
        assignment=Assignment(pairs=tuple((k, i) for k, i in enumerate(match_fn) if i != -1)),
        uncovered=uncovered,
    )


def min_raw_broadcasts(instance: Instance, budget: int = 8) -> UncodedPlan:
    """Smallest set of raw-message broadcasts after which a full matching exists.

    Iterative deepening over the broadcast-set size with lexicographic subset
    enumeration, so the returned optimum is deterministic.  Only messages
    that are missing from some (function, node) pair can change the graph,
    which keeps the candidate pool small.  Each candidate set re-augments a
    copy of the zero-broadcast maximum matching.

    Raises Outage when a needed message is held by nobody, Infeasible when
    K > n, and BudgetExceeded when no feasible set of size <= budget exists.
    """
    check_solvable(instance)
    K = instance.k
    adjacency, match_fn, match_node, matched = base_matching(instance)
    if matched == K:
        return _plan(instance, (), match_fn, 0)
    lacks, nodes, users = _input_tables(instance)
    held_by_all = instance.placement.cells.all(axis=0).tolist()
    candidates = sorted(j for j in users if not held_by_all[j])
    free = [k for k, i in enumerate(match_fn) if i == -1]
    for size in range(1, min(budget, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            gains = _gains(combo, lacks, nodes, users)
            # Each missing function needs its own augmenting path, and each
            # path a new edge at a function of its own (see greedy).
            if len(gains) < K - matched:
                continue
            trial = _grown(adjacency, gains)
            roots = [k for k in free if trial[k]]
            trial_fn = match_fn.copy()
            gained = augment(trial, trial_fn, match_node.copy(), roots)
            if matched + gained == K:
                return _plan(instance, combo, trial_fn, K - matched)
    raise BudgetExceeded(budget)


def greedy_raw_broadcasts(instance: Instance) -> UncodedPlan:
    """Feasible raw-broadcast plan; an upper bound on the exact optimum.

    Each round broadcasts the candidate message with the largest true
    matching gain, breaking ties toward the lowest message index.
    Candidates are restricted to inputs of currently unmatched functions, so
    the plan never exceeds the number of distinct messages those functions
    demand.  Edges and the matching are maintained incrementally: adding a
    broadcast only ever completes edges whose last missing message it is,
    and the maximum matching is re-augmented in place.
    """
    check_solvable(instance)
    K = instance.k
    adjacency, match_fn, match_node, matched = base_matching(instance)
    uncovered = K - matched
    if matched == K:
        return _plan(instance, (), match_fn, 0)
    functions = instance.workload.functions
    lacks, nodes, users = _input_tables(instance)
    broadcast: set[int] = set()
    while matched < K:
        free = [k for k in range(K) if match_fn[k] == -1]
        pool = sorted({j for k in free for j in functions[k]} - broadcast)
        best_gain, best_j = -1, None
        for j in pool:
            gains = _gains((j,), lacks, nodes, users)
            # The new augmenting paths are vertex-disjoint and each uses a
            # new edge, so the gain is at most the number of functions
            # with one; a candidate that cannot beat the best is not scored.
            if len(gains) <= best_gain:
                continue
            trial = _grown(adjacency, gains)
            roots = [k for k in free if trial[k]]
            gain = augment(trial, match_fn.copy(), match_node.copy(), roots)
            if gain > best_gain:
                best_gain, best_j = gain, j
                # No gain exceeds K - matched and only a strictly larger
                # one replaces the best, so the scan can stop here.
                if best_gain == K - matched:
                    break
        broadcast.add(best_j)
        # Only the functions reading best_j change: its edges join the
        # graph, every node now has that input, and their node lists
        # refill from the new lack rows when next read.
        adjacency = _grown(adjacency, _gains((best_j,), lacks, nodes, users))
        for k, s in users[best_j]:
            lacks[k, s] = False
            nodes[k] = [None, None, None]
        matched += augment(adjacency, match_fn, match_node)
    return _plan(instance, tuple(sorted(broadcast)), match_fn, uncovered)


def min_intermediate_broadcasts(instance: Instance) -> IntermediatePlan:
    """Minimum broadcasts of per-function intermediate values.

    Min-cost assignment of functions to distinct nodes where assigning
    function k to node i costs the number of k's inputs that i lacks
    (0, 1 or 2); every missing value is one broadcast, useful only to its
    assigned node.
    """
    check_solvable(instance)
    cost = _lacks(instance).sum(axis=1)
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(sorted((int(k), int(i)) for k, i in zip(rows, cols)))
    per_function = tuple(int(cost[k, i]) for k, i in pairs)
    return IntermediatePlan(assignment=Assignment(pairs=pairs), cost_per_function=per_function)
