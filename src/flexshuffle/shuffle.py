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


def _reachable(adjacency, match_node, free) -> set[int]:
    """The functions an alternating path reaches from a function in
    ``free``, the unmatched functions of a maximum matching: an edge leads
    to a node, the node's matched function continues the path.  A
    maximum matching leaves every reached node matched."""
    reached = set(free)
    stack = list(free)
    while stack:
        for i in adjacency[stack.pop()]:
            k = match_node[i]
            if k not in reached:
                reached.add(k)
                stack.append(k)
    return reached


def _check_solvable(instance: Instance) -> None:
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


def _hitting_sets(candidates, size, pairs):
    """The ``size``-subsets of ``candidates`` that hold an input of every
    pair in ``pairs``, in ``itertools.combinations`` order.

    A prefix grows by picks in ascending order.  The next pick may not pass
    the larger input of a pair that no pick holds yet, or nothing later
    could hit it.  Unhit pairs that share no input, found greedily, each
    need a pick of their own, so a prefix with fewer picks left is dropped;
    below that bound a size yields nothing at once.  Once every pair is hit,
    any completion is one, and the rest comes from ``itertools.combinations``.
    """
    at = {j: t for t, j in enumerate(candidates)}
    pairs = sorted({tuple(sorted((at[a], at[b]))) for a, b in pairs})

    def extend(prefix, start, unhit):
        left = size - len(prefix)
        if not unhit:
            for rest in itertools.combinations(candidates[start:], left):
                yield prefix + rest
            return
        taken, need = set(), 0
        for a, b in unhit:
            if a not in taken and b not in taken:
                taken.update((a, b))
                need += 1
        if need > left:
            return
        stop = min(min(b for _, b in unhit), len(candidates) - left)
        for t in range(start, stop + 1):
            rest = [pair for pair in unhit if t not in pair]
            yield from extend((*prefix, candidates[t]), t + 1, rest)

    return extend((), 0, pairs)


def min_raw_broadcasts(instance: Instance, budget: int = 8) -> UncodedPlan:
    """Smallest set of raw-message broadcasts after which a full matching exists.

    Iterative deepening over the broadcast-set size with lexicographic subset
    enumeration, so the returned optimum is deterministic.  Only messages
    that are missing from some (function, node) pair can change the graph,
    which keeps the candidate pool small.  A function that no node covers
    stays uncovered unless one of its two inputs is broadcast, so only the
    sets that hit every such input pair are visited (``_hitting_sets``):
    the next pick never passes the larger input of an unhit pair, and a
    prefix is dropped when input-disjoint unhit pairs outnumber its picks
    left.  The sets skipped cannot succeed, so the plans, and the budget
    refusals, are those of the full enumeration.  Each visited set whose
    gained functions can still cover every missing one re-augments a copy
    of the zero-broadcast maximum matching.

    Raises Outage when a needed message is held by nobody, Infeasible when
    K > n, and BudgetExceeded when no feasible set of size <= budget exists.
    """
    _check_solvable(instance)
    K = instance.k
    adjacency, match_fn, match_node, matched = base_matching(instance)
    if matched == K:
        return _plan(instance, (), match_fn, 0)
    lacks, nodes, users = _input_tables(instance)
    held_by_all = instance.placement.cells.all(axis=0).tolist()
    candidates = sorted(j for j in users if not held_by_all[j])
    free = [k for k, i in enumerate(match_fn) if i == -1]
    # Both inputs of a nowhere-covered function are candidates: if all
    # nodes held one, _check_solvable would have found the other held by none.
    functions = instance.workload.functions
    pairs = [functions[k] for k in free if not adjacency[k]]
    for size in range(1, min(budget, len(candidates)) + 1):
        for combo in _hitting_sets(candidates, size, pairs):
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
    and the winner's graph and matching, grown on copies while it was
    scored, become the current ones.  Each candidate's ``_gains`` list is
    kept across rounds: a broadcast changes only the lack rows of the
    functions reading the winner, so only the lists of the messages those
    functions read are dropped, to be rebuilt when next scored.

    A candidate is scored only if it can beat the best gain so far.  Its
    gain is at most the number of its gained functions that an alternating
    path reaches from a free function of the round's matching
    (``_reachable``, built once a round needs it), since each new augmenting
    path's first new edge sits at one.  A skipped candidate could at best
    tie, and ties go to the lower message, so plans are unchanged.
    """
    _check_solvable(instance)
    K = instance.k
    adjacency, match_fn, match_node, matched = base_matching(instance)
    uncovered = K - matched
    if matched == K:
        return _plan(instance, (), match_fn, 0)
    functions = instance.workload.functions
    lacks, nodes, users = _input_tables(instance)
    broadcast: set[int] = set()
    gains_of: dict[int, list] = {}
    while matched < K:
        free = [k for k in range(K) if match_fn[k] == -1]
        pool = sorted({j for k in free for j in functions[k]} - broadcast)
        best_gain, best, reached = -1, None, None
        for j in pool:
            gains = gains_of.get(j)
            if gains is None:
                gains = gains_of[j] = _gains((j,), lacks, nodes, users)
            # The new augmenting paths are vertex-disjoint and each uses a
            # new edge, so the gain is at most the number of functions
            # with one; a candidate that cannot beat the best is not scored.
            if len(gains) <= best_gain:
                continue
            # Tighter: each path's first new edge sits at a function that
            # an alternating path already reaches from a free one.
            if best_gain >= 0:
                if reached is None:
                    reached = _reachable(adjacency, match_node, free)
                if sum(k in reached for k, _ in gains) <= best_gain:
                    continue
            trial = _grown(adjacency, gains)
            trial_fn, trial_node = match_fn.copy(), match_node.copy()
            gain = augment(trial, trial_fn, trial_node, [k for k in free if trial[k]])
            if gain > best_gain:
                best_gain, best = gain, (j, trial, trial_fn, trial_node)
                # No gain exceeds K - matched and only a strictly larger
                # one replaces the best, so the scan can stop here.
                if best_gain == K - matched:
                    break
        # Every node now has the winner's input, so only the functions
        # reading it change: their node lists, and the gain lists of the
        # messages they read, refill from the new lack rows when next read.
        best_j, adjacency, match_fn, match_node = best
        broadcast.add(best_j)
        matched += best_gain
        for k, s in users[best_j]:
            lacks[k, s] = False
            nodes[k] = [None, None, None]
            for j in functions[k]:
                gains_of.pop(j, None)
    return _plan(instance, tuple(sorted(broadcast)), match_fn, uncovered)


def min_intermediate_broadcasts(instance: Instance) -> IntermediatePlan:
    """Minimum broadcasts of per-function intermediate values.

    Min-cost assignment of functions to distinct nodes where assigning
    function k to node i costs the number of k's inputs that i lacks
    (0, 1 or 2); every missing value is one broadcast, useful only to its
    assigned node.
    """
    # Imported here: scipy.optimize costs 0.43 s and 49 MB to load (2-core Xeon), for T_int only.
    from scipy.optimize import linear_sum_assignment

    _check_solvable(instance)
    cost = _lacks(instance).sum(axis=1)
    rows, cols = linear_sum_assignment(cost)
    pairs = tuple(sorted((int(k), int(i)) for k, i in zip(rows, cols)))
    per_function = tuple(int(cost[k, i]) for k, i in pairs)
    return IntermediatePlan(assignment=Assignment(pairs=pairs), cost_per_function=per_function)
