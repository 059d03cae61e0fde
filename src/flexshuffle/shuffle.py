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

from .coverage import Assignment, augment, build_coverage_graph
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


def _missing_counts(instance: Instance) -> np.ndarray:
    """counts[k, i]: how many of function k's inputs node i lacks (0-2)."""
    lacks = ~instance.placement.cells
    j1, j2 = instance.workload.inputs.T
    return (lacks[:, j1].astype(np.int64) + lacks[:, j2]).T


def _input_tables(instance: Instance):
    """The (K, 2, n) tables both raw solvers search.

    ``lacks[k, s, i]``: node i lacks input s of function k.
    ``edges[k, s]``: the nodes lacking only that input, which broadcasting
    it would cover.  ``users[j]``: the (function, slot) pairs reading
    message j, at most d.
    """
    lacks = (~instance.placement.cells.T)[instance.workload.inputs]
    edges = lacks & ~lacks[:, ::-1]
    users: dict[int, list[tuple[int, int]]] = {}
    for k, pair in enumerate(instance.workload.functions):
        for s, j in enumerate(pair):
            users.setdefault(j, []).append((k, s))
    return lacks, edges, users


def _merged(nodes, mask: np.ndarray) -> list[int]:
    """``nodes`` plus the nodes set in the boolean ``mask``, ascending."""
    return sorted([*nodes, *np.flatnonzero(mask).tolist()])


def _base_matching(instance: Instance):
    """The coverage adjacency as a list, a maximum matching on it as
    ``match_fn``/``match_node`` lists, and the matching's size."""
    graph = build_coverage_graph(instance)
    adjacency = list(graph.adjacency)
    match_fn = [-1] * instance.k
    match_node = [-1] * instance.n
    matched = augment(adjacency, match_fn, match_node)
    return adjacency, match_fn, match_node, matched


def _check_solvable(instance: Instance) -> None:
    missing = missing_messages(instance)
    if missing:
        raise Outage(missing)
    if instance.k > instance.n:
        raise Infeasible(f"K={instance.k} functions but only n={instance.n} nodes")


def _plan(instance: Instance, messages: tuple[int, ...], match_fn: list[int]) -> UncodedPlan:
    senders = tuple((j, instance.placement.holders(j)[0]) for j in messages)
    return UncodedPlan(
        broadcast_messages=messages,
        senders=senders,
        assignment=Assignment(pairs=tuple((k, i) for k, i in enumerate(match_fn) if i != -1)),
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
    _check_solvable(instance)
    K = instance.k
    adjacency, match_fn, match_node, matched = _base_matching(instance)
    if matched == K:
        return _plan(instance, (), match_fn)
    lacks, edges, users = _input_tables(instance)
    # single[k][s]: the nodes a broadcast of input s alone adds to
    # function k; both[k]: those it gains when both inputs are broadcast,
    # built on first use.
    single = [[np.flatnonzero(row).tolist() for row in e] for e in edges]
    both: dict[int, list[int]] = {}
    held_by_all = instance.placement.cells.all(axis=0).tolist()
    candidates = sorted(j for j in users if not held_by_all[j])
    for size in range(1, min(budget, len(candidates)) + 1):
        for combo in itertools.combinations(candidates, size):
            # A node gains an edge at k when the combo holds every input it
            # lacks: slot s when only that input is in the combo, -1 for both.
            slots: dict[int, int] = {}
            for j in combo:
                for k, s in users[j]:
                    slots[k] = -1 if k in slots else s
            gains = []
            for k, s in slots.items():
                if s >= 0:
                    nodes = single[k][s]
                else:
                    nodes = both.get(k)
                    if nodes is None:
                        nodes = both[k] = np.flatnonzero(lacks[k, 0] | lacks[k, 1]).tolist()
                if nodes:
                    gains.append((k, nodes))
            # Each missing function needs its own augmenting path, and each
            # path a new edge at a function of its own (see greedy).
            if len(gains) < K - matched:
                continue
            trial = list(adjacency)
            for k, nodes in gains:
                trial[k] = sorted([*adjacency[k], *nodes])
            trial_fn = match_fn.copy()
            gained = augment(trial, trial_fn, match_node.copy())
            if matched + gained == K:
                return _plan(instance, combo, trial_fn)
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
    _check_solvable(instance)
    return _greedy(instance, *_base_matching(instance))


def _uncovered_and_greedy(instance: Instance) -> tuple[int, int | None]:
    """Y and the greedy plan size of one sweep trial, both from one coverage
    graph and matching; the size is None on outage."""
    adjacency, match_fn, match_node, matched = _base_matching(instance)
    y = instance.k - matched
    try:
        _check_solvable(instance)
    except Outage:
        return y, None
    return y, _greedy(instance, adjacency, match_fn, match_node, matched).size


def _greedy(instance: Instance, adjacency, match_fn, match_node, matched) -> UncodedPlan:
    """Greedy rounds from a maximum matching on the coverage ``adjacency``."""
    K = instance.k
    if matched == K:
        return _plan(instance, (), match_fn)
    functions = instance.workload.functions
    lacks, edges, users = _input_tables(instance)
    has_edge = edges.any(axis=2).tolist()
    broadcast: set[int] = set()
    while matched < K:
        unmatched = [k for k in range(K) if match_fn[k] == -1]
        pool = sorted({j for k in unmatched for j in functions[k]} - broadcast)
        best_gain, best_j = -1, None
        for j in pool:
            sources = [(k, s) for k, s in users[j] if has_edge[k][s]]
            # The new augmenting paths are vertex-disjoint and each uses a
            # new edge, so the gain is at most the number of functions
            # with one; a candidate that cannot beat the best is not scored.
            if len(sources) <= best_gain:
                continue
            trial = list(adjacency)
            for k, s in sources:
                trial[k] = _merged(adjacency[k], edges[k, s])
            gain = augment(trial, match_fn.copy(), match_node.copy())
            if gain > best_gain:
                best_gain, best_j = gain, j
                # No gain exceeds K - matched and only a strictly larger
                # one replaces the best, so the scan can stop here.
                if best_gain == K - matched:
                    break
        broadcast.add(best_j)
        # Only the functions reading best_j change: its edges join the
        # graph, and every node now has that input.
        for k, s in users[best_j]:
            adjacency[k] = _merged(adjacency[k], edges[k, s])
            lacks[k, s] = False
            edges[k] = lacks[k] & ~lacks[k, ::-1]
            has_edge[k] = edges[k].any(axis=1).tolist()
        matched += augment(adjacency, match_fn, match_node)
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
