"""Coverage graph between functions and nodes, and maximum matchings over it.

A node covers a function when it holds both input messages, so the
function runs there with zero communication.  The minimum number of
functions that no zero-communication assignment can cover equals
K minus the size of a maximum matching in this bipartite graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .instance import Instance

_INF = -1


@dataclass(frozen=True)
class CoverageGraph:
    """Bipartite adjacency: for each function, the nodes that cover it.

    Only ``build_coverage_graph`` builds one, from an already checked
    ``Instance``, so each row is sorted and in range by construction and
    is not checked again.
    """

    n_nodes: int
    adjacency: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Assignment:
    """Partial injective map function -> node, stored as sorted (k, i) pairs."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        funcs = [k for k, _ in self.pairs]
        nodes = [i for _, i in self.pairs]
        if funcs != sorted(set(funcs)):
            raise InvariantViolation("one-node-per-function", f"{self.pairs}")
        if len(nodes) != len(set(nodes)):
            raise InvariantViolation("injective", f"{self.pairs}")


def row_lists(matrix: np.ndarray) -> list[list[int]]:
    """For each row of a 2-D boolean array, its True columns, ascending.

    One flat scan is split at the row starts; a multi-dimensional
    ``np.nonzero`` costs several times more on the small arrays the Monte
    Carlo loop builds.
    """
    rows, cols = matrix.shape
    flat = np.flatnonzero(matrix)
    starts = np.searchsorted(flat, np.arange(0, (rows + 1) * cols, cols)).tolist()
    found = (flat % cols).tolist()
    return [found[a:b] for a, b in zip(starts, starts[1:])]


def _cover(instance: Instance) -> np.ndarray:
    """cover[k, i]: node i holds both inputs of function k, a (K, n) array."""
    held = instance.placement.cells.T
    j1, j2 = instance.workload.inputs.T
    return held[j1] & held[j2]


def build_coverage_graph(instance: Instance) -> CoverageGraph:
    """Edge (k, i) present iff node i holds both inputs of function k."""
    return CoverageGraph(
        n_nodes=instance.n, adjacency=tuple(map(tuple, row_lists(_cover(instance))))
    )


def augment(adjacency, match_fn: list[int], match_node: list[int], roots=None) -> int:
    """Grow a matching to maximum cardinality in place (Hopcroft-Karp).

    ``match_fn[k]`` is function k's node and ``match_node[i]`` node i's
    function, -1 when unmatched; the caller owns both lists and any valid
    matching may be in them.  Returns how many functions were newly matched;
    a matched function never becomes unmatched.  Adjacency lists must be
    sorted ascending; they are scanned in order, so ties always break toward
    the lowest node index and the result is deterministic.

    ``roots`` are the free functions that have edges, ascending; a free
    function without edges can never be matched, so it is neither a BFS
    root nor a DFS start.  When None, all K functions are scanned for them;
    a caller that tracks its free functions passes them to skip the scan.
    """
    K = len(adjacency)
    gained = 0
    if roots is None:
        roots = [k for k, i in enumerate(match_fn) if i == _INF and adjacency[k]]
    # Cheap greedy pass; Hopcroft-Karp phases then only clean up.
    for k in roots:
        for i in adjacency[k]:
            if match_node[i] == _INF:
                match_fn[k] = i
                match_node[i] = k
                gained += 1
                break
    roots = [k for k in roots if match_fn[k] == _INF]
    while roots:
        # BFS: layer the graph from the free functions; ``found`` is the
        # length of the shortest augmenting path.
        dist = [_INF] * K
        for k in roots:
            dist[k] = 0
        queue = deque(roots)
        found = _INF
        while queue:
            k = queue.popleft()
            if found != _INF and dist[k] >= found:
                continue
            for i in adjacency[k]:
                nxt = match_node[i]
                if nxt == _INF:
                    if found == _INF:
                        found = dist[k] + 1
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[k] + 1
                    queue.append(nxt)
        if found == _INF:
            break
        # DFS along the layers with an explicit stack: path[-1] is the
        # function being extended and pos[-1] its next adjacency slot.
        for root in roots:
            path, pos = [root], [0]
            while path:
                k = path[-1]
                nbrs = adjacency[k]
                p = pos[-1]
                while p < len(nbrs):
                    nxt = match_node[nbrs[p]]
                    if nxt == _INF or dist[nxt] == dist[k] + 1:
                        break
                    p += 1
                pos[-1] = p
                if p == len(nbrs):
                    # Dead end: no shortest augmenting path runs through k.
                    dist[k] = _INF
                    path.pop()
                    pos.pop()
                    if pos:
                        pos[-1] += 1
                elif nxt == _INF:
                    # Free node reached: flip every edge along the path.
                    for f, slot in zip(path, pos):
                        i = adjacency[f][slot]
                        match_fn[f] = i
                        match_node[i] = f
                    gained += 1
                    break
                else:
                    path.append(nxt)
                    pos.append(0)
        roots = [k for k in roots if match_fn[k] == _INF]
    return gained


def hopcroft_karp(adjacency, n_nodes: int) -> tuple[list[int], list[int], int]:
    """Maximum-cardinality matching from scratch: ``(match_fn, match_node,
    matched)``, the lists ``augment`` grew and the matching's size.

    Adjacency lists must be sorted ascending (see ``augment``).
    """
    match_fn = [_INF] * len(adjacency)
    match_node = [_INF] * n_nodes
    matched = augment(adjacency, match_fn, match_node)
    return match_fn, match_node, matched


def base_matching(instance: Instance):
    """The zero-communication start of every raw and coded search: the
    coverage adjacency as built, a maximum matching on it as
    ``match_fn``/``match_node`` lists, and the matching's size."""
    adjacency = build_coverage_graph(instance).adjacency
    return adjacency, *hopcroft_karp(adjacency, instance.n)


def uncovered_count(instance: Instance) -> int:
    """Minimum number of functions left uncovered by any flexible assignment.

    Only the functions that fewer than K nodes cover are matched.  Any
    other function can be matched after them, since the K - 1 other
    functions take at most K - 1 of its nodes, so each of those adds one
    to the maximum matching.
    """
    cover = _cover(instance)
    few = cover[cover.sum(axis=1) < instance.k]
    return len(few) - hopcroft_karp(row_lists(few), instance.n)[2]
