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

    A hand-built graph is checked row by row; ``from_edges`` checks the
    flat edge arrays instead, with array operations, and builds the rows
    without checking them again.
    """

    k_functions: int
    n_nodes: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.k_functions:
            raise InvariantViolation("adjacency-length")
        for k, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise InvariantViolation("adjacency-sorted", f"function {k}: {nbrs}")
            if nbrs and (nbrs[0] < 0 or nbrs[-1] >= self.n_nodes):
                raise InvariantViolation("node-index-range", f"function {k}: {nbrs}")

    @classmethod
    def from_edges(cls, k_functions: int, n_nodes: int, ks, nodes) -> CoverageGraph:
        """The graph with edges ``(ks[t], nodes[t])``, which must be listed
        function by function, each function's nodes strictly ascending."""
        _check_edges(ks, nodes, k_functions, n_nodes)
        ends = np.cumsum(np.bincount(ks, minlength=k_functions)).tolist()
        nodes = nodes.tolist()
        graph = object.__new__(cls)
        object.__setattr__(graph, "k_functions", k_functions)
        object.__setattr__(graph, "n_nodes", n_nodes)
        object.__setattr__(
            graph, "adjacency", tuple(tuple(nodes[a:b]) for a, b in zip([0] + ends[:-1], ends))
        )
        return graph


def _check_edges(ks: np.ndarray, nodes: np.ndarray, K: int, n: int) -> None:
    """Raise what a hand-built graph of these edges would raise.

    With every node in [0, n), the edges are listed function by function
    with each function's nodes strictly ascending exactly when ``ks * n +
    nodes`` strictly ascends.  Only edges that fail this are sorted into
    rows, so the row check can name the first bad function.
    """
    if not ks.size or (
        0 <= ks[0]
        and ks[-1] < K
        and 0 <= nodes.min()
        and nodes.max() < n
        and (np.diff(ks * n + nodes) > 0).all()
    ):
        return
    if (np.diff(ks) < 0).any():
        raise InvariantViolation("adjacency-sorted", "edges not listed function by function")
    if ks[0] < 0 or ks[-1] >= K:
        raise InvariantViolation(
            "adjacency-length", f"edges at functions {ks[0]}..{ks[-1]}, outside [0, {K})"
        )
    rows: list[list[int]] = [[] for _ in range(K)]
    for k, i in zip(ks.tolist(), nodes.tolist()):
        rows[k].append(i)
    CoverageGraph(k_functions=K, n_nodes=n, adjacency=tuple(map(tuple, rows)))


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

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def node_of(self, k: int) -> int | None:
        return self.mapping.get(k)

    def __len__(self) -> int:
        return len(self.pairs)


def build_coverage_graph(instance: Instance) -> CoverageGraph:
    """Edge (k, i) present iff node i holds both inputs of function k."""
    cells = instance.placement.cells
    j1, j2 = instance.workload.inputs.T
    # nonzero walks the (K, n) matrix row by row, so each function's nodes
    # come out ascending and the functions in order.
    ks, nodes = np.nonzero((cells[:, j1] & cells[:, j2]).T)
    return CoverageGraph.from_edges(instance.k, instance.n, ks, nodes)


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
    """The zero-communication start of Y and of every raw and coded search:
    the coverage adjacency as built, a maximum matching on it as
    ``match_fn``/``match_node`` lists, and the matching's size."""
    adjacency = build_coverage_graph(instance).adjacency
    return adjacency, *hopcroft_karp(adjacency, instance.n)


def uncovered_count(instance: Instance) -> int:
    """Minimum number of functions left uncovered by any flexible assignment."""
    return instance.k - base_matching(instance)[3]
