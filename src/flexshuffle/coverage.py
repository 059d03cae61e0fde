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
    """Bipartite adjacency: for each function, the nodes that cover it."""

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


@dataclass(frozen=True)
class MatchingResult:
    assignment: Assignment
    matched: int
    uncovered: int

    def __post_init__(self):
        if self.matched != len(self.assignment.pairs):
            raise InvariantViolation("matched-count")
        if self.uncovered < 0:
            raise InvariantViolation("uncovered-nonnegative")


def build_coverage_graph(instance: Instance) -> CoverageGraph:
    """Edge (k, i) present iff node i holds both inputs of function k."""
    K = instance.k
    cells = instance.placement.cells
    j1, j2 = instance.workload.inputs.T
    # nonzero walks the (K, n) matrix row by row, so each function's nodes
    # come out ascending and the functions in order.
    ks, nodes = np.nonzero((cells[:, j1] & cells[:, j2]).T)
    ends = np.cumsum(np.bincount(ks, minlength=K)).tolist()
    nodes = nodes.tolist()
    adjacency = tuple(tuple(nodes[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return CoverageGraph(k_functions=K, n_nodes=instance.n, adjacency=adjacency)


def hopcroft_karp(
    adjacency,
    n_nodes: int,
    initial: dict[int, int] | None = None,
) -> dict[int, int]:
    """Maximum-cardinality matching, returned as {function: node}.

    Adjacency lists must be sorted ascending; augmentation scans them in
    order, so ties always break toward the lowest node index and the result
    is deterministic.  ``initial`` seeds the matching with known-valid edges
    (used by the shuffle solvers to re-augment after adding broadcasts).
    """
    K = len(adjacency)
    match_fn = [_INF] * K
    match_node = [_INF] * n_nodes
    if initial:
        for k, i in initial.items():
            match_fn[k] = i
            match_node[i] = k
    # Cheap greedy pass; Hopcroft-Karp phases then only clean up.
    for k in range(K):
        if match_fn[k] != _INF:
            continue
        for i in adjacency[k]:
            if match_node[i] == _INF:
                match_fn[k] = i
                match_node[i] = k
                break

    dist = [0] * K

    def bfs() -> bool:
        q = deque()
        for k in range(K):
            if match_fn[k] == _INF:
                dist[k] = 0
                q.append(k)
            else:
                dist[k] = _INF
        found = _INF
        while q:
            k = q.popleft()
            if found != _INF and dist[k] >= found:
                continue
            for i in adjacency[k]:
                nxt = match_node[i]
                if nxt == _INF:
                    if found == _INF:
                        found = dist[k] + 1
                elif dist[nxt] == _INF:
                    dist[nxt] = dist[k] + 1
                    q.append(nxt)
        return found != _INF

    def dfs(k: int) -> bool:
        for i in adjacency[k]:
            nxt = match_node[i]
            if nxt == _INF or (dist[nxt] == dist[k] + 1 and dfs(nxt)):
                match_fn[k] = i
                match_node[i] = k
                return True
        dist[k] = _INF
        return False

    while bfs():
        for k in range(K):
            if match_fn[k] == _INF:
                dfs(k)
    return {k: i for k, i in enumerate(match_fn) if i != _INF}


def max_matching(graph: CoverageGraph) -> MatchingResult:
    """Maximum matching of functions to covering nodes.

    ``uncovered`` is exact: no zero-communication assignment, however
    chosen, can leave fewer functions uncovered.
    """
    matching = hopcroft_karp(graph.adjacency, graph.n_nodes)
    assignment = Assignment(pairs=tuple(sorted(matching.items())))
    return MatchingResult(
        assignment=assignment,
        matched=len(matching),
        uncovered=graph.k_functions - len(matching),
    )


def uncovered_count(instance: Instance) -> int:
    """Minimum number of functions left uncovered by any flexible assignment."""
    return max_matching(build_coverage_graph(instance)).uncovered
