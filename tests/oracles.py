"""Brute-force reference implementations used to cross-check the solvers.

Everything here enumerates exhaustively and stays independent of the
library's algorithms (no matching, assignment or rank code is shared).
"""

from __future__ import annotations

import itertools


def brute_max_matching(adjacency, n_nodes: int) -> int:
    """Largest injective partial assignment, by recursion over functions."""

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
    side = instance.placement.side_info
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
    held = frozenset().union(*instance.placement.side_info)
    return tuple(sorted(instance.workload.used_messages() - held))


def brute_min_raw_broadcasts(instance, max_size: int = 4):
    """Smallest broadcast set enabling a full matching, or None.

    Enumerates every subset of the held, workload-relevant messages up to
    ``max_size``, smallest first.
    """
    held = frozenset().union(*instance.placement.side_info)
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
    side = instance.placement.side_info
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


def brute_minrank(demand_col, free_masks, n_cols: int) -> int:
    """Exhaustive minimum rank over all completions of the cell pattern."""
    cells = [
        (r, c)
        for r, fm in enumerate(free_masks)
        for c in range(n_cols)
        if fm & (1 << c)
    ]
    best = None
    for completion in range(1 << len(cells)):
        rows = []
        for r, dc in enumerate(demand_col):
            row = [0] * n_cols
            row[dc] = 1
            rows.append(row)
        for f, (r, c) in enumerate(cells):
            if (completion >> f) & 1:
                rows[r][c] = 1
        rank = rank_gf2(rows, n_cols)
        if best is None or rank < best:
            best = rank
    return 0 if best is None else best
