"""Coded broadcast machinery over GF(2).

An assignment of functions to nodes induces an index-coding instance: each
assigned node demands the inputs it lacks and knows its own side
information.  The instance's fitting matrix has a forced 1 on each demand,
forced 0s outside side information, and free cells inside it; the minimum
rank over all completions is the optimal scalar-linear code length.
Broadcasts here are made by the nodes themselves, so a transmitted
combination must lie within a single node's side information
(sender-supportability).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .coverage import Assignment, build_coverage_graph, max_matching
from .errors import CapExceeded, Infeasible, InvariantViolation, Outage
from .instance import Instance
from .shuffle import missing_messages

_CHUNK = 1 << 14


class Receiver(NamedTuple):
    node: int
    demand: int
    side_info: frozenset[int]


@dataclass(frozen=True)
class IndexCodingInstance:
    receivers: tuple[Receiver, ...]
    universe: frozenset[int]

    def __post_init__(self):
        for r in self.receivers:
            if r.demand in r.side_info:
                raise InvariantViolation(
                    "demand-not-held", f"receiver {r.node} demands {r.demand} it already holds"
                )


@dataclass(frozen=True)
class FittingMatrix:
    """Cell pattern: 1 at each row's demand column, free inside side info, 0 elsewhere.

    ``columns`` lists the distinct demanded messages in order of first
    appearance; ``free`` holds one column bitmask per row.
    """

    columns: tuple[int, ...]
    demand_col: tuple[int, ...]
    free: tuple[int, ...]

    def __post_init__(self):
        if len(self.demand_col) != len(self.free):
            raise InvariantViolation("row-count")
        for r, (dc, fm) in enumerate(zip(self.demand_col, self.free)):
            if not 0 <= dc < len(self.columns):
                raise InvariantViolation("demand-column-range", f"row {r}")
            if fm >> len(self.columns):
                raise InvariantViolation("free-mask-range", f"row {r}")
            if fm & (1 << dc):
                raise InvariantViolation("demand-cell-forced-one", f"row {r}")

    @property
    def n_rows(self) -> int:
        return len(self.demand_col)

    @property
    def n_cols(self) -> int:
        return len(self.columns)

    @property
    def free_cells(self) -> tuple[tuple[int, int], ...]:
        """(row, column) positions of free cells, row-major."""
        return tuple(
            (r, c)
            for r, fm in enumerate(self.free)
            for c in range(self.n_cols)
            if fm & (1 << c)
        )

    def cell(self, r: int, c: int) -> str:
        if c == self.demand_col[r]:
            return "one"
        return "free" if self.free[r] & (1 << c) else "zero"


@dataclass(frozen=True)
class MinrankResult:
    rank: int
    witness: tuple[int, ...]  # row bitmasks over the fitting-matrix columns
    n_cols: int


@dataclass(frozen=True)
class CodedPlan:
    """A sender-supportable transmit basis achieving the coded optimum."""

    count: int
    assignment: Assignment
    broadcasts: tuple[frozenset[int], ...]  # message sets, one per transmission
    senders: tuple[int, ...]


def extract_instance(instance: Instance, assignment: Assignment) -> IndexCodingInstance:
    """One receiver per (assigned node, input message the node lacks).

    The assignment must map every function; receivers are emitted in
    function order, then slot order, so extraction is deterministic.
    """
    if sorted(k for k, _ in assignment.pairs) != list(range(instance.k)):
        raise InvariantViolation("assignment-total", "every function needs a node")
    side = instance.placement.side_info
    receivers = []
    universe: set[int] = set()
    for k, i in assignment.pairs:
        s = side[i]
        for j in instance.workload.functions[k]:
            if j not in s:
                receivers.append(Receiver(node=i, demand=j, side_info=s))
                universe.add(j)
                universe.update(s)
    return IndexCodingInstance(receivers=tuple(receivers), universe=frozenset(universe))


def build_fitting_matrix(ic: IndexCodingInstance) -> FittingMatrix:
    columns: list[int] = []
    col_of: dict[int, int] = {}
    for r in ic.receivers:
        if r.demand not in col_of:
            col_of[r.demand] = len(columns)
            columns.append(r.demand)
    demand_col, free = [], []
    for r in ic.receivers:
        demand_col.append(col_of[r.demand])
        fm = 0
        for j, c in col_of.items():
            if j != r.demand and j in r.side_info:
                fm |= 1 << c
        free.append(fm)
    return FittingMatrix(
        columns=tuple(columns), demand_col=tuple(demand_col), free=tuple(free)
    )


def _completion_rows(fm: FittingMatrix, completion: int) -> tuple[int, ...]:
    rows = [1 << dc for dc in fm.demand_col]
    for f, (r, c) in enumerate(fm.free_cells):
        if (completion >> f) & 1:
            rows[r] |= 1 << c
    return tuple(rows)


def gf2_rank(rows, n_cols: int) -> int:
    """Rank over GF(2) of integer-bitmask rows (bits below ``n_cols``)."""
    return len(gf2_row_basis(rows, n_cols))


def gf2_row_basis(rows, n_cols: int) -> list[int]:
    """An RREF basis of the row space."""
    basis: list[int] = []
    for row in rows:
        cur = row
        for b in basis:
            low = b & -b
            if cur & low:
                cur ^= b
        if cur:
            for idx, b in enumerate(basis):
                if b & (cur & -cur):
                    basis[idx] ^= cur
            basis.append(cur)
    return sorted(basis)


def _batched_ranks(fm: FittingMatrix, completions: np.ndarray) -> np.ndarray:
    """GF(2) rank of every listed completion, vectorized across completions."""
    cells = fm.free_cells
    R, C = fm.n_rows, fm.n_cols
    if C > 32:
        raise CapExceeded("fitting-matrix columns", C, 32)
    base = np.array([1 << dc for dc in fm.demand_col], dtype=np.uint32)
    ranks = np.empty(len(completions), dtype=np.int16)
    row_idx = np.arange(R)
    for lo in range(0, len(completions), _CHUNK):
        idx = completions[lo : lo + _CHUNK]
        S = len(idx)
        work = np.tile(base, (S, 1))
        for f, (r, c) in enumerate(cells):
            work[:, r] |= ((idx >> f) & 1).astype(np.uint32) << np.uint32(c)
        rank = np.zeros(S, dtype=np.int16)
        for c in range(C):
            bit = np.uint32(1 << c)
            avail = ((work & bit) != 0) & (row_idx[None, :] >= rank[:, None])
            s_idx = np.flatnonzero(avail.any(axis=1))
            if s_idx.size == 0:
                continue
            k = np.arange(s_idx.size)
            pivot = np.argmax(avail[s_idx], axis=1)
            sub = work[s_idx]
            r_to = rank[s_idx].astype(np.intp)
            piv_rows = sub[k, pivot].copy()
            sub[k, pivot] = sub[k, r_to]
            sub[k, r_to] = piv_rows
            elim = (sub & bit) != 0
            elim[k, r_to] = False
            sub ^= elim.astype(np.uint32) * piv_rows[:, None]
            work[s_idx] = sub
            rank[s_idx] += 1
        ranks[lo : lo + S] = rank
    return ranks


def minrank_gf2(fm: FittingMatrix, free_cap: int = 20) -> MinrankResult:
    """Exhaustive minimum GF(2) rank over all 2^(#free) completions.

    Raises CapExceeded when the matrix has more than ``free_cap`` free cells.
    """
    n_free = len(fm.free_cells)
    if n_free > free_cap:
        raise CapExceeded("free cells", n_free, free_cap)
    if fm.n_rows == 0:
        return MinrankResult(rank=0, witness=(), n_cols=fm.n_cols)
    completions = np.arange(1 << n_free, dtype=np.uint64)
    ranks = _batched_ranks(fm, completions)
    best = int(np.argmin(ranks))
    return MinrankResult(
        rank=int(ranks[best]),
        witness=_completion_rows(fm, best),
        n_cols=fm.n_cols,
    )


def _supportable_masks(columns, side_info_sets) -> np.ndarray:
    """Boolean table over column bitmasks: v is sendable by some single node."""
    c = len(columns)
    table = np.zeros(1 << c, dtype=bool)
    node_masks = set()
    for s in side_info_sets:
        node_masks.add(sum(1 << ci for ci, j in enumerate(columns) if j in s))
    for nm in node_masks:
        sub = nm
        while True:
            table[sub] = True
            if sub == 0:
                break
            sub = (sub - 1) & nm
    return table


def _supportable_span(rows, n_cols: int, supp: np.ndarray) -> list[int] | None:
    """A sender-supportable basis of span(rows), or None if none exists."""
    basis = gf2_row_basis(rows, n_cols)
    rank = len(basis)
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    usable = sorted(v for v in span if v and supp[v])
    picked: list[int] = []
    acc: list[int] = []
    for v in usable:
        grown = gf2_row_basis(acc + [v], n_cols)
        if len(grown) > len(acc):
            picked.append(v)
            acc = grown
            if len(picked) == rank:
                return picked
    return None


def _supported_minrank(fm: FittingMatrix, supp: np.ndarray, free_cap: int):
    """Minimum completion rank whose row space has a supportable basis.

    Returns (rank, transmit basis) or (None, None) when no completion
    qualifies.  Completions are scanned in rank order so equal-rank
    witnesses are tried before the rank is allowed to grow.
    """
    n_free = len(fm.free_cells)
    if n_free > free_cap:
        raise CapExceeded("free cells", n_free, free_cap)
    if fm.n_rows == 0:
        return 0, []
    completions = np.arange(1 << n_free, dtype=np.uint64)
    ranks = _batched_ranks(fm, completions)
    order = np.argsort(ranks, kind="stable")
    for pos in order:
        rows = _completion_rows(fm, int(pos))
        basis = _supportable_span(rows, fm.n_cols, supp)
        if basis is not None:
            return int(ranks[pos]), basis
    return None, None


def _assignment_patterns(instance: Instance, nodes: tuple[int, ...]):
    """Deduplicated (demand, free-message-set) pattern for one assignment."""
    side = instance.placement.side_info
    pattern = set()
    receivers = []
    for k, i in enumerate(nodes):
        s = side[i]
        for j in instance.workload.functions[k]:
            if j not in s:
                receivers.append((i, j))
                pattern.add((j, frozenset(s)))
    return frozenset(pattern), receivers


def best_coded_plan(
    instance: Instance,
    assignment_cap: int = 100_000,
    free_cap: int = 20,
) -> CodedPlan:
    """Fewest sender-supportable coded broadcasts over all total assignments.

    Enumerates every injective assignment of the K functions to nodes, takes
    the fitting-matrix minrank of each induced index-coding instance
    (restricted to witnesses whose row space a set of single-node
    transmissions can span), and returns the best plan found.
    """
    K, n = instance.k, instance.n
    if K > n:
        raise Infeasible(f"K={instance.k} functions but only n={instance.n} nodes")
    missing = missing_messages(instance)
    if missing:
        raise Outage(missing)
    covering = max_matching(build_coverage_graph(instance))
    if covering.uncovered == 0:
        return CodedPlan(
            count=0, assignment=covering.assignment, broadcasts=(), senders=()
        )
    total = math.perm(n, K)
    if total > assignment_cap:
        raise CapExceeded("assignments", total, assignment_cap)

    side = instance.placement.side_info
    best: CodedPlan | None = None
    memo: dict[frozenset, tuple | None] = {}
    for nodes in itertools.permutations(range(n), K):
        if best is not None and best.count <= 1:
            # Some function is uncovered under every assignment, so one
            # transmission is already optimal.
            break
        key, receiver_list = _assignment_patterns(instance, nodes)
        if key in memo:
            hit = memo[key]
            if hit is None or (best is not None and hit[0] >= best.count):
                continue
            rank, basis, fm = hit[0], hit[1], hit[2]
        else:
            dedup: list[Receiver] = []
            seen = set()
            for i, j in receiver_list:
                sig = (j, side[i])
                if sig not in seen:
                    seen.add(sig)
                    dedup.append(Receiver(node=i, demand=j, side_info=side[i]))
            ic = IndexCodingInstance(
                receivers=tuple(dedup),
                universe=frozenset(j for _, j in receiver_list).union(*[side[i] for i, _ in receiver_list]),
            )
            fm = build_fitting_matrix(ic)
            supp = _supportable_masks(fm.columns, side)
            rank, basis = _supported_minrank(fm, supp, free_cap)
            memo[key] = None if rank is None else (rank, basis, fm)
            if rank is None:
                continue
        if best is None or rank < best.count:
            broadcasts = tuple(
                frozenset(fm.columns[c] for c in range(fm.n_cols) if v & (1 << c))
                for v in basis
            )
            senders = tuple(
                min(i for i in range(n) if b <= side[i]) for b in broadcasts
            )
            best = CodedPlan(
                count=rank,
                assignment=Assignment(pairs=tuple(enumerate(nodes))),
                broadcasts=broadcasts,
                senders=senders,
            )
    if best is None:
        raise Infeasible("no sender-supportable code exists for any assignment")
    return best


def optimal_coded_flexible(
    instance: Instance,
    assignment_cap: int = 100_000,
    free_cap: int = 20,
) -> int:
    """Minimum coded broadcast count with a free choice of assignment."""
    return best_coded_plan(instance, assignment_cap, free_cap).count
