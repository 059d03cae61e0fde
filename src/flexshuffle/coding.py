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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import gf2
from .coverage import Assignment, build_coverage_graph, max_matching
from .errors import CapExceeded, Infeasible, InvariantViolation, Outage
from .gf2 import gf2_rank  # noqa: F401  re-exported as flexshuffle.gf2_rank
from .instance import Instance
from .shuffle import missing_messages


class Receiver(NamedTuple):
    node: int
    demand: int
    side_info: frozenset[int]


@dataclass(frozen=True)
class IndexCodingInstance:
    receivers: tuple[Receiver, ...]

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

    @cached_property
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


def _receivers(instance: Instance, pairs) -> list[Receiver]:
    """One receiver per (assigned node, input message the node lacks), in
    the order of ``pairs``, then slot order."""
    side = instance.placement.side_info
    return [
        Receiver(node=i, demand=j, side_info=side[i])
        for k, i in pairs
        for j in instance.workload.functions[k]
        if j not in side[i]
    ]


def extract_instance(instance: Instance, assignment: Assignment) -> IndexCodingInstance:
    """One receiver per (assigned node, input message the node lacks).

    The assignment must map every function; receivers are emitted in
    function order, then slot order, so extraction is deterministic.
    """
    if sorted(k for k, _ in assignment.pairs) != list(range(instance.k)):
        raise InvariantViolation("assignment-total", "every function needs a node")
    return IndexCodingInstance(receivers=tuple(_receivers(instance, assignment.pairs)))


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


def _check_caps(fm: FittingMatrix, free_cap: int) -> None:
    """Raise CapExceeded when the matrix has more than ``free_cap`` free
    cells or more columns than ``gf2.completion_ranks`` takes."""
    n_free = len(fm.free_cells)
    if n_free > free_cap:
        raise CapExceeded("free cells", n_free, free_cap)
    if fm.n_rows and fm.n_cols > gf2.MAX_COLS:
        raise CapExceeded("fitting-matrix columns", fm.n_cols, gf2.MAX_COLS)


def _completions_by_rank(fm: FittingMatrix, free_cap: int):
    """(rank, rows) of every completion, lowest rank first.

    Raises CapExceeded (see ``_check_caps``) before any work.  Equal ranks
    keep completion order.
    """
    _check_caps(fm, free_cap)
    if fm.n_rows == 0:
        return iter([(0, ())])
    base = [1 << dc for dc in fm.demand_col]
    ranks = gf2.completion_ranks(base, fm.free_cells, fm.n_cols)
    return (
        (int(ranks[pos]), _completion_rows(fm, int(pos)))
        for pos in np.argsort(ranks, kind="stable")
    )


def minrank_gf2(fm: FittingMatrix, free_cap: int = 20) -> MinrankResult:
    """Exhaustive minimum GF(2) rank over all 2^(#free) completions.

    Raises CapExceeded when the matrix has more than ``free_cap`` free cells.
    """
    rank, witness = next(_completions_by_rank(fm, free_cap))
    return MinrankResult(rank=rank, witness=witness, n_cols=fm.n_cols)


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
    """A sender-supportable basis of span(rows), or None if none exists.

    Supportable span vectors are tried in increasing order and kept when
    independent of those already kept.
    """
    basis = gf2.gf2_row_basis(rows, n_cols)
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    picked: list[int] = []
    reduced: dict[int, int] = {}
    for v in sorted(v for v in span if v and supp[v]):
        if len(picked) == len(basis):
            break
        if gf2.insert(reduced, v, n_cols):
            picked.append(v)
    return picked if len(picked) == len(basis) else None


def _supported_minrank(fm: FittingMatrix, side_info_sets, free_cap: int, below=None):
    """Minimum completion rank whose row space has a supportable basis.

    Returns (rank, transmit basis) or (None, None) when no completion of
    rank below ``below`` (any rank when it is None) qualifies.  Completions
    are scanned in rank order so equal-rank witnesses are tried before the
    rank is allowed to grow.  The caps are checked first in every case.

    ``below == 2`` asks only for rank 1, which has a closed form: the rows
    of a rank-1 completion are nonzero, hence all equal, and each holds its
    demand bit, so every row contains ``demanded``, the union of the demand
    bits (every column, for matrices from ``build_fitting_matrix``).  Such
    a completion exists when each row has the other demanded cells free.
    A supportable one exists when some node holds every demanded message,
    and then the one with rows equal to ``demanded`` comes first in
    completion order.
    """
    if below == 2 and fm.n_rows:
        _check_caps(fm, free_cap)
        demanded = 0
        for dc in fm.demand_col:
            demanded |= 1 << dc
        if all(demanded & ~f == 1 << dc for dc, f in zip(fm.demand_col, fm.free)):
            needed = {fm.columns[c] for c in range(fm.n_cols) if demanded >> c & 1}
            if any(needed <= s for s in side_info_sets):
                return 1, [demanded]
        return None, None
    completions = _completions_by_rank(fm, free_cap)
    supp = _supportable_masks(fm.columns, side_info_sets)
    for rank, rows in completions:
        if below is not None and rank >= below:
            break
        basis = _supportable_span(rows, fm.n_cols, supp)
        if basis is not None:
            return rank, basis
    return None, None


def best_coded_plan(
    instance: Instance,
    assignment_cap: int = 100_000,
    free_cap: int = 20,
) -> CodedPlan:
    """Fewest sender-supportable coded broadcasts over all total assignments.

    Enumerates every injective assignment of the K functions to nodes, takes
    the fitting-matrix minrank of each induced index-coding instance
    (restricted to witnesses whose row space a set of single-node
    transmissions can span), and returns the first plan, in permutation
    order, that reaches the least count.  Once a plan is known, each later
    pattern is searched only for completions of rank below its count, so a
    pattern that cannot improve on it stops at the first completion that
    reaches it; with two transmissions known, the search for one is a
    closed-form test instead of a completion enumeration.
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
        # Receivers with the same (demand, side info) add the same row, so
        # assignments with the same set of them share one search.
        unique: dict[tuple, Receiver] = {}
        for r in _receivers(instance, enumerate(nodes)):
            unique.setdefault((r.demand, r.side_info), r)
        key = frozenset(unique)
        if key in memo:
            hit = memo[key]
            if hit is None or (best is not None and hit[0] >= best.count):
                continue
            rank, basis, fm = hit
        else:
            ic = IndexCodingInstance(receivers=tuple(unique.values()))
            fm = build_fitting_matrix(ic)
            below = None if best is None else best.count
            rank, basis = _supported_minrank(fm, side, free_cap, below)
            # None means no supportable completion below the count known
            # when the pattern was searched; the count never rises, so the
            # pattern stays useless for the rest of the search.
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
