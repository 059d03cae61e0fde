"""Coded broadcast machinery over GF(2).

An assignment of functions to nodes induces an index-coding instance: each
assigned node demands the inputs it lacks and knows its own side
information.  A receiver is a (demand, held mask) pair: the demanded
message and the node's held messages as an int bitmask (bit j for message
j), built once per call from ``Placement.cells``.  The instance's fitting
matrix has a forced 1 on each demand, forced 0s outside side information,
and free cells inside it; the minimum rank over all completions is the
optimal scalar-linear code length.
Broadcasts here are made by the nodes themselves, so a transmitted
combination must lie within a single node's side information
(sender-supportability).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2
from .coverage import Assignment, base_matching
from .errors import CapExceeded, Infeasible, InvariantViolation
from .gf2 import gf2_rank  # noqa: F401  re-exported as flexshuffle.gf2_rank
from .instance import Instance
from .shuffle import check_solvable


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


def _held_masks(cells: np.ndarray) -> list[int]:
    """Per node, its held messages as an int bitmask (bit j: message j)."""
    packed = np.packbits(cells, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _receivers(functions, held: list[int], pairs) -> list[tuple[int, int]]:
    """One (demand, held mask) receiver per (assigned node, input message
    the node lacks), in the order of ``pairs``, then slot order."""
    return [(j, held[i]) for k, i in pairs for j in functions[k] if not held[i] >> j & 1]


def build_fitting_matrix(receivers) -> FittingMatrix:
    """The fitting matrix of a sequence of (demand, held mask) receivers.

    Columns are the demanded messages in order of first appearance; a
    receiver may not demand a message it holds.
    """
    columns: list[int] = []
    col_of: dict[int, int] = {}
    for r, (demand, held) in enumerate(receivers):
        if held >> demand & 1:
            raise InvariantViolation(
                "demand-not-held", f"receiver {r} demands {demand} it already holds"
            )
        if demand not in col_of:
            col_of[demand] = len(columns)
            columns.append(demand)
    demand_col, free = [], []
    for demand, held in receivers:
        demand_col.append(col_of[demand])
        fm = 0
        for j, c in col_of.items():
            if held >> j & 1:
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


def _supportable_masks(columns, held: list[int]) -> np.ndarray:
    """Boolean table over column bitmasks: v is sendable by some single node.

    ``held`` gives each node's held messages as a bitmask over messages.
    """
    c = len(columns)
    table = np.zeros(1 << c, dtype=bool)
    node_masks = {sum(1 << ci for ci, j in enumerate(columns) if h >> j & 1) for h in held}
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


def _message_mask(fm: FittingMatrix, v: int) -> int:
    """The column bitmask ``v`` as a bitmask over messages."""
    mask = 0
    for c, j in enumerate(fm.columns):
        if v >> c & 1:
            mask |= 1 << j
    return mask


def _supported_minrank(fm: FittingMatrix, held: list[int], free_cap: int, below=None):
    """Minimum completion rank whose row space has a supportable basis.

    ``held`` gives each node's held messages as a bitmask over messages.
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
            needed = _message_mask(fm, demanded)
            if any(needed & ~h == 0 for h in held):
                return 1, [demanded]
        return None, None
    completions = _completions_by_rank(fm, free_cap)
    supp = _supportable_masks(fm.columns, held)
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
    check_solvable(instance)
    K, n = instance.k, instance.n
    _, match_fn, _, matched = base_matching(instance)
    if matched == K:
        return CodedPlan(
            count=0, assignment=Assignment(pairs=tuple(enumerate(match_fn))),
            broadcasts=(), senders=(),
        )
    total = math.perm(n, K)
    if total > assignment_cap:
        raise CapExceeded("assignments", total, assignment_cap)

    functions = instance.workload.functions
    held = _held_masks(instance.placement.cells)
    best: CodedPlan | None = None
    memo: dict[frozenset, tuple | None] = {}
    for nodes in itertools.permutations(range(n), K):
        if best is not None and best.count <= 1:
            # Some function is uncovered under every assignment, so one
            # transmission is already optimal.
            break
        # Equal receivers add equal rows, so assignments with the same set
        # of them share one search.
        unique = tuple(dict.fromkeys(_receivers(functions, held, enumerate(nodes))))
        key = frozenset(unique)
        if key in memo:
            hit = memo[key]
            if hit is None or (best is not None and hit[0] >= best.count):
                continue
            rank, basis, fm = hit
        else:
            fm = build_fitting_matrix(unique)
            below = None if best is None else best.count
            rank, basis = _supported_minrank(fm, held, free_cap, below)
            # None means no supportable completion below the count known
            # when the pattern was searched; the count never rises, so the
            # pattern stays useless for the rest of the search.
            memo[key] = None if rank is None else (rank, basis, fm)
            if rank is None:
                continue
        if best is None or rank < best.count:
            masks = [_message_mask(fm, v) for v in basis]
            best = CodedPlan(
                count=rank,
                assignment=Assignment(pairs=tuple(enumerate(nodes))),
                broadcasts=tuple(
                    frozenset(j for j in fm.columns if b >> j & 1) for b in masks
                ),
                senders=tuple(
                    min(i for i, h in enumerate(held) if b & ~h == 0) for b in masks
                ),
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
