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

from . import gf2, shuffle
from .coverage import Assignment, base_matching
from .errors import BudgetExceeded, CapExceeded, InvariantViolation
from .instance import Instance


@dataclass(frozen=True)
class FittingMatrix:
    """Cell pattern: 1 at each row's demand column, free inside side info, 0 elsewhere.

    ``columns`` lists the distinct demanded messages in order of first
    appearance; ``free`` holds one column bitmask per row.  A matrix from
    ``build_fitting_matrix`` is valid by construction; ``minrank_gf2``
    checks one built by hand.
    """

    columns: tuple[int, ...]
    demand_col: tuple[int, ...]
    free: tuple[int, ...]

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


@dataclass(frozen=True)
class MinrankResult:
    rank: int
    witness: tuple[int, ...]  # row bitmasks over the fitting-matrix columns


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


def _column_masks(columns, held) -> list[int]:
    """Each held-message bitmask in ``held`` as a bitmask over ``columns``:
    bit c is set when the messages include ``columns[c]``."""
    masks = []
    for h in held:
        mask = 0
        for c, j in enumerate(columns):
            if h >> j & 1:
                mask |= 1 << c
        masks.append(mask)
    return masks


def build_fitting_matrix(receivers) -> FittingMatrix:
    """The fitting matrix of a sequence of (demand, held mask) receivers.

    Columns are the demanded messages in order of first appearance; a
    receiver may not demand a negative message or one it holds.
    """
    col_of: dict[int, int] = {}
    for r, (demand, held) in enumerate(receivers):
        if demand < 0:
            raise InvariantViolation("demand-range", f"receiver {r} demands message {demand}")
        if held >> demand & 1:
            raise InvariantViolation(
                "demand-not-held", f"receiver {r} demands {demand} it already holds"
            )
        col_of.setdefault(demand, len(col_of))
    columns = tuple(col_of)
    return FittingMatrix(
        columns=columns,
        demand_col=tuple([col_of[demand] for demand, _ in receivers]),
        free=tuple(_column_masks(columns, [held for _, held in receivers])),
    )


def _completion_rows(fm: FittingMatrix, completion: int) -> tuple[int, ...]:
    rows = [1 << dc for dc in fm.demand_col]
    for f, (r, c) in enumerate(fm.free_cells):
        if (completion >> f) & 1:
            rows[r] |= 1 << c
    return tuple(rows)


def _check_caps(fm: FittingMatrix, free_cap: int) -> None:
    """Raise CapExceeded when the matrix has more free cells than
    ``free_cap`` or ``gf2.MAX_FREE``, or more columns than
    ``gf2.completion_ranks`` takes."""
    n_free = sum(f.bit_count() for f in fm.free)
    cap = min(free_cap, gf2.MAX_FREE)
    if n_free > cap:
        raise CapExceeded("free cells", n_free, cap)
    if fm.n_cols > gf2.MAX_COLS:
        raise CapExceeded("fitting-matrix columns", fm.n_cols, gf2.MAX_COLS)


def _completions_by_rank(fm: FittingMatrix):
    """(rank, rows) of every completion, lowest rank first; equal ranks
    keep completion order.  The caller checks the caps."""
    base = [1 << dc for dc in fm.demand_col]
    ranks = gf2.completion_ranks(base, fm.free_cells, fm.n_cols)
    return (
        (int(ranks[pos]), _completion_rows(fm, int(pos)))
        for pos in np.argsort(ranks, kind="stable")
    )


def minrank_gf2(fm: FittingMatrix, free_cap: int = 20) -> MinrankResult:
    """Exhaustive minimum GF(2) rank over all 2^(#free) completions.

    The matrix may be built by hand, so its rows are checked first: one
    free mask per row, each demand column and free bit inside the
    columns, and no free cell at a row's own demand.  Raises CapExceeded
    (see ``_check_caps``) before any work.
    """
    if len(fm.demand_col) != len(fm.free):
        raise InvariantViolation("row-count")
    for r, (dc, f) in enumerate(zip(fm.demand_col, fm.free)):
        if not 0 <= dc < fm.n_cols:
            raise InvariantViolation("demand-column-range", f"row {r}")
        if f >> fm.n_cols:
            raise InvariantViolation("free-mask-range", f"row {r}")
        if f & (1 << dc):
            raise InvariantViolation("demand-cell-forced-one", f"row {r}")
    _check_caps(fm, free_cap)
    rank, witness = next(_completions_by_rank(fm))
    return MinrankResult(rank=rank, witness=witness)


def _has_acyclic_rows(fm: FittingMatrix, size: int) -> bool:
    """Whether ``size`` rows have distinct demand columns and no cycle in
    the digraph "row r -> row s when r's free mask holds s's demand column".

    Ordered along that digraph, such rows form a triangular submatrix with
    its forced ones on the diagonal, so every completion has rank at least
    ``size``: the acyclic-induced-subgraph lower bound on minrank
    (Bar-Yossef, Birk, Jayram and Kol, FOCS 2006).  Sets are grown by
    appending a row with no free cell at a demand column already taken;
    whether a set can grow depends only on those columns, so each column
    set that cannot reach ``size`` is searched once.
    """
    rows = tuple(zip(fm.demand_col, fm.free))
    dead: set[int] = set()

    def grow(cols: int, need: int) -> bool:
        if need == 0:
            return True
        if cols not in dead:
            for dc, f in rows:
                if not (cols >> dc & 1 or f & cols) and grow(cols | 1 << dc, need - 1):
                    return True
            dead.add(cols)
        return False

    return size <= fm.n_cols and grow(0, size)


def _supportable_span(rows, n_cols: int, node_cols) -> list[int] | None:
    """A sender-supportable basis of span(rows), or None if none exists.

    A vector is supportable when it lies inside one of the column masks
    ``node_cols``.  Span vectors are tried in increasing order and the
    supportable ones kept when independent of those already kept.
    """
    basis = gf2.gf2_row_basis(rows, n_cols)
    span = [0]
    for b in basis:
        span += [v ^ b for v in span]
    picked: list[int] = []
    reduced: dict[int, int] = {}
    for v in sorted(span):
        if len(picked) == len(basis):
            break
        if v and any(v & ~nc == 0 for nc in node_cols) and gf2.insert(reduced, v, n_cols):
            picked.append(v)
    return picked if len(picked) == len(basis) else None


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

    ``below >= 3`` first looks for ``below`` rows that bound every
    completion's rank from below (``_has_acyclic_rows``); when they exist no
    completion can qualify, and none is ranked.
    """
    _check_caps(fm, free_cap)
    if below == 2 and fm.n_rows:
        demanded = 0
        for dc in fm.demand_col:
            demanded |= 1 << dc
        if all(demanded & ~f == 1 << dc for dc, f in zip(fm.demand_col, fm.free)) and any(
            demanded & ~nc == 0 for nc in _column_masks(fm.columns, held)
        ):
            return 1, [demanded]
        return None, None
    if below is not None and below >= 3 and _has_acyclic_rows(fm, below):
        return None, None
    node_cols = set(_column_masks(fm.columns, held))
    for rank, rows in _completions_by_rank(fm):
        if below is not None and rank >= below:
            break
        basis = _supportable_span(rows, fm.n_cols, node_cols)
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
    order, that reaches the least count.  Each set of receivers is searched
    once, at its first assignment.  Once a plan is known, each later
    pattern is searched only for completions of rank below its count, so a
    pattern that cannot improve on it stops at the first completion that
    reaches it; with two transmissions known, the search for one is a
    closed-form test instead of a completion enumeration.  With three or
    more known, a pattern that has that many rows with distinct demands and
    no cycle among them (row r points to row s when r's receiver holds s's
    demand) is skipped before its completions are ranked: those rows form
    a triangular submatrix with ones on its diagonal, so every completion
    reaches the known count (the acyclic-induced-subgraph lower bound on
    minrank of Bar-Yossef, Birk, Jayram and Kol, FOCS 2006).
    """
    shuffle.check_solvable(instance)
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
    seen: set[frozenset] = set()
    for nodes in itertools.permutations(range(n), K):
        if best is not None and best.count <= 1:
            # Some function is uncovered under every assignment, so one
            # transmission is already optimal.
            break
        # Equal receivers add equal rows, so assignments with the same set
        # of them share one search.  A set searched before either found
        # nothing below the count known then, or set that count; the count
        # never rises, so it cannot win now.
        unique = tuple(dict.fromkeys(_receivers(functions, held, enumerate(nodes))))
        key = frozenset(unique)
        if key in seen:
            continue
        seen.add(key)
        fm = build_fitting_matrix(unique)
        rank, basis = _supported_minrank(
            fm, held, free_cap, None if best is None else best.count
        )
        if rank is None:
            continue
        node_cols = _column_masks(fm.columns, held)
        best = CodedPlan(
            count=rank,
            assignment=Assignment(pairs=tuple(enumerate(nodes))),
            broadcasts=tuple(
                frozenset(j for c, j in enumerate(fm.columns) if v >> c & 1) for v in basis
            ),
            senders=tuple(
                min(i for i, nc in enumerate(node_cols) if v & ~nc == 0) for v in basis
            ),
        )
    # Never None: the first pattern's all-zero completion spans the unit
    # vectors of its demands, and check_solvable found a holder for each.
    return best


@dataclass(frozen=True)
class SolveReport:
    """The plans ``solve`` found for one instance; Y is ``raw.uncovered``."""

    raw: shuffle.UncodedPlan
    raw_solver: str  # "exact", or "greedy" past the exact search's budget
    inter: shuffle.IntermediatePlan
    coded: CodedPlan | None  # None when skipped or refused
    coded_refusal: CapExceeded | None  # why the coded search refused


def solve(
    instance: Instance, budget: int = 8, assignment_cap: int = 100_000,
    free_cap: int = 20, skip_coded: bool = False, greedy_fallback: bool = True,
) -> SolveReport:
    """Y, T_raw, T_int and T_code of one instance, with their plans.

    T_raw is exact up to ``budget`` broadcasts, then greedy's, or without
    ``greedy_fallback`` BudgetExceeded propagates before any other solver
    runs.  A coded search over its caps is reported, not raised.
    """
    try:
        raw, raw_solver = shuffle.min_raw_broadcasts(instance, budget=budget), "exact"
    except BudgetExceeded:
        if not greedy_fallback:
            raise
        raw, raw_solver = shuffle.greedy_raw_broadcasts(instance), "greedy"
    inter = shuffle.min_intermediate_broadcasts(instance)
    coded = refusal = None
    if not skip_coded:
        try:
            coded = best_coded_plan(instance, assignment_cap, free_cap)
        except CapExceeded as exc:
            refusal = exc
    return SolveReport(raw, raw_solver, inter, coded, refusal)
