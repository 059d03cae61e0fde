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

import math
from dataclasses import dataclass

import numpy as np

from . import gf2, shuffle
from .coverage import Assignment
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


# These caps only keep the refusals the coded search has always made; the
# row search below needs neither to bound its memory.
MAX_FREE = 24
MAX_COLS = 32


def _check_caps(fm: FittingMatrix, free_cap: int) -> None:
    """Raise CapExceeded when the matrix has more free cells than
    ``free_cap`` or ``MAX_FREE``, or more columns than ``MAX_COLS``."""
    n_free = sum(f.bit_count() for f in fm.free)
    cap = min(free_cap, MAX_FREE)
    if n_free > cap:
        raise CapExceeded("free cells", n_free, cap)
    if fm.n_cols > MAX_COLS:
        raise CapExceeded("fitting-matrix columns", fm.n_cols, MAX_COLS)


def _completions_by_rank(fm: FittingMatrix, below=None):
    """(rank, rows) of each completion of rank below ``below`` (of every
    completion when it is None), lowest rank first; equal ranks come in
    completion order.  The caller checks the caps.

    Completion order counts the free cells row-major, row 0's lowest.  For
    each rank t, rows are filled from the last to the first and each row's
    free subsets tried in ascending order, which visits completions in that
    order.  Adding rows never lowers a rank, so a prefix of rank above t is
    dropped with all its completions; those of rank below t came at an
    earlier t, so the leaves of rank exactly t are yielded.
    """
    n_cols = fm.n_cols
    rows = [0] * fm.n_rows

    def fill(r: int, basis: dict[int, int], t: int):
        if r < 0:
            if len(basis) == t:
                yield t, tuple(rows)
            return
        one, free = 1 << fm.demand_col[r], fm.free[r]
        s = 0
        while True:
            rows[r] = one | s
            grown = dict(basis)
            gf2.insert(grown, rows[r], n_cols)
            if len(grown) <= t:
                yield from fill(r - 1, grown, t)
            s = (s - free) & free
            if not s:
                break

    top = min(fm.n_rows, n_cols) if below is None else min(fm.n_rows, n_cols, below - 1)
    for t in range(top + 1):
        yield from fill(fm.n_rows - 1, {}, t)


def minrank_gf2(fm: FittingMatrix, free_cap: int = 20) -> MinrankResult:
    """Minimum GF(2) rank over the completions, with the first completion
    of that rank, in completion order, as the witness.

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


def _has_acyclic_rows(rows, size: int) -> bool:
    """Whether ``size`` of the (demand, mask) ``rows`` have distinct demands
    and no cycle in the digraph "row r -> row s when r's mask holds s's
    demand".

    The rows are a fitting matrix's ``zip(fm.demand_col, fm.free)``, or the
    (message, held mask) receivers it is built from: a receiver's free mask
    has a demand's column exactly when the receiver holds that demand, so
    both give the same answer.  Ordered along that digraph, such rows form
    a triangular submatrix with its forced ones on the diagonal, so every
    completion has rank at least ``size``: the acyclic-induced-subgraph
    lower bound on minrank (Bar-Yossef, Birk, Jayram and Kol, FOCS 2006).
    Sets are grown by appending a row whose mask holds no demand already
    taken; whether a set can grow depends only on those demands, so each
    demand set that cannot reach ``size`` is searched once.
    """
    rows = tuple(rows)
    dead: set[int] = set()

    def grow(taken: int, need: int) -> bool:
        if need == 0:
            return True
        if taken not in dead:
            for demand, mask in rows:
                if not (taken >> demand & 1 or mask & taken) and grow(
                    taken | 1 << demand, need - 1
                ):
                    return True
            dead.add(taken)
        return False

    return size <= len({demand for demand, _ in rows}) and grow(0, size)


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
    completion can qualify, and none is searched.
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
    if (
        below is not None
        and below >= 3
        and _has_acyclic_rows(zip(fm.demand_col, fm.free), below)
    ):
        return None, None
    node_cols = set(_column_masks(fm.columns, held))
    for rank, rows in _completions_by_rank(fm, below):
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

    Searches the injective assignments of the K functions to nodes for the
    fitting-matrix minrank of each induced index-coding instance
    (restricted to witnesses whose row space a set of single-node
    transmissions can span), and returns the first plan, in permutation
    order, that reaches the least count.  The search is depth first: it
    assigns functions 0, 1, …, K-1 in turn, each to the unused nodes in
    ascending order, so complete assignments come in
    ``itertools.permutations`` order.  Each set of receivers is searched
    once, at its first assignment.

    The search is bounded from the start.  Under greedy's raw plan every
    assigned node lacks only broadcast messages, whose unit vectors are a
    supportable code, so the first pattern is searched only for
    completions of rank at most greedy's count, and each later one below
    the best count known.  A pattern's first completion of least rank does
    not depend on the bound above it, so the plan is the one an unbounded
    search would return.  With two transmissions known, the search for one
    is a closed-form test.

    A partial assignment whose receivers include as many rows as the bound
    with distinct demands and no cycle among them (row r points to row s
    when r's receiver holds s's demand) is dropped with every assignment
    that extends it.  Those rows stay in each extension's pattern, with the
    same demands and cells, and form a triangular submatrix with ones on
    its diagonal, so every completion reaches the bound (the
    acyclic-induced-subgraph lower bound on minrank of Bar-Yossef, Birk,
    Jayram and Kol, FOCS 2006).  A partial assignment is dropped only when
    no extension can exceed the free-cell or column caps, so every refusal
    is raised at the assignment where an unpruned search raises it.
    """
    raw = shuffle.greedy_raw_broadcasts(instance)
    if raw.size == 0:
        return CodedPlan(count=0, assignment=raw.assignment, broadcasts=(), senders=())
    K, n = instance.k, instance.n
    total = math.perm(n, K)
    if total > assignment_cap:
        raise CapExceeded("assignments", total, assignment_cap)

    functions = instance.workload.functions
    held = _held_masks(instance.placement.cells)
    lacked = [[sum(not h >> j & 1 for j in pair) for h in held] for pair in functions]
    # later[k]: the inputs of functions k.. as a message bitmask
    later = [0] * (K + 1)
    for k in range(K - 1, -1, -1):
        a, b = functions[k]
        later[k] = later[k + 1] | 1 << a | 1 << b
    cap = min(free_cap, MAX_FREE)
    nodes: list[int] = []
    unused = set(range(n))
    best: CodedPlan | None = None
    seen: set[frozenset] = set()

    def cap_safe(unique) -> bool:
        """Whether no assignment extending ``nodes`` can exceed a cap.

        Its columns lie in ``cols``, the demands so far and every input of
        the functions left, and each of its rows has at most as many free
        cells as the row's held messages in ``cols``.  So each function left
        adds at most the most such cells any unused node's rows for it
        could have, one row per input the node lacks.
        """
        cols = later[len(nodes)]
        for j, _ in unique:
            cols |= 1 << j
        if cols.bit_count() > MAX_COLS:
            return False
        in_cols = [(h & cols).bit_count() for h in held]
        free = sum((h & cols).bit_count() for _, h in unique)
        for k in range(len(nodes), K):
            free += max(lacked[k][i] * in_cols[i] for i in unused)
        return free <= cap

    def search(rows) -> None:
        nonlocal best
        below = raw.size + 1 if best is None else best.count
        unique = tuple(dict.fromkeys(rows))
        if len(nodes) < K:
            if (
                below >= 2
                and _has_acyclic_rows(unique, below)
                and cap_safe(unique)
            ):
                return
            k = len(nodes)
            for i in sorted(unused):
                unused.remove(i)
                nodes.append(i)
                search(rows + _receivers(functions, held, [(k, i)]))
                nodes.pop()
                unused.add(i)
                if best is not None and best.count <= 1:
                    # Some function is uncovered under every assignment, so
                    # one transmission is already optimal.
                    return
            return
        # Equal receivers add equal rows, so assignments with the same set
        # of them share one search.  A set searched before either found
        # nothing below the bound then, or set it; the bound never rises,
        # so it cannot win now.
        key = frozenset(unique)
        if key in seen:
            return
        seen.add(key)
        fm = build_fitting_matrix(unique)
        rank, basis = _supported_minrank(fm, held, free_cap, below)
        if rank is None:
            return
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

    search([])
    # Never None: under greedy's assignment the unit vectors of the
    # demands, each held by some node, span a supportable completion of
    # rank at most T_raw.
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
