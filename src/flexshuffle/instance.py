"""Problem instances: random data placement plus a two-input function workload.

A *placement* assigns each of ``m`` messages to each of ``n`` nodes
independently with probability ``p``; the messages a node ends up holding
are its side information.  A *workload* is a set of ``K`` functions, each
taking two distinct messages as input.  Both halves are immutable and
serialize to a line-oriented text format (see ``save_instance``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import Infeasible, InvariantViolation, ParseError

FORMAT_NAME = "flexshuffle-instance"
FORMAT_VERSION = 1
# A file may ask for at most this many placement cells (n * m), so a huge
# m is refused before the dense placement array is allocated.
MAX_FILE_CELLS = 1 << 28

# Fixed 6-message / 4-node walkthrough instance used throughout the docs
# and tests; messages 0..5 are the friend lists of users A..F.
_DEMO_SIDE_INFO = ({0, 2, 4}, {1, 3, 5}, {1, 4, 5}, {0, 2, 3})
_DEMO_FUNCTIONS = ((0, 1), (1, 2), (3, 4))


def _check_dimensions(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise InvariantViolation("positive-dimensions", f"m={m}, n={n}")


@dataclass(frozen=True, eq=False)
class Placement:
    """Which messages each node holds.

    ``cells[i, j]`` is True when node i holds message j.  The array is a
    read-only copy of the one passed in, and the only stored form of the
    placement.  ``p`` and ``seed`` are generation metadata and may be
    ``None`` for hand-built placements.
    """

    m: int
    n: int
    cells: np.ndarray
    p: float | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_dimensions(self.m, self.n)
        cells = np.array(self.cells, dtype=bool)
        if cells.shape != (self.n, self.m):
            raise InvariantViolation(
                "cells-shape", f"{cells.shape} for n={self.n} nodes, m={self.m} messages"
            )
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_sets(cls, m: int, n: int, side_info, p=None, seed=None) -> Placement:
        """Placement from one set of held message indices per node."""
        _check_dimensions(m, n)
        side = tuple(frozenset(s) for s in side_info)
        if len(side) != n:
            raise InvariantViolation("side-info-length", f"{len(side)} sets for n={n} nodes")
        cells = np.zeros((n, m), dtype=bool)
        for i, s in enumerate(side):
            for j in s:
                if not 0 <= j < m:
                    raise InvariantViolation(
                        "message-index-range", f"node {i} holds {j}, valid range [0, {m})"
                    )
            cells[i, list(s)] = True
        return cls(m=m, n=n, cells=cells, p=p, seed=seed)

    def holders(self, j: int) -> tuple[int, ...]:
        """Nodes holding message j, ascending."""
        return tuple(np.flatnonzero(self.cells[:, j]).tolist())

    def _key(self):
        return (self.m, self.n, self.p, self.seed)

    def __eq__(self, other):
        if not isinstance(other, Placement):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.cells, other.cells)

    def __hash__(self):
        return hash((self._key(), self.cells.tobytes()))


def _check_pairs(functions, d: int) -> None:
    """The pair invariants one pair at a time, raising at the first
    offending pair in order."""
    seen = set()
    counts: dict[int, int] = {}
    for pair in functions:
        j1, j2 = pair
        if j1 == j2:
            raise InvariantViolation("distinct-inputs", f"pair {pair}")
        if j1 > j2:
            raise InvariantViolation("pair-sorted", f"pair {pair} not (low, high)")
        if pair in seen:
            raise InvariantViolation("distinct-pairs", f"pair {pair} repeated")
        seen.add(pair)
        for j in pair:
            counts[j] = counts.get(j, 0) + 1
            if counts[j] > d:
                raise InvariantViolation(
                    "multiplicity-cap", f"message {j} used {counts[j]} > d={d} times"
                )


def _pair_array(functions) -> np.ndarray:
    """``functions`` as a (K, 2) array, of Python ints when an index does
    not fit in ``np.intp`` (``Instance`` then rejects it against m)."""
    try:
        inputs = np.array(functions, dtype=np.intp)
    except OverflowError:
        inputs = np.array(functions, dtype=object)
    return inputs.reshape(len(functions), 2)


def _pairs_valid(inputs: np.ndarray, d: int) -> bool:
    """Whether the (K, 2) array meets every pair invariant, by array
    operations: each row (low, high), no row repeated, no index in more
    than d rows.  False only means the arrays did not prove it; an object
    array is always left to ``_check_pairs``."""
    if inputs.dtype == object:
        return False
    j1, j2 = inputs.T
    if (j1 >= j2).any():
        return False
    # An index used more than d times fills d + 1 consecutive sorted slots.
    flat = np.sort(inputs, axis=None)
    if d < flat.size and (flat[d:] == flat[:-d]).any():
        return False
    order = np.lexsort((j2, j1))
    low, high = j1[order], j2[order]
    return not ((low[1:] == low[:-1]) & (high[1:] == high[:-1])).any()


@dataclass(frozen=True)
class FunctionSet:
    """K unordered pairs of distinct message indices, each index used <= d times.

    ``inputs`` is the read-only (K, 2) index array of the same pairs: row k
    holds function k's inputs.  It is built once, and the invariants are
    checked on it; only a set that fails them is walked pair by pair, to
    name the first offending pair.  ``generate_functions`` held each pair
    it accepted to the invariants as it drew it, so it hands over their
    array, and its sets are neither converted nor checked again.
    """

    functions: tuple[tuple[int, int], ...]
    d: int
    inputs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d < 1:
            raise InvariantViolation("multiplicity-cap-positive", f"d={self.d}")
        inputs = _pair_array(self.functions)
        if not _pairs_valid(inputs, self.d):
            _check_pairs(self.functions, self.d)
        inputs.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)

    @classmethod
    def _sampled(cls, functions, inputs: np.ndarray, d: int) -> FunctionSet:
        """The set of pairs the sampler accepted, each already held to every
        invariant, with their (K, 2) ``np.intp`` array: nothing is checked
        or converted again."""
        sampled = object.__new__(cls)
        inputs.flags.writeable = False
        for name, value in (("functions", functions), ("d", d), ("inputs", inputs)):
            object.__setattr__(sampled, name, value)
        return sampled

    @property
    def k(self) -> int:
        return len(self.functions)

    def used_messages(self) -> frozenset[int]:
        return frozenset(j for pair in self.functions for j in pair)


@dataclass(frozen=True)
class Instance:
    """A placement together with the workload to compute over it."""

    placement: Placement
    workload: FunctionSet

    def __post_init__(self):
        inputs, m = self.workload.inputs, self.placement.m
        if inputs.size and (inputs.min() < 0 or inputs.max() >= m):
            j = next(j for j in inputs.ravel().tolist() if not 0 <= j < m)
            raise InvariantViolation(
                "workload-index-range",
                f"function input {j} >= m={m}" if j >= m else f"function input {j} < 0",
            )

    @property
    def m(self) -> int:
        return self.placement.m

    @property
    def n(self) -> int:
        return self.placement.n

    @property
    def k(self) -> int:
        return self.workload.k


def generate_placement(m: int, n: int, p: float, seed: int) -> Placement:
    """Draw each (node, message) membership as an independent Bernoulli(p).

    Deterministic in (m, n, p, seed).  For a fixed seed the draw is coupled
    across p: raising p only ever adds messages to side-information sets.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if m < 1 or n < 1:
        raise ValueError(f"m and n must be >= 1, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    return Placement(m=m, n=n, cells=rng.random((n, m)) < p, p=p, seed=seed)


def generate_functions(m: int, K: int, d: int, seed: int) -> FunctionSet:
    """Sample K distinct message pairs with per-message multiplicity <= d.

    Uniform rejection sampling: draw pairs, reject duplicates and pairs that
    would push a message past the cap, and restart from scratch after
    1000*K rejections since the last restart (accepted pairs do not reset
    the count).  Deterministic in (m, K, d, seed).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if d * m < 2 * K:
        raise Infeasible(f"need 2K={2 * K} message slots, cap allows only d*m={d * m}")
    if K > m * (m - 1) // 2:
        raise Infeasible(f"K={K} exceeds the {m * (m - 1) // 2} distinct pairs on m={m}")
    rng = np.random.default_rng(seed)
    batch = max(256, 4 * K)
    chosen: list[tuple[int, int]] = []
    flat: list[int] = []  # the chosen pairs, end to end
    seen: set[int] = set()  # a * m + b for each chosen pair (a, b)
    counts = [0] * m
    failures = 0
    need = K
    while need:
        draws = iter(rng.integers(0, m, size=2 * batch).tolist())
        for a, b in zip(draws, draws):
            if a > b:
                a, b = b, a
            key = a * m + b
            if a == b or key in seen or counts[a] >= d or counts[b] >= d:
                failures += 1
                if failures >= 1000 * K:
                    chosen.clear()
                    flat.clear()
                    seen.clear()
                    counts = [0] * m
                    failures = 0
                    need = K
                continue
            chosen.append((a, b))
            flat += (a, b)
            seen.add(key)
            counts[a] += 1
            counts[b] += 1
            need -= 1
            if not need:
                break
    inputs = np.array(flat, dtype=np.intp).reshape(K, 2)
    return FunctionSet._sampled(tuple(chosen), inputs, d)


def demo_instance() -> Instance:
    """The fixed walkthrough: 6 messages on 4 nodes, and the pairs {A,B},
    {B,C}, {D,E}."""
    return Instance(
        placement=Placement.from_sets(6, 4, _DEMO_SIDE_INFO),
        workload=FunctionSet(functions=_DEMO_FUNCTIONS, d=2),
    )


def derive_seeds(*entropy: int, count: int = 1) -> list[int]:
    """``count`` independent 64-bit seeds drawn from ``SeedSequence(entropy)``.

    The one place seeds are derived: instances, Monte Carlo trials and
    sweep points each name their stream by a tuple of integers.
    """
    state = np.random.SeedSequence(entropy).generate_state(count, np.uint64)
    return [int(s) for s in state]


def random_instance(
    m: int, n: int, K: int, d: int, p: float, seed: int, trial: int = 0
) -> Instance:
    """Placement and workload from independent streams derived from
    (seed, trial); Monte Carlo trial t of a run seeded ``seed`` is
    ``random_instance(..., seed, t)``."""
    pseed, fseed = derive_seeds(seed, trial, count=2)
    return Instance(
        placement=generate_placement(m, n, p, pseed),
        workload=generate_functions(m, K, d, fseed),
    )


def save_instance(instance: Instance, path) -> None:
    """Write the line-oriented text form (grammar documented in the README)."""
    Path(path).write_text(instance_to_text(instance), encoding="utf-8")


def instance_to_text(instance: Instance) -> str:
    pl, fs = instance.placement, instance.workload
    lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]
    lines.append(f"m {pl.m}")
    lines.append(f"n {pl.n}")
    lines.append(f"K {fs.k}")
    lines.append(f"d {fs.d}")
    if pl.p is not None:
        lines.append(f"p {float(pl.p)!r}")
    if pl.seed is not None:
        lines.append(f"seed {pl.seed}")
    for row in pl.cells:
        lines.append(" ".join(["node", *map(str, np.flatnonzero(row).tolist())]))
    for j1, j2 in fs.functions:
        lines.append(f"func {j1} {j2}")
    return "\n".join(lines) + "\n"


def load_instance(path) -> Instance:
    """Parse an instance file; inverse of ``save_instance``.

    Raises ParseError on malformed or non-UTF-8 input, with a line number
    when one is known, and InvariantViolation (naming the invariant) if the
    parsed object is structurally invalid.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return instance_from_text(text)


def _parse_int(token: str, field: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"field {field}: expected integer, got {token!r}", lineno)


def instance_from_text(text: str) -> Instance:
    header: dict[str, float | int] = {}
    node_lines: list[tuple[int, list[int]]] = []
    func_lines: list[tuple[int, tuple[int, int]]] = []
    saw_format = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # no valid token holds a "#", so a comment runs from the first one
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        if not saw_format:
            if key != FORMAT_NAME or len(tokens) > 2:
                raise ParseError(f"expected '{FORMAT_NAME} <version>' header", lineno)
            version = _parse_int(tokens[1], "version", lineno) if len(tokens) > 1 else 0
            if version != FORMAT_VERSION:
                raise ParseError(f"unsupported format version {version}", lineno)
            saw_format = True
            continue
        if key in header:
            raise ParseError(f"field {key}: repeated header field", lineno)
        if key in ("m", "n", "K", "d", "seed", "p") and len(tokens) != 2:
            raise ParseError(f"field {key}: expected one value", lineno)
        if key in ("m", "n", "K", "d", "seed"):
            header[key] = _parse_int(tokens[1], key, lineno)
        elif key == "p":
            try:
                header["p"] = float(tokens[1])
            except ValueError:
                raise ParseError("field p: expected a float", lineno)
            if not 0.0 <= header["p"] <= 1.0:  # also rejects nan
                raise ParseError(f"field p: {tokens[1]} is not in [0, 1]", lineno)
        elif key == "node":
            entries = [_parse_int(t, "node entry", lineno) for t in tokens[1:]]
            if len(set(entries)) != len(entries):
                raise ParseError("node line repeats a message index", lineno)
            node_lines.append((lineno, entries))
        elif key == "func":
            if len(tokens) != 3:
                raise ParseError("func line needs exactly two message indices", lineno)
            j1 = _parse_int(tokens[1], "func input", lineno)
            j2 = _parse_int(tokens[2], "func input", lineno)
            func_lines.append((lineno, (j1, j2)))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno)
    if not saw_format:
        raise ParseError("empty file, missing header")
    for field in ("m", "n", "K", "d"):
        if field not in header:
            raise ParseError(f"missing header field {field}")
    m, n, k, d = (int(header[f]) for f in ("m", "n", "K", "d"))
    if len(node_lines) != n:
        raise ParseError(f"expected {n} node lines, found {len(node_lines)}")
    if len(func_lines) != k:
        raise ParseError(f"expected {k} func lines, found {len(func_lines)}")
    if n * m > MAX_FILE_CELLS:
        raise ParseError(f"n*m = {n * m} placement cells, more than {MAX_FILE_CELLS}")
    placement = Placement.from_sets(
        m,
        n,
        [entries for _, entries in node_lines],
        p=float(header["p"]) if "p" in header else None,
        seed=int(header["seed"]) if "seed" in header else None,
    )
    functions = tuple(
        (j1, j2) if j1 < j2 else (j2, j1) for _, (j1, j2) in func_lines
    )
    # Re-sorting hides a (j2, j1) ordering difference but none of the set
    # invariants; distinctness of j1/j2 is still checked by FunctionSet.
    for lineno, (j1, j2) in func_lines:
        if j1 == j2:
            raise InvariantViolation("distinct-inputs", f"line {lineno}: pair ({j1}, {j2})")
    workload = FunctionSet(functions=functions, d=d)
    return Instance(placement=placement, workload=workload)
