"""Exception types shared across the package."""


class FlexShuffleError(Exception):
    """Base class for all package errors."""


class InvariantViolation(FlexShuffleError):
    """A domain object failed one of its structural invariants.

    The message starts with the name of the violated invariant.
    """

    def __init__(self, invariant: str, detail: str = ""):
        self.invariant = invariant
        self.detail = detail
        super().__init__(f"{invariant}: {detail}" if detail else invariant)


class Infeasible(FlexShuffleError):
    """The requested object or assignment cannot exist for these parameters."""


class Outage(FlexShuffleError):
    """Some message needed by the workload is held by no node."""

    def __init__(self, missing):
        self.missing = tuple(sorted(missing))
        super().__init__(f"messages held by no node: {list(self.missing)}")


class BudgetExceeded(FlexShuffleError):
    """No feasible broadcast set exists within the given search budget."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"no feasible broadcast set of size <= {budget}")


class CapExceeded(FlexShuffleError):
    """A search ran past its cap on work."""

    def __init__(self, what: str, count: int, cap: int):
        self.what = what
        self.count = count
        self.cap = cap
        super().__init__(f"{what}: {count} exceeds cap {cap}")


class ParseError(FlexShuffleError):
    """An instance file could not be parsed.

    Carries the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class DecodeFailure(FlexShuffleError):
    """One or more assigned nodes could not recover a needed input.

    ``failures`` is a tuple of (node, function, missing message) triples.
    """

    def __init__(self, failures):
        self.failures = tuple(failures)
        parts = ", ".join(
            f"(node {i}, function {k}, message {j})" for i, k, j in self.failures
        )
        super().__init__(f"undecodable inputs: {parts}")
