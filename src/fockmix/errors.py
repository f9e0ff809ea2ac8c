"""Exception types shared across the package."""


class DomainError(ValueError):
    """An evaluation point lies outside the convergence/validity domain, or a
    size lies above its budget (numerics._MAX_TABLE_ENTRIES,
    probabilities._MAX_DOUBLE_SUM_WORK); a route raises it before any work."""


class ConvergenceError(RuntimeError):
    """A truncated sum failed to reach its tail-bound tolerance at the cutoff."""


class TableCoverageError(LookupError):
    """A recurrence check needed a table entry that was never built."""
