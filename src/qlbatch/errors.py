"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BudgetError(ValueError):
    """The requested (Q, Delta, epsilon) cannot be planned under the
    double-precision model; the message names the violated limit."""


class AccuracyError(ArithmeticError):
    """A requested transform accuracy is below the achievable floor."""


class ConsistencyError(RuntimeError):
    """An internal invariant failed: a table lacks an entry recovery needs,
    or a planned bound misses its budget."""
