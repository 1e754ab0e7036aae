"""Shared exception types."""


class DomainError(ValueError):
    """An argument lies outside an operation's mathematical domain."""


class BudgetError(RuntimeError):
    """A guarded enumeration or solver size limit would be exceeded."""


class ConstructionError(RuntimeError):
    """A derived object could not be built from the supplied data."""
