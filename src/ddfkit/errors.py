"""Shared exception types."""


class BudgetError(ValueError):
    """A requested computation exceeds the configured exact-arithmetic budget."""


class ProfileCheckError(ArithmeticError):
    """A computed profile violates an exact counting identity it must satisfy."""
