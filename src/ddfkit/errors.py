"""Shared exception types, and the one gate every work budget is checked by."""


class BudgetError(ValueError):
    """A requested computation exceeds the configured exact-arithmetic budget."""


def check_budget(scope: str, limit: int, unit: str, request: int) -> None:
    """Raise BudgetError("SCOPE capped at LIMIT UNIT, got REQUEST") past the limit."""
    if request > limit:
        raise BudgetError(f"{scope} capped at {limit} {unit}, got {request}")


class ProfileCheckError(ArithmeticError):
    """A computed profile violates an exact counting identity it must satisfy."""
