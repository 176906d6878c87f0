"""Shared exception types, and the one gate every work budget is checked by."""


class BudgetError(ValueError):
    """A requested computation exceeds the configured exact-arithmetic budget."""


def check_budget(scope: str, limit: int, unit: str, request: int) -> None:
    """Raise BudgetError("SCOPE capped at LIMIT UNIT, got REQUEST") past the limit."""
    if request > limit:
        raise BudgetError(f"{scope} capped at {limit} {unit}, got {request}")


def check_power_budget(scope: str, limit: int, unit: str, base: int, exponent: int) -> None:
    """check_budget on base^exponent, for an integer base >= 2: when the
    exponent alone rules it out (base^exponent >= 2^exponent), REQUEST is
    printed as the unevaluated power BASE^EXPONENT, never formed."""
    if exponent >= limit.bit_length():
        raise BudgetError(f"{scope} capped at {limit} {unit}, got {base}^{exponent}")
    check_budget(scope, limit, unit, base ** exponent)


class ProfileCheckError(ArithmeticError):
    """A computed profile violates an exact counting identity it must satisfy."""
