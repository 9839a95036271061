from contextlib import contextmanager


class UsageError(ValueError):
    """Caller violated a precondition (bad index sets, malformed input, ...)."""


class UnsupportedFieldError(UsageError):
    """Operation requires characteristic 0 but got a prime field, or vice versa."""


class DegreeOverflowError(UsageError):
    """An axiom exceeds the degree bound of the saturation engine."""


@contextmanager
def malformed_input(what: str):
    """Report a lookup or conversion that fails while parsing `what` as a
    UsageError naming it; UsageErrors raised inside pass through."""
    try:
        yield
    except UsageError:
        raise
    except (AttributeError, LookupError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
