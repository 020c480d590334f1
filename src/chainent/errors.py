"""Exception hierarchy shared by all chainent modules."""

import numbers


class ChainentError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ChainentError, ValueError):
    """A parameter lies outside its admissible domain (CLI exit code 2)."""


class ConvergenceError(ChainentError, ArithmeticError):
    """A series did not converge within the configured term cap (CLI exit code 3)."""


class LagBoundError(ChainentError, ValueError):
    """A correlation table is too short for the requested block geometry.

    The caller must rebuild the table with a larger maximum lag.
    """


class InvalidCovarianceError(ChainentError, ArithmeticError):
    """A covariance violates positivity (delta1 or delta2 <= 0); signals an
    upstream numerical failure rather than a physical result."""


class QuadratureError(ChainentError, ArithmeticError):
    """A field propagator left the floating-point range and has no finite
    value to report (CLI exit code 3)."""


def _check_int(name: str, value, low: int) -> int:
    """`value` as an int; DomainError unless it is a Python or NumPy integer
    >= `low` (an integral float such as 2.0 is refused too)."""
    if not (isinstance(value, numbers.Integral) and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)
