"""Exception hierarchy shared by all chainent modules."""

import math
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
    >= `low` (an integral float such as 2.0 is refused too, as is a bool)."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _check_real(name: str, value, infinite: bool = False) -> float:
    """`value` as a float; DomainError unless it is a Python or NumPy real
    (strings are not parsed, bools are refused) that is finite, or with
    `infinite` not NaN."""
    try:                # float first: the numbers.Real check alone is slow
        if (isinstance(value, float) or isinstance(value, numbers.Real)
                and not isinstance(value, bool)) and (
                math.isfinite(value) or infinite and not math.isnan(value)):
            return float(value)
    except OverflowError:           # an integer beyond the float range
        pass
    kind = "real other than NaN" if infinite else "finite real"
    raise DomainError(f"{name} must be a {kind}, got {value!r}")
