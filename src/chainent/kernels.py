"""The lag-0 seed of `correlation_table`: the Gauss series 2F1(a, a; 1; x).

Each table sums it twice, at a = 1/2 and a = -1/2; the other lags come from
a recurrence.

``BACKEND`` names the implementation, NumPy/Python; it is reported as
`chainent.KERNEL_BACKEND` for the benchmark record.
"""

from .errors import ConvergenceError

BACKEND = "pure"

#: the series stops once two consecutive terms fall below this in magnitude
SERIES_TOL = 1e-14
#: term cap of the series, reached at 1 - alpha = 3.7e-11
MAX_TERMS = 10**6


def hyp2f1_series(a, x):
    """Sum the Gauss series for 2F1(a, a; 1; x) to `SERIES_TOL`.

    Raises ConvergenceError when it needs more than `MAX_TERMS` terms.
    """
    tol, max_terms = SERIES_TOL, MAX_TERMS   # locals for the hot loop
    total = 1.0
    term = 1.0
    below = 0
    k = 0
    while k < max_terms:
        term *= (a + k) * (a + k) / ((1.0 + k) * (1.0 + k)) * x
        total += term
        k += 1
        if abs(term) < tol:
            below += 1
            if below >= 2:
                return total
        else:
            below = 0
    raise ConvergenceError(
        f"lag-0 seed series 2F1({a}, {a}; 1; z^2) did not reach "
        f"tol={SERIES_TOL} within {MAX_TERMS} terms (z^2={x}); alpha is too "
        f"close to 1")
