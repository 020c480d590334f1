"""The Gauss-series sum behind `correlations.hyp2f1`.

It only seeds each correlation table at lag 0 (two series per table); the
other lags come from a recurrence.

``BACKEND`` names the implementation, NumPy/Python; it is reported as
`chainent.KERNEL_BACKEND` and in `chainent validate`'s text report.
"""

BACKEND = "pure"


def hyp2f1_series(a, b, c, x, tol, max_terms):
    """Sum the Gauss series for 2F1(a, b; c; x).

    Terminates once two consecutive terms fall below `tol` in magnitude.
    Returns (partial_sum, converged); the caller decides how to report a
    blown term cap.
    """
    total = 1.0
    term = 1.0
    below = 0
    k = 0
    while k < max_terms:
        term *= (a + k) * (b + k) / ((c + k) * (1.0 + k)) * x
        total += term
        k += 1
        if abs(term) < tol:
            below += 1
            if below >= 2:
                return total, True
        else:
            below = 0
    return total, False
