"""Hot numerical kernels: the Gauss-series sum and the all-lag cosine sums.

``BACKEND`` names the implementation, NumPy/Python; it is reported as
`chainent.KERNEL_BACKEND` and in `chainent validate`'s text report.
"""

import numpy as np

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


def cosine_lag_sums(weights, l_max):
    """Direct spectral sums out[l] = sum_k weights[k] * cos(l * 2*pi*k/N).

    Evaluated for all lags l = 0..l_max in one pass using the Chebyshev
    recurrence cos((l+1)t) = 2 cos(t) cos(lt) - cos((l-1)t) on vectors over k.
    """
    w = np.ascontiguousarray(weights, dtype=np.float64)
    n = w.size
    out = np.empty(l_max + 1, dtype=np.float64)
    out[0] = w.sum()
    if l_max == 0:
        return out
    c1 = np.cos((2.0 * np.pi / n) * np.arange(n))
    out[1] = w @ c1
    cos_prev = np.ones(n)
    cos_cur = c1
    for l in range(2, l_max + 1):
        cos_prev, cos_cur = cos_cur, 2.0 * c1 * cos_cur - cos_prev
        out[l] = w @ cos_cur
    return out
