"""The lag-0 seeds of `correlation_table`, from the arithmetic-geometric mean.

`hyp2f1_series` sums no series: it keeps the name because the benchmark
traces it as the span ``kernels.hyp2f1_series``, until the benchmark
renames that span and the seeds can move into `correlations`.

``BACKEND`` names the implementation, NumPy/Python; it is reported as
`chainent.KERNEL_BACKEND` for the benchmark record.
"""

import math

BACKEND = "pure"


def hyp2f1_series(alpha: float) -> tuple[float, float]:
    """g_0 = K(m)/(pi sqrt(1 + alpha)) and h_0 = sqrt(1 + alpha) E(m)/pi.

    m = 2 alpha/(1 + alpha).  K and E come from one arithmetic-geometric
    mean started at (1, sqrt(p)), p = 1 - m = (1 - alpha)/(1 + alpha)
    formed directly: K = pi/(2 a_N) and E = K (1 - sum 2^(n-1) c_n^2)
    (DLMF 19.8.1, 19.8.6).  g_0 is within 4.5e-16 relative of mpmath for
    5e-324 <= alpha <= 1 - 1e-15.  h_0 is too for 1 - alpha above 1e-3;
    closer to 1 the difference 1 - sum cancels as E/K -> 0, and h_0 is
    within about 1e-15 down to 1 - alpha = 1e-6 and 2.5e-15 below.
    """
    p = (1.0 - alpha) / (1.0 + alpha)
    a, b = 1.0, math.sqrt(p)
    rest = 0.5 * (1.0 + p)   # 1 - c_0^2/2, with c_0^2 = m
    weight = 1.0
    for _ in range(40):      # quadratic convergence: 8 steps at p = 5e-16
        c = 0.5 * (a - b)
        if c <= 2.0**-53 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        rest -= weight * c * c
        weight *= 2.0
    k = math.pi / (2.0 * a)
    root = math.sqrt(1.0 + alpha)
    return k / (math.pi * root), root * k * rest / math.pi
