"""Ground-state two-point correlations of the nearest-neighbor oscillator chain.

The infinite-chain position and momentum correlations at integer lag l have
hypergeometric closed forms and obey a three-term recurrence in l.  The
production path runs that recurrence backward from far out, in place in
the arrays it returns, and multiplies the ratios up from lag-0 seeds that
the arithmetic-geometric mean gives (`kernels.hyp2f1_series`).  The
finite chain of N sites admits an exact spectral sum over its N normal
modes, an independent validation oracle: one real FFT of 1/nu_k gives every
g_l, and since nu_k^2 = 1 - alpha cos theta_k each h_l follows from
g_{l-1}, g_l and g_{l+1} on the ring, accurate to a few ulp of g_0
absolute.

Units: the dimensionless chain Hamiltonian, so the single uncoupled
oscillator has <q^2> = <p^2> = 1/2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError, _check_int, _check_real

#: cap on the backward recurrence's steps past l_max, about 1 s of Python
#: loop: 1 - alpha below about 1.9e-11 is refused before the loop starts.
MAX_RECURRENCE_STEPS = 3 * 10**6
_LOG_EPS = math.log(2.0**-53)

#: most lags, l_max + 1, of a `correlation_table`, and so the largest span
#: of a `BlockSpec`.  At the cap g and h take 64 MB, and the build peaks
#: near 100 MB.
MAX_TABLE_LAGS = 2**22

#: largest ring `finite_correlation_table` sums over.  It is a verification
#: path whose buffers take about 16 bytes a site, 256 MB at this cap.
MAX_ORACLE_SITES = 2**24


def _check_coupling(alpha) -> float:
    """alpha as a float; DomainError unless it is a real with 0 < alpha < 1."""
    a = _check_real("coupling", alpha)
    if not 0.0 < a < 1.0:
        raise DomainError(f"coupling must satisfy 0 < alpha < 1, got {a}")
    return a


def _reduced_coupling(alpha: float) -> float:
    """z = (1 - sqrt(1 - alpha^2))/alpha, the ratio g_l and h_l decay by."""
    # written to avoid the cancellation
    return alpha / (1.0 + math.sqrt((1.0 - alpha) * (1.0 + alpha)))


@dataclass(frozen=True)
class CorrelationTable:
    """Correlations g_0..g_{l_max} and h_0..h_{l_max} for one coupling.

    Immutable after construction.
    """

    alpha: float
    g: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_coupling(self.alpha))
        try:
            g, h = (np.asarray(v, dtype=np.float64) for v in (self.g, self.h))
        except (TypeError, ValueError):
            raise DomainError("g and h must be arrays of reals") from None
        if g.shape != h.shape or g.ndim != 1 or g.size == 0:
            raise DomainError("g and h must be equal-length 1-D arrays")
        for name, values in (("g", g), ("h", h)):
            if not np.isfinite(values).all():
                raise DomainError(f"{name} must hold finite reals only")
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @property
    def l_max(self) -> int:
        return self.g.size - 1


def correlation_table(alpha, l_max: int) -> CorrelationTable:
    """Tabulate the infinite-chain correlations up to lag `l_max`.

    g_l and h_l solve the three-term recurrence

        (alpha/2)(l+1+s) f_{l+1} - l f_l + (alpha/2)(l-1-s) f_{l-1} = 0

    with s = -1/2 and s = +1/2 (for g, the Legendre functions
    Q_{l-1/2}(1/alpha), DLMF §14.10), and each is its minimal solution,
    decaying like z^l.  So the ratios r_l = f_l/f_{l-1} are run backward
    (Miller's algorithm, Gautschi, SIAM Rev. 9, 1967) from r_{l_max+K+1} = 0,
    with K the least integer where z^(2K) <= 2^-53: the start's error has
    died out below rounding by lag l_max.  The ratios for lags 1..l_max
    land in the returned arrays, and one cumulative product in place
    from the lag-0 seeds, g_0 = K(m)/(pi sqrt(1 + alpha)) and
    h_0 = sqrt(1 + alpha) E(m)/pi with m = 2 alpha/(1 + alpha), gives the
    table with relative accuracy at every lag.  The seeds are within
    2.5e-15 (`kernels.hyp2f1_series`); the recurrence's rounding sets the
    rest, which grows with the lag and as alpha -> 1: by lag 200 below
    1e-14 at alpha <= 0.99, 2e-14 at 0.9999 and 4e-13 at 0.999999.  The
    far tail is 0: entries below the smallest normal float are set to 0.

    Raises ConvergenceError when alpha is so close to 1 that K exceeds
    `MAX_RECURRENCE_STEPS`, and DomainError when l_max + 1 exceeds
    `MAX_TABLE_LAGS`.
    """
    l_max = _check_int("l_max", l_max, 0)
    if l_max >= MAX_TABLE_LAGS:
        raise DomainError(f"l_max must be < {MAX_TABLE_LAGS}, got {l_max}")
    alpha = _check_coupling(alpha)
    z = _reduced_coupling(alpha)
    # z is 0 for alpha below about 1e-323, where every ratio is 0 to rounding
    steps = math.ceil(_LOG_EPS / (2.0 * math.log(z))) if z > 0.0 else 0
    if steps > MAX_RECURRENCE_STEPS:
        raise ConvergenceError(
            f"backward recurrence needs {steps} steps past l_max, more than "
            f"{MAX_RECURRENCE_STEPS} (alpha={alpha}); alpha is too close "
            f"to 1")
    g = np.empty(l_max + 1)
    h = np.empty(l_max + 1)
    g[0], h[0] = kernels.hyp2f1_series(alpha)
    half = 0.5 * alpha
    rg = rh = 0.0
    for l in range(l_max + steps, 0, -1):
        rg = half * (l - 0.5) / (l - half * (l + 0.5) * rg)
        rh = half * (l - 1.5) / (l - half * (l + 1.5) * rh)
        if l <= l_max:
            g[l] = rg
            h[l] = rh
    for f in (g, h):
        np.cumprod(f, out=f)
        # 5e-324 r rounds back to 5e-324 for r > 1/2: flush the stalled tail
        f[np.abs(f) < np.finfo(float).tiny] = 0.0
    return CorrelationTable(alpha=alpha, g=g, h=h)


def finite_correlation_table(alpha, n_sites: int,
                             l_max: int) -> CorrelationTable:
    """Tabulate the exact N-site correlations up to lag `l_max`.

    g_l = (2N)^-1 sum_k cos(l theta_k)/nu_k and h_l the same with nu_k in
    place of 1/nu_k, where theta_k = 2 pi k/N and nu_k = sqrt(1 - alpha
    cos theta_k) are the N normal modes.  One real FFT of 1/nu evaluates
    every g_l at once.  Since nu_k = (1 - alpha cos theta_k)/nu_k and
    cos theta cos l theta = [cos (l-1) theta + cos (l+1) theta]/2, the
    momentum sum follows exactly on the ring:

        h_l = g_l - (alpha/2)(g_{l-1} + g_{l+1}),

    with ring indices g_{-l} = g_l = g_{N-l}, so every 0 <= l_max < N is
    covered for odd and even N.  The rfft holds lags 0..N/2 and the ring
    symmetry supplies the rest.  g carries the FFT's rounding alone; h adds
    one cancellation of terms of size g_0, so its error is absolute, a few
    ulp of g_0: at most 4.4e-16 from the two-FFT sums at N = 2^20 for
    alpha up to 1 - 1e-5, 1.2e-14 at N = 2 there, where g_0 is 79.  A
    validation path, independent of the hypergeometric production route;
    N above `MAX_ORACLE_SITES` is refused.
    """
    alpha = _check_coupling(alpha)
    n_sites = _check_int("n_sites", n_sites, 2)
    l_max = _check_int("l_max", l_max, 0)
    if n_sites > MAX_ORACLE_SITES:
        raise DomainError(f"n_sites must be <= {MAX_ORACLE_SITES}, got "
                          f"{n_sites}")
    if l_max >= n_sites:
        raise DomainError(f"l_max must satisfy 0 <= l_max < N, got {l_max}")
    # 1/nu_k, built in one buffer: theta, cos, 1 - alpha cos, sqrt, reciprocal
    inv_nu = np.arange(n_sites, dtype=np.float64)
    inv_nu *= 2.0 * np.pi / n_sites
    np.cos(inv_nu, out=inv_nu)
    inv_nu *= -alpha
    inv_nu += 1.0
    np.sqrt(inv_nu, out=inv_nu)
    np.reciprocal(inv_nu, out=inv_nu)
    # g on lags -1..l_max+1, folded onto the ring's 0..N/2
    lags = np.arange(-1, l_max + 2) % n_sites
    g = np.fft.rfft(inv_nu).real[np.minimum(lags, n_sites - lags)]
    g /= 2.0 * n_sites
    h = g[1:-1] - 0.5 * alpha * (g[:-2] + g[2:])
    return CorrelationTable(alpha=alpha, g=g[1:-1], h=h)
