"""Ground-state two-point correlations of the nearest-neighbor oscillator chain.

The infinite-chain position and momentum correlations at integer lag l have
hypergeometric closed forms and obey a three-term recurrence in l.  The
production path runs that recurrence backward from far out, seeded at lag 0
by two Gauss series; the finite chain of N sites admits an exact spectral
sum over the N normal modes, which serves as an independent validation
oracle.

Units: the dimensionless chain Hamiltonian, so the single uncoupled
oscillator has <q^2> = <p^2> = 1/2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError

_SERIES_TOL = 1e-14
_MAX_TERMS = 10**6

#: cap on the backward recurrence's steps past l_max.  The lag-0 seed series
#: reaches its term cap at 1 - alpha = 3.7e-11, where the recurrence takes
#: 2.1e6 steps; below 1 - alpha = 1.9e-11 this cap refuses at once instead
#: of summing the seed first.
MAX_RECURRENCE_STEPS = 3 * _MAX_TERMS
_LOG_EPS = math.log(2.0**-53)


@dataclass(frozen=True)
class Coupling:
    """Dimensionless nearest-neighbor coupling, restricted to 0 < alpha < 1.

    `z` and `mu` are the derived quantities entering the closed-form
    correlations: z = (1 - sqrt(1 - alpha^2))/alpha and mu = 1/sqrt(1 + z^2).
    """

    alpha: float

    def __post_init__(self):
        a = self.alpha
        if not (isinstance(a, (int, float)) and math.isfinite(a)):
            raise DomainError(f"coupling must be a finite real, got {a!r}")
        if not 0.0 < a < 1.0:
            raise DomainError(f"coupling must satisfy 0 < alpha < 1, got {a}")

    @property
    def z(self) -> float:
        # algebraically (1 - sqrt(1 - a^2))/a, written to avoid cancellation
        a = self.alpha
        return a / (1.0 + math.sqrt((1.0 - a) * (1.0 + a)))

    @property
    def mu(self) -> float:
        z = self.z
        return 1.0 / math.sqrt(1.0 + z * z)


def as_coupling(alpha) -> Coupling:
    """Coerce a float (or pass through a Coupling) with domain validation."""
    if isinstance(alpha, Coupling):
        return alpha
    return Coupling(float(alpha))


def _seed_series(a: float, x: float) -> float:
    """2F1(a, a; 1; x), a lag-0 seed of `correlation_table`."""
    value, converged = kernels.hyp2f1_series(a, a, 1.0, x, _SERIES_TOL,
                                             _MAX_TERMS)
    if not converged:
        raise ConvergenceError(
            f"lag-0 seed series 2F1({a}, {a}; 1; z^2) did not reach "
            f"tol={_SERIES_TOL} within {_MAX_TERMS} terms (z^2={x}); alpha "
            f"is too close to 1")
    return value


@dataclass(frozen=True)
class CorrelationTable:
    """Correlations g_0..g_{l_max} and h_0..h_{l_max} for one coupling.

    Immutable after construction.
    """

    alpha: Coupling
    g: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        if g.shape != h.shape or g.ndim != 1 or g.size == 0:
            raise DomainError("g and h must be equal-length 1-D arrays")
        g.setflags(write=False)
        h.setflags(write=False)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)

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
    died out below rounding by lag l_max.  One cumulative product
    from the lag-0 seeds, 2F1(1/2, 1/2; 1; z^2)/(2 mu) and
    mu 2F1(-1/2, -1/2; 1; z^2)/2, gives the table with relative accuracy at
    every lag (about 1e-14 for alpha <= 0.99; near alpha = 1 the seed's
    series sets it, 2e-13 at 0.9999); the far tail underflows to 0.

    Raises ConvergenceError when alpha is so close to 1 that K exceeds
    `MAX_RECURRENCE_STEPS` or a lag-0 seed series its term cap.
    """
    if l_max < 0:
        raise DomainError(f"l_max must be >= 0, got {l_max}")
    c = as_coupling(alpha)
    z = c.z
    # z is 0 for alpha below about 1e-323, where every ratio is 0 to rounding
    steps = math.ceil(_LOG_EPS / (2.0 * math.log(z))) if z > 0.0 else 0
    if steps > MAX_RECURRENCE_STEPS:
        raise ConvergenceError(
            f"backward recurrence needs {steps} steps past l_max, more than "
            f"{MAX_RECURRENCE_STEPS} (alpha={c.alpha}); alpha is too close "
            f"to 1")
    x = z * z
    seeds = (1.0 / (2.0 * c.mu) * _seed_series(0.5, x),
             c.mu / 2.0 * _seed_series(-0.5, x))
    half = 0.5 * c.alpha
    rg = rh = 0.0
    ratios = []
    for l in range(l_max + steps, 0, -1):
        rg = half * (l - 0.5) / (l - half * (l + 0.5) * rg)
        rh = half * (l - 1.5) / (l - half * (l + 1.5) * rh)
        if l <= l_max:
            ratios.append((rg, rh))
    ratios.append(seeds)
    g, h = np.cumprod(ratios[::-1], axis=0).T.copy()
    return CorrelationTable(alpha=c, g=g, h=h)


def finite_correlation_table(alpha, n_sites: int,
                             l_max: int) -> CorrelationTable:
    """Tabulate the exact N-site correlations up to lag `l_max`.

    g_l = (2N)^-1 sum_k cos(l theta_k)/nu_k and h_l the same with nu_k in
    place of 1/nu_k, where theta_k = 2 pi k/N and nu_k = sqrt(1 - alpha
    cos theta_k) are the N normal modes; one real FFT per sum evaluates
    every lag at once.  The rfft holds lags 0..N/2; the ring symmetry
    g_l = g_{N-l}, h_l = h_{N-l} supplies the rest, so every
    0 <= l_max < N is covered.  A validation path, independent of the
    hypergeometric production route.
    """
    c = as_coupling(alpha)
    n_sites = int(n_sites)
    if n_sites < 2:
        raise DomainError(f"finite chain needs N >= 2 sites, got {n_sites}")
    if not 0 <= l_max < n_sites:
        raise DomainError(f"l_max must satisfy 0 <= l_max < N, got {l_max}")
    theta = (2.0 * np.pi / n_sites) * np.arange(n_sites, dtype=np.float64)
    nu = np.sqrt(1.0 - c.alpha * np.cos(theta))
    lags = np.arange(l_max + 1)
    lags = np.minimum(lags, n_sites - lags)
    g = np.fft.rfft(1.0 / nu).real[lags] / (2.0 * n_sites)
    h = np.fft.rfft(nu).real[lags] / (2.0 * n_sites)
    return CorrelationTable(alpha=c, g=g, h=h)
