"""Ground-state two-point correlations of the nearest-neighbor oscillator chain.

The infinite-chain position and momentum correlations at integer lag l have
hypergeometric closed forms and obey a three-term recurrence in l.  The
production path runs that recurrence backward from far out, in place in
the arrays it returns, and multiplies the ratios up from lag-0 seeds that
the arithmetic-geometric mean gives (`kernels.hyp2f1_series`).  The
finite chain of N sites admits an exact spectral sum over its N normal
modes, an independent validation oracle: a real FFT of 1/nu_k in four
steps, pruned to the lags asked for and to the half of the ring its
evenness does not fix, gives the g_l, and since
nu_k^2 = 1 - alpha cos theta_k each h_l follows from g_{l-1}, g_l and
g_{l+1} on the ring, accurate to a few ulp of g_0 absolute.

Units: the dimensionless chain Hamiltonian, so the single uncoupled
oscillator has <q^2> = <p^2> = 1/2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConvergenceError, DomainError, _check_int, _check_real

#: cap on the backward recurrence's steps past l_max, and so its Python
#: loop: 1 - alpha below about 1.9e-11 is refused before the loop starts.
MAX_RECURRENCE_STEPS = 3 * 10**6
_LOG_EPS = math.log(2.0**-53)

#: most lags, l_max + 1, of a `correlation_table`, and so the largest span
#: of a `BlockSpec`.  At the cap g and h take 64 MB, and the build peaks
#: near 100 MB.
MAX_TABLE_LAGS = 2**22

#: largest ring `finite_correlation_table` sums over, a verification path:
#: at the cap a fresh process's call peaks (VmHWM) below 260 MiB for small
#: l_max, the ring and its columns 0..P/2 192 MiB of it, and below 580 MiB
#: from l_max = N/4 on (one full-length rfft), the fold to N - 1 included.
#: Couplings sharing one ring add one buffer the size of its columns.
MAX_ORACLE_SITES = 2**24

#: rows of the oracle ring transposed to its columns at a time, in cache
_COPY_ROWS = 64


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


def _oracle_ring(n_sites, l_max, couplings: int):
    """(N, l_max, columns, buffer, twiddles) of `finite_correlation_table`
    for `couplings` couplings: cos theta_k on columns 0..P/2 of the N-site
    ring as a Q x P array, k = qP + j, one contiguous row per column j; the
    array each coupling's 1/nu takes in turn, `columns` itself for one
    coupling; cos and sin of 2 pi l j/N at the folded lags l."""
    n_sites = _check_int("n_sites", n_sites, 2)
    l_max = _check_int("l_max", l_max, 0)
    if n_sites > MAX_ORACLE_SITES:
        raise DomainError(f"n_sites must be <= {MAX_ORACLE_SITES}, got "
                          f"{n_sites}")
    if l_max >= n_sites:
        raise DomainError(f"l_max must satisfy 0 <= l_max < N, got {l_max}")
    half = n_sites // 2
    top = min(l_max + 1, half)
    # the largest power of two that divides N, with P^2 <= N and top <= Q/2
    p = 1 << (min(n_sites & -n_sites, math.isqrt(n_sites),
                  n_sites // (2 * top)).bit_length() - 1)
    # at P = 1 the one column's angle is 0 at every lag: one row broadcasts
    phi = np.outer(np.arange(top + 1 if p > 1 else 1), np.arange(p // 2 + 1))
    phi = phi * (2.0 * np.pi / n_sites)
    twiddles = np.cos(phi), np.sin(phi, out=phi)
    # the columns before the ring, which leaves one free block for the
    # buffer and the spectra once it is copied
    columns = np.empty((p // 2 + 1, n_sites // p)) if p > 1 else None
    # cos theta up to theta = pi/2 (the whole half ring when N is odd), then
    # on an even ring cos theta_{N/2-k} = -cos theta_k up to k = N/2, and
    # the mirror cos theta_{N-k} = cos theta_k
    ring = np.arange(n_sites, dtype=np.float64)
    cos = ring[:half + 1 if n_sites % 2 else n_sites // 4 + 1]
    cos *= 2.0 * np.pi / n_sites
    np.cos(cos, out=cos)
    np.negative(ring[:half + 1 - cos.size][::-1],
                out=ring[cos.size:half + 1])
    ring[half + 1:] = ring[1:n_sites - half][::-1]
    rows = ring.reshape(n_sites // p, p)[:, :p // 2 + 1]
    if p == 1:
        columns = rows.T
    else:
        for start in range(0, n_sites // p, _COPY_ROWS):
            block = slice(start, start + _COPY_ROWS)
            columns[:, block] = rows[block].T
    del ring, rows, cos     # its block is free now, unless P = 1
    buffer = columns if couplings == 1 else np.empty_like(columns)
    return n_sites, l_max, columns, buffer, twiddles


def _cosine_sums(inv_nu: np.ndarray, top: int, cos: np.ndarray,
                 sin: np.ndarray) -> np.ndarray:
    """sum_k ring_k cos(2 pi l k/N) for l = 0..top, top <= Q/2, of a real
    even ring of N = Q P sites, ring_k = ring_{N-k}, given as columns
    0..P/2 of its Q x P layout, one row each, with the twiddles cos and sin
    of 2 pi l j/N, by the four-step FFT (Bailey, J. Supercomput. 4, 23
    (1990)) pruned to those l: entry l of the rfft of column j, F_jl,
    gives sum_j Re F_jl e^{-2 pi i l j/N}.

    Evenness fixes half the columns.  Row q of column P - j holds
    k = qP + P - j = N - (Q-1-q)P - j, so column P - j is column j
    reversed, F_{P-j,l} = e^{2 pi i l/Q} conj(F_jl), and its twiddled term
    Re F_{P-j,l} e^{-2 pi i l (P-j)/N} equals column j's.  Only columns
    0..P/2 are transformed and twiddled, and columns 1..P/2-1, which stand
    for a pair, are doubled before numpy's pairwise sum; column P/2 is its
    own partner.  P = 1 is one full-length rfft."""
    spectrum = np.fft.rfft(inv_nu)[:, :top + 1].T
    # the terms in (lag, column) order, so each lag's sum is pairwise
    terms = np.multiply(sin, spectrum.imag, order="C")
    terms += cos * spectrum.real
    terms[:, 1:inv_nu.shape[0] - 1] *= 2.0
    return terms.sum(-1)


def finite_correlation_table(alpha, n_sites: int, l_max: int, *,
                             _ring=None) -> CorrelationTable:
    """Tabulate the exact N-site correlations up to lag `l_max`.

    g_l = (2N)^-1 sum_k cos(l theta_k)/nu_k and h_l the same with nu_k in
    place of 1/nu_k, where theta_k = 2 pi k/N and nu_k = sqrt(1 - alpha
    cos theta_k) are the N normal modes.  A real FFT of 1/nu evaluates the
    g_l.  Since nu_k = (1 - alpha cos theta_k)/nu_k and
    cos theta cos l theta = [cos (l-1) theta + cos (l+1) theta]/2, the
    momentum sum follows exactly on the ring:

        h_l = g_l - (alpha/2)(g_{l-1} + g_{l+1}),

    with ring indices g_{-l} = g_l = g_{N-l}, so every 0 <= l_max < N is
    covered for odd and even N.  The transform is needed at the folded lags
    0..min(l_max + 1, N/2) alone, and the ring symmetry supplies the rest.

    It runs in four steps, N = Q P (`_cosine_sums`), on columns 0..P/2 of
    the ring as a Q x P array, P the largest power of two that divides N
    with P^2 <= N and every folded lag at most Q/2: 1024 for validate's
    2^20-site ring, 1 (one full-length rfft) on odd rings and for lags past
    N/4.  cos theta is evaluated up to theta = pi/2 alone, reflected and
    mirrored onto the whole ring; the transform reads the whole ring, as a
    half-length cosine transform loses accuracy as alpha -> 1.  Those
    columns and the twiddles do not depend on alpha (`_oracle_ring`):
    validate's and sweep's oracle checks build them once for all their
    couplings (`_finite_tables`), with the bits of one call per coupling.

    g carries the transform's rounding and, as alpha -> 1, that of
    cos theta near theta = 0: against long double sums at N = 2^20, within
    1.4e-16, 2.1e-16 and 3.3e-16 at alpha = 0.5, 0.99 and 0.9999 and
    2.5e-14 at 1 - 1e-5, and within 2.2e-16 of the full-length rfft of the
    same ring.  h adds one cancellation of terms of size g_0, so its error
    is absolute, a few ulp of g_0: at most 4.4e-16 from the two-FFT sums on
    the same ring at N = 2^20 for alpha up to 1 - 1e-5, 1.2e-14 at N = 2
    there, where g_0 is 79.  A validation path, independent of the
    hypergeometric production route; N above `MAX_ORACLE_SITES` is
    refused.  `_ring` is `_finite_tables`'s shared ring.
    """
    alpha = _check_coupling(alpha)
    n_sites, l_max, columns, inv_nu, twiddles = (
        _ring or _oracle_ring(n_sites, l_max, 1))
    np.multiply(columns, -alpha, out=inv_nu)
    inv_nu += 1.0
    np.sqrt(inv_nu, out=inv_nu)
    np.reciprocal(inv_nu, out=inv_nu)
    # g on lags -1..l_max+1, folded onto the ring's 0..N/2: lag -1 is lag
    # 1, and a lag l past N/2 is lag N - l
    half = n_sites // 2
    sums = _cosine_sums(inv_nu, min(l_max + 1, half), *twiddles)
    g = np.concatenate((sums[1:2], sums, sums[n_sites - l_max - 1:
                                              n_sites - half][::-1]))
    g /= 2.0 * n_sites
    # h in place, one lag-length temporary fewer
    h = g[:-2] + g[2:]
    h *= -0.5 * alpha
    h += g[1:-1]
    return CorrelationTable(alpha=alpha, g=g[1:-1], h=h)


def _finite_tables(alphas, n_sites, l_max):
    """`finite_correlation_table(alpha, n_sites, l_max)` for each of the
    sequence `alphas` in turn, bit for bit, from one shared ring: through
    that function, so a trace of it sees every coupling."""
    ring = _oracle_ring(n_sites, l_max, len(alphas))
    for alpha in alphas:
        yield finite_correlation_table(alpha, n_sites, l_max, _ring=ring)
