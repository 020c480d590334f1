"""Smeared vacuum propagators of the (1+1)-D scalar field and their negativity.

The field and its conjugate momentum are averaged over windows of length L
(normalized by 1/sqrt(L)), giving the window-smeared propagators

    D_phi(r) = (1/(pi L)) Int dk  sin^2(kL/2) cos(kr) / (k^2 sqrt(k^2+m^2)),
    D_pi(r)  = (1/(pi L)) Int dk  sqrt(k^2+m^2) sin^2(kL/2) cos(kr) / k^2,

over the whole real line, with r the distance between window centers.  The
equal-time commutator of a smeared pair on the same window is [Phi_L, Pi_L]
= i (the one-dimensional contact term integrated over the window, divided by
L), so the vacuum uncertainty product is 1/4 exactly as for the chain
blocks.  D_phi converges absolutely for every r.  D_pi converges only conditionally:
writing sin^2(kL/2) cos(kr) = (1/4)[2cos(kr) - cos(k(r+L)) - cos(k(r-L))],
the large-k integrand is a sum of cos-oscillations/k terms -- except at
r = 0 and r = L, where one frequency degenerates to zero and the integral
diverges logarithmically (sharp windows do not regularize the momentum
variance).  Those two separations return signed infinity; the entanglement
measure is evaluated only for non-overlapping windows r > L, where every
quantity it consumes is finite and epsilon comes out 0 throughout.  A
party of several windows, alternating with the other party's, sums these
propagators over the window-center distances (`FieldRegionSpec.windows`).

Numerical scheme: Int dk e^{ikx} / sqrt(k^2+m^2) = 2 K0(m|x|) and
sin^2(kL/2)/k^2 = (1/4) Int (L - |t|) e^{ikt} dt, so both propagators are the
window's triangle kernel integrated against a Bessel function:

    D_phi(r) = (1/(2 pi L)) Int_{-L}^{L} (L - |t|) K0(m|r - t|) dt.

* Separated windows, r > L: the kernel is smooth on the triangle, and
  (m^2 - d^2/dx^2) K0(mx) = -m K1(mx)/x gives D_pi the same form with the
  kernel -m K1(m(r-t))/(r-t).  Both integrands keep one sign, so nothing
  cancels.  They are summed by 16-point Gauss-Legendre panels in s = r - t.
  Panel widths double away from s = r - L and start at min(r - L, 1/m):
  no panel is wider than its distance to the singularity at s = 0, and
  the first ones resolve the decay length 1/m.  The rules of all pairs
  are built at once, K0 and x K1 are evaluated once over all their nodes
  (`_separated`), and each value is one numpy sum (no BLAS dot) over its
  own nodes.  Relative accuracy is about 1e-15, also for nearly touching
  windows, tiny masses and large separations.
* Overlapping windows, r <= L: second differences of
  Phi(x) = 2 Int_0^x (x - t) K0(mt) dt, the triangle's second derivative
  being three delta functions:

      D_phi(r) = [Phi(r+L) + Phi(L-r) - 2 Phi(r)] / (4 pi L),
      D_pi(r)  = [2 K0(mr) - K0(m(r+L)) - K0(m(L-r))] / (2 pi L) + m^2 D_phi(r).

  While m(r+L) <= 2, Phi(x) = x^2 f(mx) with f(u) = 2 Int_0^u K0 / u
  - 2 (1 - u K1(u))/u^2, both parts from their ascending series (the
  direct difference 1 - u K1(u) loses every digit as u -> 0).  Beyond,
  Phi(x) = pi x/m - 2/m^2 + 2 Ki2(mx)/m^2: the linear parts add up to
  2 pi (L - r)/m exactly and only the Bickley function Ki2 (DLMF 10.43)
  is differenced, so a large m L costs no digits.  D_phi is accurate to
  about 1e-15 relative (1.4e-16 at r = L/2, m = L = 1), D_pi to about
  1e-15 of max(|D_pi|, 1/L): it changes sign between r = 0 and r = L.

The Bessel functions are evaluated here, with numpy alone.  For x <= 2
they are the ascending series of DLMF 10.31.1-2 in q = x^2/4 and
ln x - ln 2, with ln(m s) taken as ln m + ln s (never ln(x/2) or
ln(m s), which underflow at 5e-324); for x > 2, u = sqrt(2x) sinh(t/2) in
K_nu(x) = Int_0^inf exp(-x cosh t) cosh(nu t) dt gives K0(x) = exp(-x)
Int_0^inf exp(-u^2) 2 du / sqrt(2x + u^2), and x K1 the extra factor
x + u^2 in the numerator.  The trapezoid rule in u then has an error
uniform in x, and both sides stay within 5e-16 relative of mpmath.
Logarithms and exponentials are taken node by node with `math`: numpy's
own are dispatched on the CPU's SIMD width and round differently on
different hosts.

Both propagators are evaluated at unit window length, at mass mu = m L and
separation rho = r/L, then rescaled once: D_phi = L D_phi|_(mu, rho) and
D_pi = D_pi|_(mu, rho) / L.  No intermediate grows like L^2, so a value is
returned whenever it and m L fit a float; the branch is still chosen on
the sign of r - L, since r/L can round to 1.  Where m L overflows, the
propagators are their large-mass limits D_phi = (L - r)/(2 m L) and D_pi
= m (L - r)/(2 L) for r < L, and 0 for r > L (at m L = 1e300 the
evaluated values agree with these to 2 ulp); where m L underflows, or r/L
leaves the float range, QuadratureError.

Every window pair of a call goes through one array pass (`_pairs`), one
per branch, and each value has the bits it has alone: `field_covariance`
takes all its lags in one call, lag l at rho = l (r/L), so l r need not
fit a float, and lag 0 at rho = 0; the field command takes all its
separations in one call; `d_phi` and `d_pi` are that pass at one pair.

The closed forms have no tolerance to set.  `d_phi` and `d_pi` still accept
`tol` for callers written against the earlier quadrature, and ignore it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .blocks import subblock_pairs
from .entanglement import CollectiveCovariance, EntanglementResult, negativity
from .errors import DomainError, QuadratureError, _check_int, _check_real

#: the 16-point Gauss-Legendre rule on [-1, 1], numpy's `leggauss(16)`
#: (exactly symmetric), from its eight positive nodes and their weights
_GL_NODES = np.array((0.09501250983763744, 0.2816035507792589,
                      0.45801677765722737, 0.6178762444026438,
                      0.755404408355003, 0.8656312023878318,
                      0.9445750230732326, 0.9894009349916499))
_GL_WEIGHTS = np.array((0.18945061045506864, 0.18260341504492364,
                        0.16915651939500265, 0.1495959888165767,
                        0.12462897125553407, 0.0951585116824926,
                        0.062253523938647456, 0.027152459411754176))
_GL_NODES = np.concatenate((-_GL_NODES[::-1], _GL_NODES))
_GL_WEIGHTS = np.concatenate((_GL_WEIGHTS[::-1], _GL_WEIGHTS))

#: past this argument e^{-x}, and with it K0, x K1 and Ki2, underflow to 0
_UNDERFLOW = 750.0

#: trapezoid nodes t = 0, 0.15, ..., 4.5 for the Bickley function Ki2
_KI2_COSH = np.array([math.cosh(0.15 * j) for j in range(31)])
_KI2_WEIGHTS = 0.15 / _KI2_COSH**2
_KI2_WEIGHTS[0] *= 0.5

#: trapezoid nodes u = 0, 0.25, ..., 6.5 and weights 2 h exp(-u^2) for K0
#: and x K1 at x > 2 (half weight at u = 0; exp(-6.5^2) is 5e-19)
_U_SQUARED = (0.25 * np.arange(27))**2
_U_WEIGHTS = np.array([0.5 * math.exp(-v) for v in _U_SQUARED.tolist()])
_U_WEIGHTS[0] *= 0.5

_SERIES_TERMS = 14
_LN2 = math.log(2.0)


def _series_table():
    """(a_k, a_k b_k), k < `_SERIES_TERMS`, of the three ascending series
    sum_k q^k a_k (b_k - ln x + ln 2) in q = x^2/4, with psi(k+1) =
    H_k - gamma (DLMF 10.31.2, 10.31.1, and 10.31.2 integrated term by
    term); at x = 2 the first term left out is below 1e-22:

        K0(x)                 a_k = 1/k!^2,           b_k = psi(k+1)
        (1 - x K1(x)) / q     a_k = 2/(k!^2 (k+1)),   b_k = psi(k+1) + 1/(2k+2)
        Int_0^x K0(t) dt / x  a_k = 1/(k!^2 (2k+1)),  b_k = psi(k+1) + 1/(2k+1)
    """
    table = np.empty((3, 2, _SERIES_TERMS))
    psi = -np.euler_gamma
    for k in range(_SERIES_TERMS):
        if k:
            psi += 1.0 / k
        square = float(math.factorial(k))**2
        for row, (a, b) in enumerate((
                (1.0 / square, psi),
                (2.0 / (square * (k + 1)), psi + 0.5 / (k + 1)),
                (1.0 / (square * (2 * k + 1)), psi + 1.0 / (2 * k + 1)))):
            table[row, :, k] = a, a * b
    return table


_SERIES = _series_table()


#: most windows per party: `field_covariance` makes 4 propagator calls each
MAX_WINDOWS = 1000


@dataclass(frozen=True)
class FieldRegionSpec:
    """Two smeared field regions: mass, window length, center separation and
    windows per party, alternating A, B, A, ... `separation` apart."""

    mass: float
    length: float
    separation: float
    windows: int = 1

    def __post_init__(self):
        for name, label in (("mass", "mass"), ("length", "window length"),
                            ("separation", "separation")):
            object.__setattr__(self, name,
                               _check_real(label, getattr(self, name)))
        if not self.mass > 0.0:
            raise DomainError(
                f"mass must be positive (the massless window-averaged field "
                f"is infrared-divergent), got {self.mass}")
        if not self.length > 0.0:
            raise DomainError(
                f"window length must be positive (smearing is what removes "
                f"the contact divergence), got {self.length}")
        if not self.separation >= 0.0:
            raise DomainError(f"separation must be >= 0, got {self.separation}")
        windows = _check_int("windows", self.windows, 1)
        object.__setattr__(self, "windows", windows)
        if windows > MAX_WINDOWS:
            raise DomainError(f"windows must be <= {MAX_WINDOWS}, got {windows}")
        if windows > 1 and not self.separation > self.length:
            raise DomainError(
                f"{windows} windows per party need separation > length to "
                f"stay disjoint, got r={self.separation}, L={self.length}")


def _ascending(mu: float, x):
    """K0(u), (1 - u K1(u))/q and Int_0^u K0 / u at u = mu x <= 2, for
    mu > 0 and x a 1-d array of positive values, as the rows of a
    (3, x.size) array.  ln u is ln mu + ln x, exact also where mu x
    underflows."""
    u = mu * x
    powers = np.ones((x.size, _SERIES_TERMS))
    powers[:, 1:] = 0.25 * u[:, None] * u[:, None]
    powers = np.cumprod(powers, axis=1)
    log_half = (np.fromiter(map(math.log, x.tolist()), float, x.size)
                + (math.log(mu) - _LN2))
    a, ab = (powers[:, None, None, :] * _SERIES).sum(-1).T
    return ab - log_half * a


def _k0_xk1(mu: float, x):
    """K0(u) and u K1(u) at u = mu x, for mu > 0 and x a 1-d array of
    positive values: the ascending series up to u = 2, the trapezoid rule in
    the module docstring's variable beyond.  exp(-u) is applied in two
    halves, so a value above the underflow threshold keeps its digits; past
    `_UNDERFLOW` both are 0.  Taken in blocks of 512 values, whose
    temporaries stay small enough to be reused from the heap and the
    cache: a long array costs no more resident memory than a short one."""
    k0, xk1 = np.zeros(x.shape), np.zeros(x.shape)
    for lo in range(0, x.size, 512):
        at = slice(lo, lo + 512)
        with np.errstate(over="ignore"):    # u past the float range
            u = mu * x[at]
        small = u <= 2.0
        if small.any():
            rows = _ascending(mu, x[at][small])
            k0[at][small] = rows[0]
            xk1[at][small] = 1.0 - 0.25 * u[small] * u[small] * rows[1]
        large = (u > 2.0) & (u < _UNDERFLOW)
        if large.any():
            col = u[large][:, None]
            cosh = col + _U_SQUARED             # u cosh t
            # two (values, 27) arrays at a time, the rest in place
            terms = col + cosh
            np.divide(_U_WEIGHTS, np.sqrt(terms, out=terms), out=terms)
            half = np.fromiter(map(math.exp, (-0.5 * u[large]).tolist()),
                               float)
            k0[at][large] = terms.sum(-1) * half * half
            xk1[at][large] = (np.multiply(terms, cosh, out=cosh).sum(-1)
                              * half * half)
    return k0, xk1


def _phi_shape(mu: float, x):
    """f(u) = Phi(x) / x^2, 2 Int_0^u K0 / u - 2 (1 - u K1(u))/u^2, and
    K0(u) at u = mu x <= 2 (x a 1-d array of positive values), from one
    `_ascending` call."""
    k0, one_minus_k1, int_k0 = _ascending(mu, x)
    return 2.0 * int_k0 - 0.5 * one_minus_k1, k0


def _ki2(u):
    """Bickley function Ki2(u) = Int_0^inf exp(-u cosh t) / cosh^2 t dt at a
    1-d array of u >= 0.

    Ki2(u) = 1 - pi u/2 + u^2 f(u)/2 up to u = 2, and Ki2(0) = 1; beyond,
    the trapezoid rule in t, whose absolute error there is below 1e-16.
    Past `_UNDERFLOW` every node underflows to 0, and u cosh t could
    overflow.
    """
    ki2 = np.where(u > 0.0, 0.0, 1.0)
    small = (u > 0.0) & (u <= 2.0)
    if small.any():
        s = u[small]
        ki2[small] = (1.0 - 0.5 * math.pi * s
                      + 0.5 * s * s * _phi_shape(1.0, s)[0])
    large = (u > 2.0) & (u <= _UNDERFLOW)
    if large.any():
        exponents = np.multiply.outer(-u[large], _KI2_COSH)
        nodes = np.fromiter(map(math.exp, exponents.ravel().tolist()), float,
                            exponents.size).reshape(exponents.shape)
        ki2[large] = (nodes * _KI2_WEIGHTS).sum(-1)
    return ki2


def _overlapping(mu: float, rho, rest) -> np.ndarray:
    """D_phi and D_pi at unit window length, as the two rows of an array,
    for overlapping window pairs: 1-d arrays rho = r/L <= 1 and rest =
    (L - r)/L, at a finite mu; at D_pi's poles r = 0 and r = L a stand-in,
    which `_pairs` replaces.  The second differences of the module
    docstring: while mu (rho+1) <= 2 one `_ascending` call gives Phi's
    shape f and K0 at all three points, beyond it `_ki2` and `_k0_xk1`.
    Taken in blocks of 512 rows, as `_k0_xk1` takes its values, so a long
    grid costs no more resident memory than a short one."""
    unit = np.empty((2, rho.size))
    signs = np.array([[1.0], [1.0], [-2.0]])
    for lo in range(0, rho.size, 512):
        at = slice(lo, lo + 512)
        x = np.array([rho[at] + 1.0, rest[at], rho[at]])
        # a term at x = 0 is 0, and its K0 is never used: rho + 1 stands in
        inner = np.where(x > 0.0, x, x[0])
        phi, k0 = np.empty(x.shape[1]), np.empty(x.shape)
        small = mu * x[0] <= 2.0
        if small.any():
            shape, k0_small = _phi_shape(mu, inner[:, small].ravel())
            k0[:, small] = k0_small.reshape(3, -1)
            terms = signs * x[:, small] * x[:, small] * shape.reshape(3, -1)
            phi[small] = terms[0] + terms[1] + terms[2]
        large = ~small
        if large.any():
            ki2 = _ki2((mu * x[:, large]).ravel()).reshape(3, -1)
            phi[large] = (2.0 * math.pi * x[1, large] / mu + 2.0 / (mu * mu)
                          * (ki2[0] + ki2[1] - 2.0 * ki2[2]))
            k0[:, large] = _k0_xk1(mu, inner[:, large].ravel())[0].reshape(
                3, -1)
        unit[0, at] = phi / (4.0 * math.pi)
        unit[1, at] = ((2.0 * k0[2] - k0[0] - k0[1]) / (2.0 * math.pi)
                       + mu * (mu * unit[0, at]))
    return unit


def _panel_counts(widths):
    """Panels of the graded rule from each of `widths` (see `_graded_rule`):
    one per doubling whose start lies below 1, as an int array.  The start
    of doubling floor(log2(1/width + 1)) is tested; every earlier one lies
    below 1/2.  A width under 2^-1023 counts as 2^-1023 (1/width fits)."""
    doublings = np.array([int(math.log2(1.0 / max(w, 2.0**-1023) + 1.0))
                          for w in widths.tolist()], dtype=int)
    return doublings + (widths * (2.0 ** doublings - 1.0) < 1.0)


def _graded_rule(widths, panels: int):
    """Gauss-Legendre offsets and weights on [0, 1], one row per entry of
    `widths`, panel widths doubling from it (a panel [a, 2a + width] per
    doubling, the last one closed at 1); every row has `panels` panels."""
    edges = np.ones((widths.size, panels + 1))
    edges[:, :-1] = widths[:, None] * (2.0 ** np.arange(panels) - 1.0)
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    mid = edges[:, :-1] + half
    return ((mid[..., None] + half[..., None] * _GL_NODES).reshape(
        widths.size, -1), (half[..., None] * _GL_WEIGHTS).reshape(
        widths.size, -1))


def _separated(mu: float, rho, gap) -> np.ndarray:
    """Int_{-1}^{1} (1 - |t|) k(rho - t) dt at unit window length for the
    kernels K0(mu s) and -mu K1(mu s)/s, i.e. 2 pi D_phi and 2 pi D_pi, as
    the two rows of an array, for separated window pairs: 1-d arrays
    rho = r/L > 1 and gap = (r - L)/L.

    In s = rho - t the near half [gap, rho] has weight s - gap and the far
    half [rho, rho + 1] weight rho + 1 - s; both are graded away from their
    lower end, the near half also away from the singularity at s = 0.
    The nodes of all pairs go through `_k0_xk1` together, one call per
    run of pairs whose nodes end in one 2^13-node block, which bounds the
    memory of a long grid (a few hundred pairs of m L ~ 1 make one run).
    Pairs of equal node count are summed as the rows of one array, each by
    the pairwise sum it gets alone.
    """
    near = np.minimum(gap, 1.0 / mu)
    panels = _panel_counts(near)
    far_width = np.array([min(1.0, 1.0 / mu)])
    far, far_w = _graded_rule(far_width, int(_panel_counts(far_width)[0]))
    far_weights = (1.0 - far) * far_w
    unit = np.empty((2, gap.size))
    # runs of the pairs whose nodes end in one 2^13-node block
    cuts = (np.flatnonzero(np.diff(np.cumsum(16 * panels + far.size) >> 13))
            + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [gap.size]):
        groups = []
        for count in sorted(set(panels[lo:hi].tolist())):
            rows = lo + np.flatnonzero(panels[lo:hi] == count)
            offsets, weights = _graded_rule(near[rows], count)
            s = np.hstack([gap[rows, None] + offsets, rho[rows, None] + far])
            groups.append((rows, s, np.hstack([
                offsets * weights,
                np.broadcast_to(far_weights, (rows.size, far.size))])))
        k0, xk1 = _k0_xk1(mu, np.concatenate([s.ravel()
                                              for _, s, _ in groups]))
        start = 0
        for rows, s, weights in groups:
            at = slice(start, start + s.size)
            start += s.size
            unit[0, rows] = (weights * k0[at].reshape(s.shape)).sum(-1)
            # mu K1(mu s)/s = x K1(x)/s^2 keeps its limit 1/s^2 where mu s
            # underflows; 1/s/s, since s^2 can overflow
            unit[1, rows] = -(weights * (xk1[at].reshape(s.shape) / s
                                         / s)).sum(-1)
    return unit


def d_phi(spec: FieldRegionSpec, at: float, tol: float | None = None) -> float:
    """Smeared field propagator D_phi at center distance `at`.

    Finite for every separation; even in `at`.  `tol` is accepted and unused
    (the evaluation is a closed form, see the module docstring).
    """
    r = abs(_check_real("separation", at))
    return float(_pairs(spec, r, 1, (0,))[0, 0])


def d_pi(spec: FieldRegionSpec, at: float, tol: float | None = None) -> float:
    """Smeared momentum propagator D_pi at center distance `at`; even in `at`.

    Returns +inf at `at` = 0 and -inf at `at` = L: there the oscillatory
    decomposition acquires a zero-frequency component and the integral
    diverges logarithmically (with slope +1/(pi L) resp. -1/(2 pi L) per
    unit log-cutoff), so no finite value exists.  `tol` is accepted and
    unused.
    """
    r = abs(_check_real("separation", at))
    if r == 0.0:
        return math.inf
    if r == spec.length:
        return -math.inf
    return float(_pairs(spec, r, 1, (1,))[0, 0])


def _pairs(spec: FieldRegionSpec, at, lags, rows=(0, 1)) -> np.ndarray:
    """D_phi and D_pi of window pairs `lags` window spacings `at` apart, as
    the rows `rows` (0 for D_phi, 1 for D_pi) of an array: `at` finite
    floats >= 0, `lags` an int >= 0 or an array of them in `at`'s shape,
    lag 0 only at `at` = 0.  At unit window length rho is lags
    (at/L) and the gap rho - 1, at lag 1 (at - L)/L, one rounding from the
    truth also for nearly touching windows; past it rho > 2, and rho - 1
    loses nothing.  D_pi is +inf at distance 0 and -inf at distance L.

    The first failing pair raises QuadratureError: where m L underflows,
    or r/L overflows or underflows, otherwise where a value of `rows`
    leaves the float range, D_phi before D_pi; so `d_phi` and `d_pi` each
    refuse only their own value.  Over the field command's rows, an
    ascending `at` at lag 1, that is the first in order."""
    at = np.asarray(at, dtype=float).reshape(-1)
    length = spec.length
    mu = spec.mass * length
    with np.errstate(over="ignore"):    # r/L or a value past the float range
        rho = lags * (at / length)
        gap = np.where(lags == 1, (at - length) / length, rho - 1.0)
        fits = (mu == math.inf) | ((mu > 0.0) & (rho < math.inf)
                                   & ((rho > 0.0) | (at == 0.0)))
        near, far = fits & (gap <= 0.0), fits & (gap > 0.0)
        if mu == math.inf:  # (L - r)/(2 m L) and m (L - r)/(2 L), 0 past L
            rest = np.maximum(-gap, 0.0) + 0.0
            values = np.array([rest / spec.mass, rest * spec.mass]) / 2.0
        else:
            values = np.zeros((2, at.size))
            if far.any():
                values[:, far] = _separated(mu, rho[far], gap[far]) / (
                    2.0 * math.pi)
            values[:, near] = _overlapping(mu, rho[near], -gap[near])
            values[0] *= length
            values[1] /= length
    finite = np.isfinite(values)
    zero, touching = at == 0.0, gap == 0.0      # D_pi's poles, see `d_pi`
    values[1, zero], values[1, touching] = math.inf, -math.inf
    finite[1] |= zero | touching
    bad = ~(fits & finite[list(rows)].all(0))
    if bad.any():
        i = int(np.argmax(bad))
        r = int(np.broadcast_to(lags, at.shape)[i]) * float(at[i])
        if not fits[i]:
            raise QuadratureError(
                f"m L = {mu}, r/L = {float(rho[i])} at m={spec.mass}, "
                f"L={length}, r={r} (floating-point range exceeded)")
        row = next(q for q in rows if not finite[q, i])
        raise QuadratureError(
            f"{('D_phi', 'D_pi')[row]} evaluated to {float(values[row, i])} "
            f"at m={spec.mass}, L={length}, r={r} "
            f"(floating-point range exceeded)")
    return values[list(rows)]


def field_covariance(spec: FieldRegionSpec) -> CollectiveCovariance:
    """Collective covariance of the two parties: single-window propagators
    summed over center distances l r, as many as `blocks.subblock_pairs`
    counts ordered window pairs l apart: (A, A) at even l, (A, B) at odd l.
    All lags take one `_pairs` call, lag 0 at distance 0 and lag l at
    l (r/L), so l r need not fit a float.
    A 1/sqrt(windows L) norm per collective operator keeps [Q, P] = i: the
    vacuum product stays 1/4."""
    w = spec.windows
    lags = np.arange(2 * w)
    per_lag = _pairs(spec, np.where(lags, spec.separation, 0.0), lags)
    # every count is positive, since 0 * D_pi(0) = 0 * inf is NaN
    g, h = (subblock_pairs(w) * per_lag).tolist()
    return CollectiveCovariance(
        g_diag=math.fsum(g[0::2]) / w, h_diag=math.fsum(h[0::2]) / w,
        g_cross=math.fsum(g[1::2]) / w, h_cross=math.fsum(h[1::2]) / w)


def field_negativity(spec: FieldRegionSpec) -> EntanglementResult:
    """Entanglement degree between the two smeared regions; requires
    non-overlapping windows, separation > length."""
    if not spec.separation > spec.length:
        raise DomainError(
            f"entanglement evaluation needs non-overlapping windows "
            f"(separation > length), got r={spec.separation}, L={spec.length}")
    return negativity(field_covariance(spec))
