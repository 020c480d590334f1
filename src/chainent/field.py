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
quantity it consumes is finite and epsilon comes out 0 throughout.

Numerical scheme: Int dk e^{ikx} / sqrt(k^2+m^2) = 2 K0(m|x|) and
sin^2(kL/2)/k^2 = (1/4) Int (L - |t|) e^{ikt} dt, so both propagators are the
window's triangle kernel integrated against a Bessel function:

    D_phi(r) = (1/(2 pi L)) Int_{-L}^{L} (L - |t|) K0(m|r - t|) dt.

* Separated windows, r > L: the kernel is smooth on the triangle, and
  (m^2 - d^2/dx^2) K0(mx) = -m K1(mx)/x gives D_pi the same form with the
  kernel -m K1(m(r-t))/(r-t).  Both integrands keep one sign, so nothing
  cancels.  They are summed by 16-point Gauss-Legendre panels in s = r - t,
  one vectorized k0 or k1 call per value.  Panel widths double away from
  s = r - L and start at min(r - L, 1/m): no panel is wider than its
  distance to the singularity at s = 0, and the first ones resolve the
  decay length 1/m.  Relative accuracy is about 1e-15, also for nearly
  touching windows, tiny masses and large separations.
* Overlapping windows, r <= L: second differences of
  Phi(x) = 2 Int_0^x (x - t) K0(mt) dt, the triangle's second derivative
  being three delta functions:

      D_phi(r) = [Phi(r+L) + Phi(L-r) - 2 Phi(r)] / (4 pi L),
      D_pi(r)  = [2 K0(mr) - K0(m(r+L)) - K0(m(L-r))] / (2 pi L) + m^2 D_phi(r).

  While m(r+L) <= 2, Phi(x) = x^2 f(mx) with f(u) = 2 Int_0^u K0 / u
  - 2 (1 - u K1(u))/u^2 from iti0k0 and the ascending series of
  1 - u K1(u) (DLMF 10.31.1; the direct difference loses every digit as
  u -> 0).  Beyond, Phi(x) = pi x/m - 2/m^2 + 2 Ki2(mx)/m^2: the linear
  parts add up to 2 pi (L - r)/m exactly and only the Bickley function Ki2
  (DLMF 10.43) is differenced, so a large m L costs no digits.  Accuracy
  is a few 1e-14 relative to the largest term, set by iti0k0 (D_pi changes
  sign between r = 0 and r = L).

Both propagators are evaluated at unit window length, at mass mu = m L and
separation rho = r/L, then rescaled once: D_phi = L D_phi|_(mu, rho) and
D_pi = D_pi|_(mu, rho) / L.  No intermediate grows like L^2, so a value is
returned whenever it and m L fit a float; the branch is still chosen on
r > L, since r/L can round to 1.

The closed forms have no tolerance to set.  `d_phi` and `d_pi` still accept
`tol` for callers written against the earlier quadrature, and ignore it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import iti0k0, k0, k1, roots_legendre

from .blocks import lag_count_array
from .entanglement import (CollectiveCovariance, EntanglementResult,
                           negativity)
from .errors import DomainError, QuadratureError

_GL_NODES, _GL_WEIGHTS = roots_legendre(16)

#: trapezoid nodes t = 0, 0.15, ..., 4.5 for the Bickley function Ki2
_KI2_COSH = np.cosh(0.15 * np.arange(31))
_KI2_WEIGHTS = 0.15 / _KI2_COSH**2
_KI2_WEIGHTS[0] *= 0.5


def _small_u_coefficients(terms: int = 14):
    """1/(k!(k+1)!) and (psi(k+1) + psi(k+2))/(k!(k+1)!) for k < terms."""
    inv, psi = [], []
    scale, harmonic = 1.0, 0.0      # 1/(k!(k+1)!), H_k
    for k in range(terms):
        if k:
            scale /= k * (k + 1)
            harmonic += 1.0 / k
        inv.append(scale)
        psi.append((2.0 * harmonic + 1.0 / (k + 1) - 2.0 * np.euler_gamma)
                   * scale)
    return inv[::-1], psi[::-1]


_SMALL_U_INV, _SMALL_U_PSI = _small_u_coefficients()


@dataclass(frozen=True)
class FieldRegionSpec:
    """Two smeared field regions: mass, window length and center separation."""

    mass: float
    length: float
    separation: float

    def __post_init__(self):
        for name, value in (("mass", self.mass), ("window length", self.length),
                            ("separation", self.separation)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
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


def _one_minus_u_k1(u: float) -> float:
    """(1 - u K1(u)) / u^2 for 0 < u <= 2, from the ascending series
    1 - u K1(u) = (u^2/4) sum_k [psi(k+1) + psi(k+2) - 2 ln(u/2)]
    (u^2/4)^k / (k!(k+1)!) (DLMF 10.31.1); the direct difference loses all
    digits as u -> 0."""
    q = 0.25 * u * u
    log_term = 2.0 * math.log(0.5 * u)
    total = 0.0
    for inv, psi in zip(_SMALL_U_INV, _SMALL_U_PSI):
        total = total * q + (psi - log_term * inv)
    return 0.25 * total


def _phi_shape(u: float) -> float:
    """f(u) = Phi(x) / x^2 at u = m x, for 0 < u <= 2."""
    return 2.0 * (float(iti0k0(u)[1]) / u - _one_minus_u_k1(u))


def _ki2(u: float) -> float:
    """Bickley function Ki2(u) = Int_0^inf exp(-u cosh t) / cosh^2 t dt.

    Ki2(u) = 1 - pi u/2 + u^2 f(u)/2; for u >= 2 the trapezoid rule in t,
    whose absolute error there is below 1e-16.
    """
    if u >= 2.0:
        return float(np.exp(-u * _KI2_COSH) @ _KI2_WEIGHTS)
    return 1.0 - 0.5 * math.pi * u + (0.5 * u * u * _phi_shape(u) if u else 0.0)


def _overlap_phi(mu: float, rho: float, rest: float) -> float:
    """4 pi D_phi at unit window length, Phi(rho+1) + Phi(rest) - 2 Phi(rho),
    for rho = r/L <= 1 and rest = (L - r)/L."""
    terms = ((1.0, rho + 1.0), (1.0, rest), (-2.0, rho))
    if mu * (rho + 1.0) <= 2.0:
        return sum(c * x * x * _phi_shape(mu * x) for c, x in terms if x)
    # Phi(x) = pi x/mu - 2/mu^2 + 2 Ki2(mu x)/mu^2: the linear parts add up to
    # 2 pi rest/mu exactly, so only the decaying Bickley parts are differenced
    return (2.0 * math.pi * rest / mu
            + 2.0 / (mu * mu) * sum(c * _ki2(mu * x) for c, x in terms))


def _graded_rule(width: float):
    """Gauss-Legendre offsets and weights on [0, 1], panel widths doubling
    from `width` (a panel [a, 2a + width] per doubling)."""
    doublings = int(math.log2(1.0 / width + 1.0)) + 1
    edges = width * (2.0 ** np.arange(doublings) - 1.0)
    edges = np.append(edges[edges < 1.0], 1.0)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    offsets = (mid[:, None] + half[:, None] * _GL_NODES).ravel()
    weights = (half[:, None] * _GL_WEIGHTS).ravel()
    return offsets, weights


def _triangle_integral(kernel, mu: float, rho: float, gap: float) -> float:
    """Int_{-1}^{1} (1 - |t|) kernel(rho - t) dt at unit window length, for
    separated windows rho = r/L > 1 with gap = (r - L)/L.

    In s = rho - t the near half [gap, rho] has weight s - gap and the far
    half [rho, rho + 1] weight rho + 1 - s; both are graded away from their
    lower end, the near half also away from the singularity at s = 0.
    """
    near, near_w = _graded_rule(min(gap, 1.0 / mu))
    far, far_w = _graded_rule(min(1.0, 1.0 / mu))
    s = np.concatenate([gap + near, rho + far])
    weights = np.concatenate([near * near_w, (1.0 - far) * far_w])
    return float(weights @ kernel(s))


def _distance(at) -> float:
    r = abs(float(at))
    if not math.isfinite(r):
        raise DomainError(f"separation must be finite, got {at}")
    return r


def _unit_mass(spec: FieldRegionSpec) -> float:
    """mu = m L, the mass at unit window length."""
    mu = spec.mass * spec.length
    if not 0.0 < mu < math.inf:
        raise QuadratureError(
            f"m L = {mu} at m={spec.mass}, L={spec.length} "
            f"(floating-point range exceeded)")
    return mu


def _finite(value: float, name: str, spec: FieldRegionSpec, r: float) -> float:
    if not math.isfinite(value):
        raise QuadratureError(
            f"{name} evaluated to {value} at m={spec.mass}, L={spec.length}, "
            f"r={r} (floating-point range exceeded)")
    return value


def d_phi(spec: FieldRegionSpec, at: float, tol: float | None = None) -> float:
    """Smeared field propagator D_phi at center distance `at`.

    Finite for every separation; even in `at`.  `tol` is accepted and unused
    (the evaluation is a closed form, see the module docstring).
    """
    length, r = spec.length, _distance(at)
    mu, rho = _unit_mass(spec), r / length
    if r > length:
        unit = _triangle_integral(lambda s: k0(mu * s), mu, rho,
                                  (r - length) / length) / (2.0 * math.pi)
    else:
        unit = _overlap_phi(mu, rho, (length - r) / length) / (4.0 * math.pi)
    return _finite(length * unit, "D_phi", spec, r)


def d_pi(spec: FieldRegionSpec, at: float, tol: float | None = None) -> float:
    """Smeared momentum propagator D_pi at center distance `at`; even in `at`.

    Returns +inf at `at` = 0 and -inf at `at` = L: there the oscillatory
    decomposition acquires a zero-frequency component and the integral
    diverges logarithmically (with slope +1/(pi L) resp. -1/(2 pi L) per
    unit log-cutoff), so no finite value exists.  `tol` is accepted and
    unused.
    """
    length, r = spec.length, _distance(at)
    if r == 0.0:
        return math.inf
    if r == length:
        return -math.inf
    mu, rho = _unit_mass(spec), r / length
    if r > length:
        unit = -_triangle_integral(lambda s: mu * k1(mu * s) / s, mu, rho,
                                   (r - length) / length) / (2.0 * math.pi)
    else:
        rest = (length - r) / length
        contact = (2.0 * k0(mu * rho) - k0(mu * (rho + 1.0))
                   - k0(mu * rest)) / (2.0 * math.pi)
        phi = _overlap_phi(mu, rho, rest) / (4.0 * math.pi)
        unit = float(contact) + mu * (mu * phi)
    return _finite(unit / length, "D_pi", spec, r)


def field_covariance(spec: FieldRegionSpec) -> CollectiveCovariance:
    """Collective covariance of the two windows at the spec's separation."""
    return CollectiveCovariance(
        g_diag=d_phi(spec, 0.0),
        h_diag=d_pi(spec, 0.0),
        g_cross=d_phi(spec, spec.separation),
        h_cross=d_pi(spec, spec.separation))


def field_negativity(spec: FieldRegionSpec) -> EntanglementResult:
    """Entanglement degree between the two smeared regions.

    Requires non-overlapping windows, separation > length.  The collective
    commutator is unit-normalized exactly as for the chain blocks, so the
    same vacuum product 1/4 applies.
    """
    if not spec.separation > spec.length:
        raise DomainError(
            f"entanglement evaluation needs non-overlapping windows "
            f"(separation > length), got r={spec.separation}, L={spec.length}")
    return negativity(field_covariance(spec))


def periodic_field_negativity(mass: float, length: float, gap: float,
                              windows: int) -> EntanglementResult:
    """Negativity for blocks made of `windows` alternating windows per party.

    Windows of length `length` alternate A, B, A, B, ... with `gap` > 0
    between consecutive windows; party covariances sum the pairwise
    single-window propagators over window-center distances (normalization
    1/sqrt(windows * length) per collective operator keeps the commutator at
    i, so the vacuum product stays 1/4).
    """
    if not (windows >= 1 and float(windows).is_integer()):
        raise DomainError(f"windows must be a positive integer, got {windows}")
    period = length + gap
    if not period > length:
        raise DomainError(
            f"window gap must be positive to keep regions disjoint, got {gap}")
    windows = int(windows)
    spec = FieldRegionSpec(mass=mass, length=length, separation=period)
    # window k is centered at k * period: A holds the even k, B the odd k
    index_a = np.arange(0, 2 * windows, 2)
    intra = lag_count_array(index_a, index_a)
    cross = lag_count_array(index_a, index_a + 1)

    def lag_sum(prop, counts):
        # only lags that occur: a zero count must not meet D_pi(0) = +inf
        return math.fsum(int(count) * prop(spec, lag * period)
                         for lag, count in enumerate(counts) if count) / windows

    cov = CollectiveCovariance(
        g_diag=lag_sum(d_phi, intra),
        h_diag=lag_sum(d_pi, intra),
        g_cross=lag_sum(d_phi, cross),
        h_cross=lag_sum(d_pi, cross))
    return negativity(cov)
