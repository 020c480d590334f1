"""The chain's collective covariance tends to the smeared field's as the
lattice spacing goes to 0.

Derivation.  A scalar field of mass m_f on a lattice of spacing a, with
sites phi_j, [phi_i, pi_j] = i delta_ij / a and

    H = a sum_j [pi_j^2/2 + (phi_{j+1} - phi_j)^2/(2 a^2) + m_f^2 phi_j^2/2],

has normal modes omega(theta)^2 = m_f^2 + (2/a^2)(1 - cos theta)
= Omega^2 (1 - alpha cos theta), with alpha = 1/(1 + (m_f a)^2/2) and
Omega = sqrt(2/alpha)/a.  This is the chain's dispersion nu(theta) =
sqrt(1 - alpha cos theta) in units of Omega, so <phi_i phi_j> = g_l/(a Omega)
and <pi_i pi_j> = Omega h_l/a at lag l = |i - j|.  A window of length L
holds s = L/a sites, and the smeared field Phi_L = L^{-1/2} a sum_j phi_j
has [Phi_L, Pi_L] = i.  Summing the lattice correlations over two windows
gives the chain's collective moments (1/n) sum g_l with n = s:

    <Phi_A Phi_B> = c G_AB,    <Pi_A Pi_B> = H_AB / c,    c = 1/Omega
                  = a sqrt(alpha/2),

and likewise for the diagonal moments.  Window centers r apart are
subblocks of s sites with pitch r/a, so d = s (r/L - 1) unused sites lie
between them: `BlockSpec(1, s, d)`, or `BlockSpec(w, s, d)` for w windows
per party, whose 1/sqrt(w L) norm is the chain's 1/sqrt(n) with n = w s.

Rates.  The separated windows see a smooth kernel, so the cross moments
converge like a^2: the error falls 4-fold per halving of a.  The diagonal
field moment integrates the kernel across its logarithmic singularity at
zero distance, so its error falls a little slower, by a ratio that climbs
towards 4 from below.  The momentum variance D_pi(0) diverges like the log
of the cutoff (see `chainent.field`): the lattice cuts k off at pi/a =
pi s/L, so H/c gains ln 2/(pi L) per doubling of s.
"""

import math

import pytest

from chainent import (BlockSpec, FieldRegionSpec, correlation_table,
                      covariance_of_blocks, d_phi, d_pi, field_covariance)


def lattice_moments(mass, length, separation, sites, windows=1):
    """(G, H, G_AB, H_AB) of the lattice field with `sites` per window, in
    the field's normalization."""
    a = length / sites
    alpha = 1.0 / (1.0 + 0.5 * (mass * a) ** 2)
    c = a * math.sqrt(0.5 * alpha)
    spec = BlockSpec(windows, sites, round(sites * (separation / length - 1)))
    cov = covariance_of_blocks(correlation_table(alpha, spec.max_lag), spec)
    return c * cov.g_diag, cov.h_diag / c, c * cov.g_cross, cov.h_cross / c


class TestContinuumLimit:
    MASS, LENGTH, R = 1.0, 1.0, 2.0
    SITES = [2**k for k in range(3, 10)]

    @pytest.fixture(scope="class")
    def errors(self):
        """Per s: |c G_AB - D_phi(r)|, |H_AB/c - D_pi(r)|, c G - D_phi(0)
        and H/c."""
        spec = FieldRegionSpec(self.MASS, self.LENGTH, self.R)
        phi_r, pi_r = d_phi(spec, self.R), d_pi(spec, self.R)
        phi_0 = d_phi(spec, 0.0)
        rows = []
        for s in self.SITES:
            g, h, g_ab, h_ab = lattice_moments(self.MASS, self.LENGTH,
                                               self.R, s)
            rows.append((abs(g_ab - phi_r), abs(h_ab - pi_r), g - phi_0, h))
        return rows

    def test_cross_moments_converge_at_second_order(self, errors):
        for coarse, fine in zip(errors, errors[1:]):
            for k in (0, 1):
                assert 3.9 <= coarse[k] / fine[k] <= 4.1
        assert errors[-1][0] < 2e-8 and errors[-1][1] < 2e-8

    def test_field_variance_converges_from_above(self, errors):
        for coarse, fine in zip(errors, errors[1:]):
            assert fine[2] > 0.0
            assert 3.0 < coarse[2] / fine[2] < 4.0
        assert errors[-1][2] < 2e-6

    def test_momentum_variance_grows_like_log_cutoff(self, errors):
        step = math.log(2.0) / (math.pi * self.LENGTH)
        for s, coarse, fine in zip(self.SITES, errors, errors[1:]):
            if s >= 256:
                assert fine[3] - coarse[3] == pytest.approx(step, abs=1e-5)


def test_multi_window_limit():
    # three windows per party, 16-fold smaller errors per 4-fold finer lattice
    mass, length, separation, windows = 0.5, 1.0, 1.5, 3
    field = field_covariance(
        FieldRegionSpec(mass, length, separation, windows=windows))
    errors = []
    for s in (16, 64, 256):
        _, _, g_ab, h_ab = lattice_moments(mass, length, separation, s,
                                           windows)
        errors.append((abs(g_ab - field.g_cross), abs(h_ab - field.h_cross)))
    for coarse, fine in zip(errors, errors[1:]):
        for k in (0, 1):
            assert 15.6 <= coarse[k] / fine[k] <= 16.4
    assert max(errors[-1]) < 1e-6
