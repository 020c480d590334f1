import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainent import (ConvergenceError, Coupling, DomainError,
                      correlation_table, finite_correlation_table)
from tests import _frozen, oracles

couplings = st.floats(min_value=1e-6, max_value=0.999)


class TestCoupling:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7, float("nan")])
    def test_rejects_out_of_domain(self, alpha):
        with pytest.raises(DomainError):
            Coupling(alpha)

    def test_weak_coupling_z_is_half_alpha(self):
        alpha = 1e-8
        c = Coupling(alpha)
        z, mu = c.z, c.mu
        assert z == pytest.approx(alpha / 2, rel=1e-8)
        assert mu == pytest.approx(1.0, abs=1e-15)

    def test_z_at_09(self):
        z = Coupling(0.9).z
        assert z == pytest.approx(_frozen.Z_AT_09, rel=1e-15)
        assert z == pytest.approx((1 - math.sqrt(0.19)) / 0.9, rel=1e-13)

    def test_strong_coupling_z_approaches_one(self):
        c = Coupling(1 - 1e-12)
        z, mu = c.z, c.mu
        assert 0.999 < z < 1.0
        assert mu == pytest.approx(1 / math.sqrt(2), rel=1e-5)

    @given(alpha=couplings)
    def test_reduced_bounds(self, alpha):
        c = Coupling(alpha)
        z, mu = c.z, c.mu
        assert 0.0 < z < 1.0
        assert 1 / math.sqrt(2) < mu < 1.0


class TestHyp2f1:
    # the lag-0 seeds 2F1(1/2, 1/2; 1; z^2) and 2F1(-1/2, -1/2; 1; z^2)

    def test_g1_reconstruction_against_finite_chain(self):
        # the seed feeding g_1 must reproduce the spectral-sum oracle
        assert correlation_table(0.5, 1).g[1] == pytest.approx(
            finite_correlation_table(0.5, 2**20, 1).g[1], abs=1e-10)

    def test_term_cap_raises(self):
        # the recurrence would take 2.4e6 steps, under its cap; the seed
        # series hits its term cap first
        with pytest.raises(ConvergenceError, match="lag-0 seed series"):
            correlation_table(1 - 3e-11, 0)


class TestInfiniteChain:
    def test_uncoupled_limit(self):
        table = correlation_table(1e-9, 5)
        assert table.g[0] == pytest.approx(0.5, abs=1e-12)
        assert table.h[0] == pytest.approx(0.5, abs=1e-12)
        for l in (1, 2, 5):
            assert abs(table.g[l]) < 1e-9
            assert abs(table.h[l]) < 1e-9

    @pytest.mark.parametrize("alpha", [0.3, 0.9])
    def test_matches_spectral_oracle(self, alpha, tables):
        table = tables(alpha, 50)
        oracle = finite_correlation_table(alpha, 2**20, 50)
        assert np.max(np.abs(table.g[:51] - oracle.g)) < 1e-8
        assert np.max(np.abs(table.h[:51] - oracle.h)) < 1e-8

    def test_h1_negative(self):
        h1 = correlation_table(0.9, 1).h[1]
        assert h1 < 0
        assert h1 == pytest.approx(
            finite_correlation_table(0.9, 2**20, 1).h[1], abs=1e-8)

    def test_h0_against_oracle(self):
        assert correlation_table(0.5, 0).h[0] == pytest.approx(
            finite_correlation_table(0.5, 2**20, 0).h[0], abs=1e-10)


class TestFiniteChain:
    def test_two_site_closed_forms(self):
        alpha = 0.6
        table = finite_correlation_table(alpha, 2, 1)
        lo, hi = 1 / math.sqrt(1 - alpha), 1 / math.sqrt(1 + alpha)
        assert table.g[0] == pytest.approx((lo + hi) / 4, rel=1e-14)
        assert table.g[1] == pytest.approx((lo - hi) / 4, rel=1e-14)
        lo, hi = math.sqrt(1 - alpha), math.sqrt(1 + alpha)
        assert table.h[0] == pytest.approx((lo + hi) / 4, rel=1e-14)
        assert table.h[1] == pytest.approx((lo - hi) / 4, rel=1e-14)

    def test_reference_values(self):
        table = finite_correlation_table(0.99, 2**22, 0)
        assert table.g[0] == pytest.approx(_frozen.G_FINITE_REF, rel=1e-13)
        assert table.h[0] == pytest.approx(_frozen.H_FINITE_REF, rel=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            finite_correlation_table(0.5, 1, 0)
        with pytest.raises(DomainError):
            finite_correlation_table(0.5, 8, 8)
        with pytest.raises(DomainError):
            finite_correlation_table(0.5, 8, -1)

    def test_fsum_crosscheck_small_chain(self):
        table = finite_correlation_table(0.7, 512, 5)
        for l in (0, 1, 5):
            assert table.g[l] == pytest.approx(
                oracles.finite_correlation_fsum(l, 0.7, 512, -1.0), rel=1e-13)
            assert table.h[l] == pytest.approx(
                oracles.finite_correlation_fsum(l, 0.7, 512, +1.0), rel=1e-13)

    def test_table_methods_agree(self):
        # the all-lag FFT table against term-by-term fsum spectral sums
        fft = finite_correlation_table(0.9, 4096, 40)
        for l in range(41):
            assert fft.g[l] == pytest.approx(
                oracles.finite_correlation_fsum(l, 0.9, 4096, -1.0), abs=1e-13)
            assert fft.h[l] == pytest.approx(
                oracles.finite_correlation_fsum(l, 0.9, 4096, +1.0), abs=1e-13)
        # every lag of a small ring, past N/2 through g_l = g_{N-l}
        small = finite_correlation_table(0.5, 8, 7)
        assert small.l_max == 7
        for l in range(8):
            assert small.g[l] == pytest.approx(
                oracles.finite_correlation_fsum(l, 0.5, 8, -1.0), abs=1e-15)
            assert small.h[l] == pytest.approx(
                oracles.finite_correlation_fsum(l, 0.5, 8, +1.0), abs=1e-15)


class TestCorrelationTable:
    def test_uncoupled_table(self):
        table = correlation_table(1e-9, 3)
        assert table.g[0] == pytest.approx(0.5, abs=1e-9)
        assert table.h[0] == pytest.approx(0.5, abs=1e-9)
        assert np.all(np.abs(table.g[1:]) < 1e-8)
        assert np.all(np.abs(table.h[1:]) < 1e-8)

    def test_elementwise_consistency(self):
        # a lag's value does not depend on how deep the table goes
        table = correlation_table(0.5, 10)
        for l in range(11):
            assert table.g[l] == correlation_table(0.5, l).g[l]
            assert table.h[l] == correlation_table(0.5, l).h[l]

    def test_high_coupling_against_oracle(self, tables):
        table = tables(0.99, 100)
        oracle = finite_correlation_table(0.99, 2**22, 100)
        assert np.max(np.abs(table.g[:101] - oracle.g)) < 1e-8
        assert np.max(np.abs(table.h[:101] - oracle.h)) < 1e-8

    def test_immutable(self):
        table = correlation_table(0.5, 4)
        with pytest.raises(ValueError):
            table.g[0] = 99.0

    def test_rejects_negative_l_max(self):
        with pytest.raises(DomainError):
            correlation_table(0.5, -1)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99])
    def test_sign_and_decay_pattern(self, alpha, tables):
        table = tables(alpha, 100)
        g, h = table.g[:101], table.h[:101]
        assert np.all(g > 0)
        assert h[0] > 0
        assert np.all(h[1:] < 0)
        assert np.all(np.diff(np.abs(g[1:])) < 0)
        assert np.all(np.diff(np.abs(h[1:])) < 0)

    def test_uncertainty_product(self, tables):
        for alpha in (1e-6, 0.3, 0.9):
            table = tables(alpha, 1)
            assert table.g[0] * table.h[0] >= 0.25


#: relative tolerance per coupling against the 40-digit oracle; each is below
#: the largest error the per-lag Gauss series made at that coupling (1.3e-13,
#: 1.1e-13, 1.5e-13, 1.3e-13, 1.7e-12, 3.0e-11).  The recurrence measured
#: 1.9e-15, 1.1e-15, 5.6e-15, 1.4e-14, 2.1e-13, 2.0e-12; near alpha = 1 the
#: lag-0 seed series sets the error.
EDGE_RTOL = {0.1: 2e-14, 0.5: 2e-14, 0.9: 2e-14, 0.99: 3e-14, 0.9999: 5e-13,
             0.999999: 5e-12}


class TestRecurrence:
    # relative, not absolute: the lags reach g_60 = 3.7e-80 at alpha = 0.1
    @pytest.mark.parametrize("alpha", oracles.CORRELATION_EDGE_ALPHAS)
    def test_matches_frozen_oracle(self, alpha):
        table = correlation_table(alpha, max(oracles.CORRELATION_EDGE_LAGS))
        for l in oracles.CORRELATION_EDGE_LAGS:
            for kind, values in (("g", table.g), ("h", table.h)):
                expected = _frozen.CORRELATION_EDGE_ORACLE[(kind, alpha, l)]
                assert values[l] == pytest.approx(
                    expected, rel=EDGE_RTOL[alpha], abs=0.0), (kind, l)

    def test_finite_next_to_one(self):
        # the seed series still converges at 1 - alpha = 5e-11; the
        # recurrence then takes about 1.8e6 steps
        table = correlation_table(1.0 - 5e-11, 3)
        assert np.all(np.isfinite(table.g)) and np.all(np.isfinite(table.h))
        assert np.all(table.g > 0) and table.h[0] > 0
        assert np.all(table.h[1:] < 0)

    def test_too_close_to_one_raises_at_once(self):
        # the recurrence would need 4e8 steps: refused before any series
        # runs (summing a seed to its term cap first takes about 0.3 s)
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="backward recurrence"):
            correlation_table(0.999999999999999, 5)
        assert time.perf_counter() - start < 0.1

    def test_subnormal_coupling(self):
        # z = alpha/2 rounds to 0, so the step count cannot use log z
        table = correlation_table(5e-324, 3)
        assert list(table.g) == [0.5, 0.0, 0.0, 0.0]
        assert list(table.h) == [0.5, 0.0, 0.0, 0.0]

    def test_tail_underflows_without_warnings(self):
        # z^752 is about 1e-611 at alpha = 0.3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = correlation_table(0.3, 752)
        for values, sign in ((table.g, 1.0), (table.h, -1.0)):
            assert np.all(np.isfinite(values))
            zero = int(np.argmax(values == 0.0))
            assert 300 < zero < 752
            assert np.all(sign * values[1:zero] > 0)
            assert np.all(values[zero:] == 0.0)
