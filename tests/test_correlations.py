import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainent import (ConvergenceError, DomainError, correlation_table,
                      finite_correlation_table, kernels)
from chainent.correlations import MAX_ORACLE_SITES, _reduced_coupling
from tests import _frozen, oracles

couplings = st.floats(min_value=1e-6, max_value=0.999)


class TestCoupling:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.3, 1.7, float("nan")])
    def test_rejects_out_of_domain(self, alpha):
        with pytest.raises(DomainError):
            correlation_table(alpha, 0)

    def test_weak_coupling_z_is_half_alpha(self):
        alpha = 1e-8
        assert _reduced_coupling(alpha) == pytest.approx(alpha / 2, rel=1e-8)

    def test_z_at_09(self):
        z = _reduced_coupling(0.9)
        assert z == pytest.approx(_frozen.Z_AT_09, rel=1e-15)
        assert z == pytest.approx((1 - math.sqrt(0.19)) / 0.9, rel=1e-13)

    def test_strong_coupling_z_approaches_one(self):
        assert 0.999 < _reduced_coupling(1 - 1e-12) < 1.0

    @given(alpha=couplings)
    def test_reduced_bounds(self, alpha):
        assert 0.0 < _reduced_coupling(alpha) < 1.0


class TestHyp2f1:
    # the lag-0 seeds g_0 and h_0, from the arithmetic-geometric mean

    def test_g1_reconstruction_against_finite_chain(self):
        # the seed feeding g_1 must reproduce the spectral-sum oracle
        assert correlation_table(0.5, 1).g[1] == pytest.approx(
            finite_correlation_table(0.5, 2**20, 1).g[1], abs=1e-10)

    def test_seeds_hold_at_one_minus_3e_11(self):
        # the recurrence takes 2.4e6 steps, under its cap; the AGM seeds
        # have no term cap
        table = correlation_table(1 - 3e-11, 3)
        assert np.all(np.isfinite(table.g)) and np.all(np.isfinite(table.h))
        assert np.all(table.g > 0) and table.h[0] > 0
        assert np.all(table.h[1:] < 0)


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

    @pytest.mark.parametrize("n_sites", [2, 3, 7, 8, 9, 512])
    @pytest.mark.parametrize("alpha", [0.1, 0.7, 0.99])
    def test_ring_fold_at_every_lag(self, n_sites, alpha):
        # h_l = g_l - (alpha/2)(g_{l-1} + g_{l+1}) folds g_{-1} = g_1 and
        # g_N = g_0 on the ring; l = 0, N/2 and N - 1 for both parities
        table = finite_correlation_table(alpha, n_sites, n_sites - 1)
        tol = 1e-15 if n_sites < 10 else 1e-13
        for l in range(n_sites):
            assert table.g[l] == pytest.approx(oracles.finite_correlation_fsum(
                l, alpha, n_sites, -1.0), abs=tol)
            assert table.h[l] == pytest.approx(oracles.finite_correlation_fsum(
                l, alpha, n_sites, +1.0), abs=tol)

    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.99, 1 - 1e-5])
    def test_matches_the_two_fft_route(self, alpha):
        # g is the rfft of 1/nu bit for bit; h, derived from g, stays within
        # 1e-15 absolute of the rfft of nu
        n_sites, l_max = 2**20, 100
        theta = (2.0 * np.pi / n_sites) * np.arange(n_sites, dtype=np.float64)
        nu = np.sqrt(1.0 - alpha * np.cos(theta))
        g = np.fft.rfft(1.0 / nu).real[:l_max + 1] / (2.0 * n_sites)
        h = np.fft.rfft(nu).real[:l_max + 1] / (2.0 * n_sites)
        table = finite_correlation_table(alpha, n_sites, l_max)
        assert np.array_equal(table.g, g)
        assert np.max(np.abs(table.h - h)) <= 1e-15

    def test_refuses_an_oversized_ring(self):
        assert MAX_ORACLE_SITES == 2**24
        for n_sites in (MAX_ORACLE_SITES + 1, 2**40):
            with pytest.raises(DomainError, match="n_sites must be <="):
                finite_correlation_table(0.5, n_sites, 3)


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
#: 1.1e-13, 1.5e-13, 1.3e-13, 1.7e-12, 3.0e-11).  The recurrence from the
#: AGM seeds measured 1.1e-15, 1.3e-15, 7.6e-15, 1.9e-15, 2.0e-14, 3.7e-13,
#: its own rounding, which grows with the lag as alpha -> 1.
EDGE_RTOL = {0.1: 2e-14, 0.5: 2e-14, 0.9: 2e-14, 0.99: 5e-15, 0.9999: 5e-14,
             0.999999: 1e-12}


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
        # the recurrence takes about 1.8e6 steps at 1 - alpha = 5e-11
        table = correlation_table(1.0 - 5e-11, 3)
        assert np.all(np.isfinite(table.g)) and np.all(np.isfinite(table.h))
        assert np.all(table.g > 0) and table.h[0] > 0
        assert np.all(table.h[1:] < 0)

    def test_too_close_to_one_raises_at_once(self):
        # the recurrence would need 4e8 steps: refused before it runs
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match="backward recurrence"):
            correlation_table(0.999999999999999, 5)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("l_max", [0, 1, 5, 206, 753, 5000])
    @pytest.mark.parametrize("alpha", [1e-9, 0.1, 0.5, 0.9, 0.99, 0.9999,
                                       1 - 1e-5, 1 - 1e-7])
    def test_in_place_build_matches_the_list_build(self, alpha, l_max):
        # the ratios collected as (rg, rh) tuples, reversed behind the
        # seeds and multiplied up column by column, as the table was once
        # built: the in-place cumulative products give the same bits
        z = _reduced_coupling(alpha)
        steps = math.ceil(math.log(2.0**-53) / (2.0 * math.log(z)))
        half = 0.5 * alpha
        rg = rh = 0.0
        ratios = []
        for l in range(l_max + steps, 0, -1):
            rg = half * (l - 0.5) / (l - half * (l + 0.5) * rg)
            rh = half * (l - 1.5) / (l - half * (l + 1.5) * rh)
            if l <= l_max:
                ratios.append((rg, rh))
        ratios.append(kernels.hyp2f1_series(alpha))
        g, h = np.cumprod(ratios[::-1], axis=0).T.copy()
        for values in (g, h):   # the table flushes its subnormal tail to 0
            values[np.abs(values) < np.finfo(float).tiny] = 0.0
        table = correlation_table(alpha, l_max)
        assert np.array_equal(table.g, g) and np.array_equal(table.h, h)

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

    def test_far_tail_is_exactly_zero(self):
        # 5e-324 r rounds back to 5e-324 for r > 1/2: unflushed, 195,044 g
        # entries of this table stay subnormal and g_200000 is 1.5e-323
        table = correlation_table(0.99, 200000)
        for values in (table.g, table.h):
            normal = np.abs(values) >= np.finfo(float).tiny
            zero = int(np.argmin(normal))
            assert 4000 < zero and np.all(normal[:zero])
            assert np.all(values[zero:] == 0.0)
