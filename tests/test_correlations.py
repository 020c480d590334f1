import math
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainent import (ConvergenceError, DomainError, correlation_table,
                      finite_correlation_table, kernels)
from chainent.correlations import (MAX_ORACLE_SITES, _finite_tables,
                                   _reduced_coupling)
from tests import _frozen, oracles
from tests.test_imports import peak_kib

couplings = st.floats(min_value=1e-6, max_value=0.999)


def _oracle_ring_cos(n_sites):
    """cos theta_k on the ring `finite_correlation_table` builds: evaluated
    for theta_k <= pi/2 (for k <= N/2 when N is odd), then
    cos theta_{N/2-k} = -cos theta_k up to k = N/2, then the mirror
    cos theta_{N-k} = cos theta_k."""
    half = n_sites // 2
    quarter = half if n_sites % 2 else n_sites // 4
    cos = np.cos((2.0 * np.pi / n_sites) * np.arange(quarter + 1,
                                                      dtype=np.float64))
    cos = np.concatenate([cos, -cos[:half - quarter][::-1]])
    return np.concatenate([cos, cos[n_sites - half - 1:0:-1]])


def _four_step_columns(n_sites, top):
    """P of the oracle's N = Q P split for folded lags up to `top`."""
    p = 1
    while (n_sites % (2 * p) == 0 and (2 * p)**2 <= n_sites
           and 2 * top <= n_sites // (2 * p)):
        p *= 2
    return p


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

    @pytest.mark.parametrize("alpha", [5e-324, 1e-9, 0.1, 0.5, 0.9, 0.99,
                                       0.9999, 1 - 1e-8, 1 - 1e-12,
                                       1 - 1e-15])
    def test_seeds_match_the_hypergeometric_oracle(self, alpha):
        # the oracle takes the (z, mu) hypergeometric form, not the AGM
        g0, h0 = kernels.hyp2f1_series(alpha)
        assert g0 == pytest.approx(oracles.correlation_oracle(0, alpha, "g"),
                                   rel=1e-15, abs=0.0)
        assert h0 == pytest.approx(oracles.correlation_oracle(0, alpha, "h"),
                                   rel=1e-15, abs=0.0)

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

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 6, 7, 8, 9, 10, 512])
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
        # g is the four-step transform of 1/nu on the oracle's ring bit for
        # bit, over columns 0..P/2 with 1..P/2-1 doubled for their mirror
        # columns, and within 3e-16 absolute of its full-length rfft
        # (2.2e-16 measured); h, derived from g, stays within 1e-15
        # absolute of the rfft of nu on that ring
        n_sites, l_max = 2**20, 100
        nu = np.sqrt(1.0 - alpha * _oracle_ring_cos(n_sites))
        p = _four_step_columns(n_sites, l_max + 1)
        assert p == 1024
        columns = (1.0 / nu).reshape(n_sites // p, p)[:, :p // 2 + 1]
        spectrum = np.fft.rfft(columns, axis=0)
        phi = (2.0 * np.pi / n_sites) * np.outer(np.arange(l_max + 1),
                                                 np.arange(p // 2 + 1))
        terms = (spectrum.real[:l_max + 1] * np.cos(phi)
                 + spectrum.imag[:l_max + 1] * np.sin(phi))
        terms[:, 1:p // 2] *= 2.0
        g = terms.sum(-1) / (2.0 * n_sites)
        full = np.fft.rfft(1.0 / nu).real[:l_max + 1] / (2.0 * n_sites)
        h = np.fft.rfft(nu).real[:l_max + 1] / (2.0 * n_sites)
        table = finite_correlation_table(alpha, n_sites, l_max)
        assert np.array_equal(table.g, g)
        assert np.max(np.abs(table.g - full)) <= 3e-16
        assert np.max(np.abs(table.h - h)) <= 1e-15

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 12, 16, 24, 64, 256, 999,
                                         3 * 2**10, 65537, 2**20 + 2])
    def test_four_steps_on_every_ring_shape(self, n_sites):
        # P = 1 (odd rings, and lags past Q/2 for every P), P = 2, 4, 8 and
        # 16 (the self-paired column P/2 alone, then with doubled columns),
        # mixed radix, and l_max up to N - 1, against the full-length rfft
        # of the ring
        alpha = 0.9
        full = np.fft.rfft(
            1.0 / np.sqrt(1.0 - alpha * _oracle_ring_cos(n_sites)))
        full = full.real / (2.0 * n_sites)
        for l_max in sorted({0, 1, math.isqrt(n_sites), n_sites // 4,
                             n_sites // 2, n_sites - 1}):
            lags = np.arange(l_max + 1)
            want = full[np.minimum(lags, n_sites - lags)]
            table = finite_correlation_table(alpha, n_sites, l_max)
            assert np.max(np.abs(table.g - want)) <= 4 * np.spacing(want[0])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="np.longdouble is no wider than double here")
    def test_extended_precision_sums(self):
        # the spectral sums on a long double ring: h within 1e-15 absolute;
        # g within 1e-15 too, except as alpha -> 1, where the rounding of the
        # double cos grid near theta = 0 sets g's error.  The bounds hold
        # for cos taken on the whole ring too: it reads 1.7e-15 at 0.9999
        # and 2.1e-14 at 1 - 1e-5
        n_sites, l_max = 2**20, 100
        two_pi = 2 * np.arccos(np.longdouble(-1))
        cos = np.cos(np.arange(n_sites, dtype=np.longdouble)
                     * (two_pi / n_sites))
        for alpha, g_tol in ((0.5, 1e-15), (0.99, 1e-15), (0.9999, 2e-15),
                             (1 - 1e-5, 5e-14)):
            g = np.fft.rfft(1 / np.sqrt(1 - np.longdouble(alpha) * cos))
            g = g.real[:l_max + 2] / (2 * n_sites)
            ring = np.concatenate([g[1:2], g])      # g_{-1} = g_1
            h = ring[1:-1] - np.longdouble(alpha) / 2 * (ring[:-2] + ring[2:])
            table = finite_correlation_table(alpha, n_sites, l_max)
            assert np.max(np.abs(table.g - g[:-1])) <= g_tol, alpha
            assert np.max(np.abs(table.h - h)) <= 1e-15, alpha

    def test_refuses_an_oversized_ring(self):
        assert MAX_ORACLE_SITES == 2**24
        for n_sites in (MAX_ORACLE_SITES + 1, 2**40):
            with pytest.raises(DomainError, match="n_sites must be <="):
                finite_correlation_table(0.5, n_sites, 3)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self")
    def test_largest_ring_stays_small(self):
        # the ring takes 128 MiB at the cap and the spectrum of its columns
        # 0..P/2 64 MiB, 225 MiB in all; all P columns peaked at 292 MiB
        # and one full-length rfft at 542 MiB.  VmHWM is the fresh
        # process's own, python and numpy too
        assert peak_kib(
            "from chainent.correlations import (MAX_ORACLE_SITES,\n"
            "                                   finite_correlation_table)\n"
            "finite_correlation_table(0.9, MAX_ORACLE_SITES, 100)"
        ) < 260 * 1024


class TestFiniteTables:
    """`_finite_tables`, which draws the oracle tables of validate's and
    sweep's checks from one ring."""

    ALPHAS = (0.1, 0.5, 0.9, 0.99, 1 - 1e-5)

    @pytest.mark.parametrize("n_sites", [2, 3, 7, 12, 64, 4096, 2**16])
    def test_equals_one_call_per_coupling(self, n_sites):
        # l_max = 0, N/4 - 1, N/4 + 1 and N - 1: P = 1 and P > 1 where the
        # ring allows it, and the fold past N/2.  Bit for bit against one
        # call per coupling, and both within 4 ulp of g_0 of the
        # full-length rffts of 1/nu and nu on the ring (2.5 measured)
        cos = _oracle_ring_cos(n_sites)
        for l_max in sorted({0, max(0, n_sites // 4 - 1),
                             min(n_sites - 1, n_sites // 4 + 1),
                             n_sites - 1}):
            lags = np.arange(l_max + 1)
            folded = np.minimum(lags, n_sites - lags)
            tables = _finite_tables(self.ALPHAS, n_sites, l_max)
            for alpha, table in zip(self.ALPHAS, tables, strict=True):
                one = finite_correlation_table(alpha, n_sites, l_max)
                assert table.alpha == alpha
                assert np.array_equal(table.g, one.g)
                assert np.array_equal(table.h, one.h)
                nu = np.sqrt(1.0 - alpha * cos)
                g = np.fft.rfft(1.0 / nu).real[folded] / (2.0 * n_sites)
                h = np.fft.rfft(nu).real[folded] / (2.0 * n_sites)
                ulp = np.spacing(g[0])
                assert np.max(np.abs(table.g - g)) <= 4 * ulp
                assert np.max(np.abs(table.h - h)) <= 4 * ulp

    def test_holds_one_spectrum_at_a_time(self):
        # past the ring's build, drawing four couplings holds the columns,
        # one buffer of their size and one spectrum at a time, and one call
        # builds the same ring.  The peaks differ by 0.5 MiB; a spectrum
        # (4 MiB) kept past its coupling would add its size
        n_sites, l_max = 2**20, 50

        def peak(tables):
            tracemalloc.start()
            try:
                for _ in tables():
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = peak(lambda: [finite_correlation_table(0.5, n_sites, l_max)])
        four = peak(lambda: _finite_tables(self.ALPHAS[:4], n_sites, l_max))
        p = _four_step_columns(n_sites, l_max + 1)
        spectrum = (p // 2 + 1) * (n_sites // p // 2 + 1) * 16
        assert four - one < spectrum / 2

    def test_refuses_a_bad_ring_before_any_coupling(self):
        with pytest.raises(DomainError, match="n_sites must be <="):
            next(_finite_tables([0.5], MAX_ORACLE_SITES + 1, 3))
        with pytest.raises(DomainError, match="l_max must satisfy"):
            next(_finite_tables([0.5], 8, 8))


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
