import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainent import (BlockSpec, CollectiveCovariance, DomainError,
                      InvalidCovarianceError, LagBoundError, approx_negativity,
                      block_entanglement, block_indices, collective_symplectic,
                      correlation_table, covariance_of_blocks, duan_witness,
                      negativity, symplectic_form)
from tests import oracles


def make_cov(g, h, gab, hab):
    return CollectiveCovariance(g_diag=g, h_diag=h, g_cross=gab, h_cross=hab)


class TestCovarianceOfBlocks:
    def test_uncoupled_limit(self, tables):
        cov = covariance_of_blocks(tables(1e-9, 20), BlockSpec(2, 2, 1))
        assert cov.g_diag == pytest.approx(0.5, abs=1e-9)
        assert cov.h_diag == pytest.approx(0.5, abs=1e-9)
        assert cov.g_cross == pytest.approx(0.0, abs=1e-9)
        assert cov.h_cross == pytest.approx(0.0, abs=1e-9)

    def test_single_site_blocks(self, tables):
        table = tables(0.5, 10)
        cov = covariance_of_blocks(table, BlockSpec(1, 1, 0))
        assert cov.g_diag == table.g[0]
        assert cov.h_diag == table.h[0]
        assert cov.g_cross == table.g[1]
        assert cov.h_cross == table.h[1]

    def test_pair_blocks_closed_form(self, tables):
        table = tables(0.9, 10)
        cov = covariance_of_blocks(table, BlockSpec(1, 2, 0))
        g = table.g
        assert cov.g_diag == pytest.approx(g[0] + g[1], rel=1e-15)
        assert cov.g_cross == pytest.approx((g[1] + 2 * g[2] + g[3]) / 2,
                                            rel=1e-15)
        h = table.h
        assert cov.h_diag == pytest.approx(h[0] + h[1], rel=1e-15)
        assert cov.h_cross == pytest.approx((h[1] + 2 * h[2] + h[3]) / 2,
                                            rel=1e-15)

    @given(m=st.integers(1, 3), s=st.integers(1, 4), d=st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_enumeration(self, tables, m, s, d):
        table = tables(0.9, 130)
        spec = BlockSpec(m, s, d)
        a, b = block_indices(spec)
        expected = oracles.covariance_by_enumeration(table, a, b)
        cov = covariance_of_blocks(table, spec)
        got = (cov.g_diag, cov.h_diag, cov.g_cross, cov.h_cross)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_short_table_raises(self, tables):
        with pytest.raises(LagBoundError):
            covariance_of_blocks(correlation_table(0.5, 3), BlockSpec(1, 5, 0))

    def test_exchange_symmetry(self, tables):
        # swapping the roles of A and B leaves every covariance entry alone
        table = tables(0.9, 130)
        for spec in (BlockSpec(1, 3, 1), BlockSpec(2, 2, 1), BlockSpec(3, 1, 2)):
            a, b = block_indices(spec)
            direct = oracles.covariance_by_enumeration(table, a, b)
            swapped = oracles.covariance_by_enumeration(table, b, a)
            assert direct == pytest.approx(swapped, rel=1e-15)


class TestNegativity:
    def test_vacuum_is_separable_boundary(self):
        res = negativity(make_cov(0.5, 0.5, 0.0, 0.0))
        assert res.epsilon == 0.0
        assert res.duan == pytest.approx(2.0)
        assert res.separable

    def test_unit_epsilon_fixture(self):
        # delta1 = delta2 = 1/(2 sqrt 2) so delta1*delta2 = 1/8 -> epsilon = 1
        delta = 0.5 / math.sqrt(2)
        res = negativity(make_cov(delta + 0.25, delta + 0.25, 0.25, -0.25))
        assert res.epsilon == pytest.approx(1.0, rel=1e-12)
        assert res.entangled

    def test_strong_coupling_single_sites(self, tables):
        res = block_entanglement(tables(0.99, 10), BlockSpec(1, 1, 0))
        assert res.epsilon > 0
        assert res.entangled

    def test_invalid_state_raises(self):
        with pytest.raises(InvalidCovarianceError):
            negativity(make_cov(0.5, 0.5, 0.6, 0.0))

    def test_negative_diagonal_rejected(self):
        with pytest.raises(InvalidCovarianceError):
            make_cov(-0.5, 0.5, 0.0, 0.0)

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=100)
    def test_squeeze_rescaling_invariance(self, c):
        # Q -> cQ, P -> P/c preserves the commutator, hence epsilon
        cov = make_cov(0.6, 0.5, 0.31, -0.28)
        base = negativity(cov).epsilon
        scaled = negativity(cov.rescaled(c, 1.0 / c)).epsilon
        assert scaled == pytest.approx(base, rel=1e-11)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_sum_convention_invariance(self, tables, n):
        cov = covariance_of_blocks(tables(0.9, 40), BlockSpec(1, n, 0))
        base = negativity(cov).epsilon
        plain = negativity(cov.rescaled(math.sqrt(n), math.sqrt(n)),
                           vacuum_product=n * n / 4.0).epsilon
        averaged = negativity(cov.rescaled(1 / math.sqrt(n), 1 / math.sqrt(n)),
                              vacuum_product=1.0 / (4.0 * n * n)).epsilon
        assert plain == pytest.approx(base, rel=1e-14)
        assert averaged == pytest.approx(base, rel=1e-14)

    def test_rescale_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            make_cov(0.5, 0.5, 0.0, 0.0).rescaled(0.0, 1.0)


class TestDuanWitness:
    def test_boundary(self):
        assert duan_witness(make_cov(0.5, 0.5, 0.0, 0.0)) == pytest.approx(2.0)

    def test_substitution_identity(self):
        g, h = 0.8, 0.6
        cov = make_cov(g, h, g / 2, -h / 2)
        assert duan_witness(cov) == pytest.approx(g + h, rel=1e-15)

    def test_consistent_with_result_field(self, tables):
        res = block_entanglement(tables(0.99, 10), BlockSpec(1, 1, 0))
        cov = res.cov
        assert res.duan == pytest.approx(
            2 * (cov.g_diag - cov.g_cross + cov.h_diag + cov.h_cross))


class TestApproxNegativity:
    def test_uncoupled_reduces_to_uncertainty(self):
        assert approx_negativity(0.5, 0.0, 0.5, 0.0, n=5, m=1) == pytest.approx(0.0)

    def test_single_block_reduction(self):
        g0, g1, h0, h1, n = 0.53, 0.07, 0.49, -0.06, 7
        expected = 1 / (4 * (g0 + (2 - 3 / n) * g1) * (h0 + (2 - 1 / n) * h1)) - 1
        assert approx_negativity(g0, g1, h0, h1, n=n, m=1) == pytest.approx(expected)

    def test_tracks_full_negativity_at_weak_coupling(self, tables):
        table = tables(0.3, 40)
        n = m = 10
        full = block_entanglement(table, BlockSpec(m, 1, 0)).epsilon
        approx = approx_negativity(table.g[0], table.g[1], table.h[0],
                                   table.h[1], n=n, m=m)
        assert approx == pytest.approx(full, rel=0.05)

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            approx_negativity(0.5, 0.0, 0.5, 0.0, n=2, m=3)


class TestCollectiveSymplectic:
    def test_single_site_blocks_is_permutation(self):
        s_mat = collective_symplectic(4, BlockSpec(1, 1, 0))
        omega = symplectic_form(4)
        assert np.array_equal(np.abs(s_mat), np.abs(s_mat).astype(bool).astype(float))
        assert np.max(np.abs(s_mat.T @ omega @ s_mat - omega)) == 0.0

    @pytest.mark.parametrize("n_sites,spec", [
        (8, BlockSpec(1, 2, 1)),
        (16, BlockSpec(2, 3, 1)),
        (12, BlockSpec(3, 1, 0)),
    ])
    def test_preserves_symplectic_form(self, n_sites, spec):
        s_mat = collective_symplectic(n_sites, spec)
        omega = symplectic_form(n_sites)
        assert np.max(np.abs(s_mat.T @ omega @ s_mat - omega)) <= 1e-12
        assert abs(np.linalg.det(s_mat) - 1.0) <= 1e-12

    def test_zero_frequency_rows_are_plain_averages(self):
        spec = BlockSpec(1, 3, 1)
        s_mat = collective_symplectic(10, spec)
        a, b = block_indices(spec)
        inv_sqrt_n = 1 / math.sqrt(3)
        for j in a:
            assert s_mat[0, 2 * j] == pytest.approx(inv_sqrt_n)
            assert s_mat[1, 2 * j + 1] == pytest.approx(inv_sqrt_n)
        row_b = 2 * len(a)
        for j in b:
            assert s_mat[row_b, 2 * j] == pytest.approx(inv_sqrt_n)

    def test_rejects_oversized_problems(self):
        with pytest.raises(DomainError):
            collective_symplectic(128, BlockSpec(1, 2, 0))
        with pytest.raises(DomainError):
            collective_symplectic(8, BlockSpec(2, 3, 2))
