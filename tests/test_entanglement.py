import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainent import (BlockSpec, CollectiveCovariance, CorrelationTable,
                      DomainError, EntanglementResult, InvalidCovarianceError,
                      LagBoundError, approx_negativity,
                      block_entanglement, block_indices, collective_symplectic,
                      correlation_table, covariance_of_blocks,
                      negativity, symplectic_form)
from chainent import entanglement
from chainent.blocks import lag_count_array
from chainent.entanglement import _approx, _moments, _verdict
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


def coupling_rows(tables, alphas, lags):
    """Each coupling's stacked (g, h) rows on lags 0..lags - 1."""
    return np.array([(tables(alpha, lags).g[:lags],
                      tables(alpha, lags).h[:lags]) for alpha in alphas])


def moment_errors(gh, layouts, got):
    """Error of each of `got`, shape (couplings, layouts, 4), against the
    exact contraction of the same float rows `gh` with each layout's direct
    pair counts, in units of 2^-53 * sum_l |count_l f_l| / n."""
    errors = np.empty(got.shape)
    for c, rows in enumerate(gh.tolist()):
        # each row as integers over one power-of-two denominator
        exact = []
        for row in rows:
            ratios = [f.as_integer_ratio() for f in row]
            scale = max(q for _, q in ratios)
            exact.append(([p * (scale // q) for p, q in ratios], scale))
        for i, layout in enumerate(layouts):
            spec = BlockSpec(*layout)
            a, b = block_indices(spec)
            pairs = [(lag_count_array(a, other).tolist(), exact[row])
                     for other in (a, b) for row in (0, 1)]
            for k, (counts, (row, scale)) in enumerate(pairs):
                terms = [count * f for count, f in zip(counts, row)]
                error = abs(Fraction(got[c, i, k]) * scale * spec.n
                            - sum(terms))
                errors[c, i, k] = error * 2**53 / sum(map(abs, terms))
    return errors


#: most error of a moment in the units of `moment_errors`, as stated in
#: `_moments`' docstring
MOMENT_UNITS = 2


layout_lists = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5),
                                  st.integers(0, 4)),
                        min_size=1, max_size=30, unique=True)


class TestGridMoments:
    # one pass over many layouts gives each layout the bits it has alone,
    # under any rows at least its span long, whatever the budget

    @given(layouts=layout_lists,
           alphas=st.lists(st.sampled_from((0.1, 0.5, 0.9, 0.999)),
                           min_size=1, max_size=3, unique=True),
           extra=st.integers(0, 3),
           budget=st.sampled_from((1, 40, 500, entanglement.MOMENT_CHUNK)))
    # spans 6, 6, 4, 6 out of order, and 2, 4, 4, 4 in two chunks
    @example(layouts=[(1, 3, 0), (1, 1, 4), (1, 2, 0), (1, 2, 2)],
             alphas=[0.5, 0.9], extra=0, budget=1)
    @example(layouts=[(1, 1, 0), (1, 2, 0), (1, 1, 2), (2, 1, 0)],
             alphas=[0.999], extra=2, budget=10)
    @settings(max_examples=150, deadline=None)
    def test_equals_each_layouts_contraction(self, tables, layouts, alphas,
                                             extra, budget):
        specs = [BlockSpec(*layout) for layout in layouts]
        gh = coupling_rows(tables, alphas,
                           max(spec.span for spec in specs) + extra)
        with mock.patch.object(entanglement, "MOMENT_CHUNK", budget):
            got = _moments(gh, layouts)
        want = np.concatenate([_moments(gh, [layout]) for layout in layouts],
                              axis=1)
        assert got.shape == (len(alphas), len(specs), 4)
        assert np.array_equal(got, want)
        assert moment_errors(gh, layouts, got).max() <= MOMENT_UNITS

    # one term at a time, and everything at once
    @pytest.mark.parametrize("budget", [1, 2**21])
    def test_four_couplings(self, tables, budget):
        gh = coupling_rows(tables, [0.1, 0.5, 0.9, 0.999], 40)
        layouts = [(2, 3, 1), (1, 2, 0), (1, 5, 3)]
        with mock.patch.object(entanglement, "MOMENT_CHUNK", budget):
            got = _moments(gh, layouts)
        want = np.concatenate([_moments(gh[[c]], layouts) for c in range(4)])
        assert got.shape == (4, 3, 4)
        assert np.array_equal(got, want)
        assert moment_errors(gh, layouts, got).max() <= MOMENT_UNITS

    def test_grid_past_the_chunk_budget(self, tables, monkeypatch):
        # at a budget of 40 terms each table row's head sums are a block of
        # their own and, at the 9:s:d layouts' 28 spikes a half, each layout
        # a chunk of its own: the 1:s:d and 2:s:d layouts' 4 and 7 spikes
        # are one run, the 9:s:d ones' two runs, of 16 and 12
        layouts = [(m, s, d) for d in (0, 3) for m in (1, 9, 2)
                   for s in (4, 1)]
        gh = coupling_rows(tables, (0.3, 0.9, 0.999),
                           max(BlockSpec(*layout).span for layout in layouts))
        want = _moments(gh, layouts)
        calls = {"_head_sums": 0, "_products": 0}
        for name in calls:
            original = getattr(entanglement, name)
            monkeypatch.setattr(entanglement, name,
                                lambda *args, name=name, original=original:
                                calls.__setitem__(name, calls[name] + 1) or
                                original(*args))
        monkeypatch.setattr(entanglement, "MOMENT_CHUNK", 40)
        got = _moments(gh, layouts)
        assert calls["_head_sums"] == 6
        assert calls["_products"] == 6 * (8 + 4 * 2)
        assert np.array_equal(got, want)
        alone = np.concatenate([_moments(gh, [layout]) for layout in layouts],
                               axis=1)
        assert np.array_equal(got, alone)

    @given(terms=st.lists(st.tuples(st.floats(-2.0**60, 2.0**60),
                                    st.floats(-2.0**-60, 2.0**-60)),
                          min_size=1, max_size=40),
           zeros=st.integers(1, 40))
    @example(terms=[(1.0, 2.0**-60), (2.0**53, 0.0), (-1.0, 0.0)], zeros=1)
    def test_trailing_zeros_keep_the_tree_bits(self, terms, zeros):
        # TwoSum(x, 0) = (x, 0), and an odd term carried up is that term
        # plus a zero, so terms followed by zeros sum to the same bits (a
        # sum of zeros may lose its sign, which `_moments` drops)
        total, low = np.array(terms).T[:, :, None]
        want = entanglement._halving_tree(total.copy(), low.copy())
        padded = [np.concatenate((part, np.zeros((zeros, 1))))
                  for part in (total, low)]
        got = entanglement._halving_tree(*padded)
        assert np.array_equal(got, want)

    def test_short_table_names_the_longest_layout(self, tables):
        gh = coupling_rows(tables, [0.5], 10)
        with pytest.raises(LagBoundError, match="spec 1:3:5 needs 10"):
            _moments(gh, [(1, 2, 0), (1, 3, 5), (1, 1, 1)])

    def test_a_longer_table_keeps_the_bound(self, tables):
        # the head sums stop at the longest span, so the table's lags past
        # it move nothing, and the values keep the bound
        layouts = [(300, 1, 0), (1, 100, 0)]
        long = coupling_rows(tables, [0.9999], 2000)
        short = long[..., :600]
        assert moment_errors(short, layouts, _moments(short, layouts)).max() \
            <= MOMENT_UNITS
        assert np.array_equal(_moments(short, layouts),
                              _moments(long, layouts))

    @given(layouts=layout_lists,
           alphas=st.lists(st.sampled_from((0.3, 0.5, 0.9, 0.999)),
                           min_size=1, max_size=2, unique=True),
           extra=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_rows_cut_past_the_longest_span_give_the_same_bits(
            self, tables, layouts, alphas, extra):
        spans = [BlockSpec(*layout).span for layout in layouts]
        gh = coupling_rows(tables, alphas, max(spans) + 100)
        got = _moments(gh[..., :max(spans) + extra], layouts)
        assert np.array_equal(got, _moments(gh, layouts))
        # and each layout alone under rows cut at its own span
        alone = np.concatenate([_moments(gh[..., :span], [layout])
                                for layout, span in zip(layouts, spans)],
                               axis=1)
        assert np.array_equal(got, alone)

    @pytest.mark.parametrize("spec", [BlockSpec(1, 5, 2),
                                      BlockSpec(2, 300, 0)], ids=str)
    def test_covariance_reads_only_the_span(self, monkeypatch, spec):
        # alpha = 0.999 stays nonzero for 15733 lags; of 2^20 lags the call
        # hands `_moments` the span alone, so the table cut there gives the
        # same bits
        table = correlation_table(0.999, 2**20)
        original, lags = entanglement._moments, []
        monkeypatch.setattr(entanglement, "_moments", lambda gh, layouts: (
            lags.append(gh.shape[-1]) or original(gh, layouts)))
        cut = CorrelationTable(table.alpha, table.g[:spec.span],
                               table.h[:spec.span])
        assert covariance_of_blocks(table, spec) \
            == covariance_of_blocks(cut, spec)
        assert lags == [spec.span, spec.span]


class TestMomentAccuracy:
    # the moment pass alone: the same float table contracted with the exact
    # integer pair counts, so the table's own error drops out

    LAYOUTS = [(1, 100, 0), (1, 100, 1), (2, 50, 0), (4, 25, 1), (1, 1, 0),
               (30, 2, 1), (300, 1, 0), (1000, 1, 0), (2000, 1, 0),
               (1000, 2, 0)]

    @pytest.mark.parametrize("gap", [0.4, 1e-2, 1e-4, 1e-5])
    def test_within_the_stated_bound(self, tables, gap):
        # the bound of `_moments`' docstring, 2 * 2^-53 * sum_l
        # |count_l f_l| / n per column, on a table 1000 lags longer than
        # the longest span; h's lags nearly cancel, so H's relative error
        # is larger within it
        lags = max(BlockSpec(*layout).span for layout in self.LAYOUTS) + 1000
        gh = coupling_rows(tables, [1.0 - gap], lags)
        errors = moment_errors(gh, self.LAYOUTS, _moments(gh, self.LAYOUTS))
        assert errors.max() <= MOMENT_UNITS, errors.max()


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

    @pytest.mark.parametrize("alpha,n", [(0.9, 1), (0.9, 4), (0.9, 9),
                                         (0.5, 10000)],
                             ids=["1", "4", "9", "0.5-10000"])
    def test_sum_convention_invariance(self, alpha, n):
        # at alpha = 0.5, n = 10^4, epsilon is about 2.7e-5: far below an
        # absolute slack of 1e-12 on the averaged vacuum product 1/(4 n^2)
        spec = BlockSpec(1, n, 0)
        cov = covariance_of_blocks(correlation_table(alpha, spec.max_lag),
                                   spec)
        base = negativity(cov)
        plain = negativity(cov.rescaled(math.sqrt(n), math.sqrt(n)),
                           vacuum_product=n * n / 4.0)
        averaged = negativity(cov.rescaled(1 / math.sqrt(n), 1 / math.sqrt(n)),
                              vacuum_product=1.0 / (4.0 * n * n))
        assert base.entangled
        for other in (plain, averaged):
            assert other.epsilon == pytest.approx(base.epsilon, rel=1e-14)
            assert other.entangled == base.entangled

    def test_epsilon_is_zero_exactly_when_separable(self):
        # just inside the slack: separable, and epsilon exactly 0 (the
        # ratio alone would give 2e-12)
        d = math.sqrt(0.25 - 5e-13)
        res = negativity(make_cov(d, d, 0.0, 0.0))
        assert res.separable and res.epsilon == 0.0
        # just beyond it: entangled with a positive epsilon
        d = math.sqrt(0.25 * (1.0 - 1e-11))
        res = negativity(make_cov(d, d, 0.0, 0.0))
        assert res.entangled and res.epsilon > 0.0

    def test_rescale_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            make_cov(0.5, 0.5, 0.0, 0.0).rescaled(0.0, 1.0)


class TestEntanglementResult:
    COV = make_cov(0.6, 0.5, 0.3, -0.2)

    def test_record_reports_its_covariance(self):
        res = EntanglementResult(self.COV)
        c = self.COV
        assert (res.delta1, res.delta2) == (c.g_diag - abs(c.g_cross),
                                            c.h_diag - abs(c.h_cross))
        assert (res.delta1, res.delta2) == pytest.approx((0.3, 0.3))
        assert res.duan == pytest.approx(2.0 * (0.6 - 0.3 + 0.5 - 0.2))
        assert res.epsilon == pytest.approx(0.25 / 0.09 - 1.0)
        assert res == negativity(self.COV)

    def test_record_holds_only_its_covariance(self):
        # epsilon, delta1, delta2 and Delta can no longer be stored beside
        # a covariance that contradicts them
        with pytest.raises(TypeError):
            EntanglementResult(0.1, 0.3, 0.7, 1.9, self.COV)
        with pytest.raises(TypeError):
            EntanglementResult(self.COV, delta2=0.7)

    @given(gab=st.floats(0.0, 0.3), hab=st.floats(-0.2, 0.0),
           exponent=st.integers(-40, 40))
    @settings(max_examples=200)
    def test_one_verdict_in_every_normalization(self, gab, hab, exponent):
        # epsilon is 0 exactly when separable; a power-of-two rescaling is
        # exact, so the verdict must not move with the vacuum product
        res = negativity(make_cov(0.6, 0.5, gab, hab))
        assert (res.epsilon == 0.0) == res.separable
        scale = 2.0**exponent
        other = negativity(res.cov.rescaled(scale, scale),
                           vacuum_product=0.25 * scale**4)
        assert other.separable == res.separable

    def test_vacuum_product_is_stored_as_float(self):
        res = EntanglementResult(self.COV, np.float32(0.25))
        assert type(res.vacuum_product) is float
        assert res.epsilon == negativity(self.COV).epsilon


def moment_arrays(covs):
    return [np.array([getattr(cov, name) for cov in covs])
            for name in ("g_diag", "h_diag", "g_cross", "h_cross")]


class TestArrayVerdict:
    """`_verdict` over arrays is the record's verdict, element by element."""

    #: covariances whose record raises InvalidCovarianceError
    BAD = {
        "zero": make_cov(0.5, 0.5, 0.5, 0.0),
        "negative": make_cov(0.5, 0.5, 0.6, 0.0),
        "underflow": make_cov(1e-200, 1e-200, 0.0, 0.0),
        "subnormal": make_cov(1e-160, 1e-160, 0.0, 0.0),
        "nan": make_cov(0.5, math.inf, 0.0, -math.inf),
    }

    @staticmethod
    def covariances(tables):
        # delta1 = 0.5 and delta1*delta2 = (1 + k 1e-12)/4 up to rounding,
        # on both sides of the slack at k = -4, with crosses of either sign
        covs = [make_cov(0.75, 0.125 + 0.5 * (1.0 + k * 1e-12), 0.25 * sign,
                         -0.125 * sign)
                for k in range(-8, 9) for sign in (1.0, -1.0)]
        covs.append(make_cov(0.6, math.inf, 0.3, -0.2))  # D_pi(0) = inf
        covs.append(make_cov(0.5, 0.5, 0.0, 0.0))        # the vacuum
        for alpha in (0.3, 0.9, 0.999):
            table = tables(alpha, 60)
            covs += [covariance_of_blocks(table, spec) for spec in
                     (BlockSpec(1, 1, 0), BlockSpec(3, 2, 1),
                      BlockSpec(1, 20, 0), BlockSpec(2, 5, 3))]
        return covs

    @pytest.mark.parametrize("shape", [(-1,), (2, -1)])
    def test_arrays_match_records_bit_for_bit(self, tables, shape):
        covs = self.covariances(tables)
        records = [EntanglementResult(cov) for cov in covs]
        arrays = [a.reshape(shape) for a in moment_arrays(covs)]
        verdict = [a.ravel() for a in _verdict(*arrays, 0.25)]
        for name, values in zip(("delta1", "delta2", "epsilon", "duan"),
                                verdict):
            want = np.array([getattr(res, name) for res in records])
            assert values.tobytes() == want.tobytes(), name
        separable = [res.separable for res in records]
        # the slack puts the boundary at k = -4
        assert separable[:34] == [k >= -4 for k in range(-8, 9)
                                  for sign in (1, -1)]
        assert all((eps == 0.0) == sep
                   for eps, sep in zip(verdict[2], separable))

    @pytest.mark.parametrize("where", [0, 1, 2])
    @pytest.mark.parametrize("bad", BAD.values(), ids=BAD.keys())
    def test_array_raises_where_a_record_would(self, bad, where):
        with pytest.raises(InvalidCovarianceError) as record:
            EntanglementResult(bad)
        covs = [make_cov(0.6, 0.5, 0.3, -0.2)] * 2
        covs.insert(where, bad)
        # the message names the first failing element, as its record does
        with pytest.raises(InvalidCovarianceError) as array:
            _verdict(*moment_arrays(covs + [bad]), 0.25)
        assert str(array.value) == str(record.value)

    def test_approx_over_arrays_matches_the_scalar_estimate(self, tables):
        table = tables(0.5, 2)
        n, m = np.array([1, 2, 6, 6, 60]), np.array([1, 1, 1, 3, 4])
        values = _approx(*table.g[:2], *table.h[:2], n, m)
        want = [approx_negativity(*table.g[:2], *table.h[:2], n=int(k),
                                  m=int(j)) for k, j in zip(n, m)]
        assert values.tobytes() == np.array(want).tobytes()
        with pytest.raises(InvalidCovarianceError) as record:
            approx_negativity(0, 0, 0.5, 0, n=1, m=1)
        with pytest.raises(InvalidCovarianceError) as array:
            _approx(np.array([0.5, 0.0]), 0.0, 0.5, 0.0, np.array([1, 1]), 1)
        assert str(array.value) == str(record.value)


class TestDuanWitness:
    def test_boundary(self):
        assert negativity(make_cov(0.5, 0.5, 0.0, 0.0)).duan == pytest.approx(2.0)

    def test_substitution_identity(self):
        g, h = 0.8, 0.6
        cov = make_cov(g, h, g / 2, -h / 2)
        assert negativity(cov).duan == pytest.approx(g + h, rel=1e-15)

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


#: the grid of the boundary-scaling check; every divisor m of n is a layout
BOUNDARY_ALPHAS = (0.3, 0.5, 0.9, 0.99)
BOUNDARY_SIZES = (60, 720, 5040)


def divisor_layouts(n):
    return [BlockSpec(m, n // m, 0) for m in range(1, n + 1) if n % m == 0]


class TestBoundaryScaling:
    """The abstract's claim that entanglement scales at most with the total
    boundary region, as a bound on eps over the layouts m*s = n at d = 0.

    Let b = (2m - 1)/n be the boundary density (2m - 1 subblock boundaries
    per block site) and S_f = sum_{l>=1} min(l, s)|f_l| for f = g, h.

    * Robertson's inequality for the block's own collective mode, whose
      [Q_A, P_A] = i, gives G*H >= 1/4.
    * An A-B pair at lag l leaves its A subblock through a first boundary.
      Per boundary and direction at most min(l, s) A sites lie within l of
      it, so cross_l <= 2(2m - 1) min(l, s), and with |f_l| summed,
      |G_AB| <= 2b S_g and |H_AB| <= 2b S_h.
    * delta1*delta2 = (G - |G_AB|)(H - |H_AB|) >= GH - G|H_AB| - H|G_AB|
      >= GH - b X with X = 2(G S_h + H S_g), and b X <= 4bX * GH.
    * Where 4bX < 1 this gives delta1*delta2 >= GH (1 - 4bX) >= (1 - 4bX)/4,
      so eps = 1/(4 delta1 delta2) - 1 <= 4bX/(1 - 4bX) (or eps = 0).

    S_f stays bounded as s grows, so at fixed coupling eps is at most of
    order b: the boundary count, not the block size, sets its scale.
    """

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    def test_cross_lags_cross_a_boundary(self, n):
        for spec in divisor_layouts(n):
            cross = oracles.stacked_lag_counts(
                [(spec.m, spec.s, spec.d)])[spec.span:]
            lags = np.arange(1, cross.size)
            assert cross[0] == 0
            assert np.all(cross[1:] <= 2 * (2 * spec.m - 1)
                          * np.minimum(lags, spec.s))

    @pytest.mark.parametrize("n", BOUNDARY_SIZES)
    @pytest.mark.parametrize("alpha", BOUNDARY_ALPHAS)
    def test_epsilon_bounded_by_boundary_density(self, alpha, n):
        table = correlation_table(alpha, 2 * n - 1)   # every layout's max_lag
        lags = np.arange(1, 2 * n)
        bounded = []
        for spec in divisor_layouts(n):
            res = block_entanglement(table, spec)
            cov, b = res.cov, (2 * spec.m - 1) / n
            s_g, s_h = (np.minimum(lags, spec.s) @ np.abs(f[1:2 * n])
                        for f in (table.g, table.h))
            assert abs(cov.g_cross) <= 2 * b * s_g
            assert abs(cov.h_cross) <= 2 * b * s_h
            x = 2 * (cov.g_diag * s_h + cov.h_diag * s_g)
            if 4 * b * x < 1:
                assert res.epsilon <= 4 * b * x / (1 - 4 * b * x)
                bounded.append(spec.m)
        # non-vacuous: the bound applies at least to the coarsest layouts
        assert {1, 2} <= set(bounded)


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
