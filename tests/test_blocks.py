import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chainent import BlockSpec, DomainError, block_indices
from chainent.blocks import (_spikes, lag_count_array, layout_columns,
                             subblock_pairs)
from chainent.correlations import MAX_TABLE_LAGS
from tests import oracles

spec_strategy = st.builds(BlockSpec,
                          m=st.integers(1, 4),
                          s=st.integers(1, 5),
                          d=st.integers(0, 4))


class TestBlockSpec:
    def test_derived_sizes(self):
        spec = BlockSpec(m=2, s=3, d=1)
        assert spec.n == 6
        assert spec.span == 15
        assert spec.max_lag == 14

    @pytest.mark.parametrize("kwargs", [
        dict(m=0, s=1, d=0), dict(m=1, s=0, d=0), dict(m=1, s=1, d=-1),
        dict(m=1.5, s=1, d=0),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            BlockSpec(**kwargs)

    def test_span_is_capped_at_the_table_length(self):
        assert BlockSpec(m=1, s=1, d=MAX_TABLE_LAGS - 2).span == MAX_TABLE_LAGS
        with pytest.raises(DomainError, match="more than 4194304"):
            BlockSpec(m=1, s=1, d=MAX_TABLE_LAGS - 1)
        with pytest.raises(DomainError):
            BlockSpec(m=10**6, s=10**6, d=0)

    def test_text_roundtrip(self):
        spec = BlockSpec(m=2, s=3, d=1)
        assert spec.as_text() == "2:3:1"
        assert BlockSpec.from_text("2:3:1") == spec
        assert str(spec) == "2:3:1"

    @pytest.mark.parametrize("text", ["2:3", "a:b:c", "1:2:3:4", ""])
    def test_rejects_bad_text(self, text):
        with pytest.raises(DomainError):
            BlockSpec.from_text(text)


class TestBlockIndices:
    def test_contiguous_layout(self):
        a, b = block_indices(BlockSpec(m=1, s=3, d=2))
        assert a.tolist() == [0, 1, 2]
        assert b.tolist() == [5, 6, 7]

    def test_periodic_layout(self):
        a, b = block_indices(BlockSpec(m=2, s=3, d=1))
        assert a.tolist() == [0, 1, 2, 8, 9, 10]
        assert b.tolist() == [4, 5, 6, 12, 13, 14]

    def test_strict_alternation(self):
        a, b = block_indices(BlockSpec(m=3, s=1, d=0))
        assert a.tolist() == [0, 2, 4]
        assert b.tolist() == [1, 3, 5]

    @given(spec=spec_strategy)
    def test_layout_invariants(self, spec):
        a, b = (idx.tolist() for idx in block_indices(spec))
        assert len(a) == len(b) == spec.n
        assert not set(a) & set(b)
        occupied = sorted(a + b)
        assert occupied[-1] == spec.span - 1
        lags = [abs(i - j) for i in a + b for j in a + b]
        assert max(lags) <= spec.max_lag

    @given(n=st.integers(1, 8), d=st.integers(0, 5))
    def test_m1_is_contiguous(self, n, d):
        a, b = block_indices(BlockSpec(m=1, s=n, d=d))
        assert a.tolist() == list(range(n))
        assert b.tolist() == list(range(n + d, 2 * n + d))


class TestLagMultiset:
    # the lag multiplicities, as lag_count_array counts them

    def test_small_examples(self):
        assert lag_count_array((0, 1), (0, 1)).tolist() == [2, 2]
        assert lag_count_array((0,), (2,)).tolist() == [0, 0, 1]

    def test_periodic_example_total(self):
        a, b = block_indices(BlockSpec(m=2, s=3, d=1))
        counts = lag_count_array(a, b)
        assert counts.sum() == 36
        # brute-force pair enumeration agrees
        expected = [0] * counts.size
        for i in a.tolist():
            for j in b.tolist():
                expected[abs(i - j)] += 1
        assert counts.tolist() == expected

    @given(spec=spec_strategy)
    def test_counts_sum_to_pair_count(self, spec):
        a, b = block_indices(spec)
        assert lag_count_array(a, b).sum() == spec.n ** 2
        assert lag_count_array(a, a).sum() == spec.n ** 2

    @given(spec=spec_strategy)
    def test_translation_symmetry(self, spec):
        a, b = block_indices(spec)
        assert np.array_equal(lag_count_array(a, a), lag_count_array(b, b))

    @given(specs=st.lists(spec_strategy, min_size=1, max_size=8))
    @example(specs=[BlockSpec(1, 1, 0)])
    @example(specs=[BlockSpec(1, 7, 0)])
    @example(specs=[BlockSpec(6, 1, 0)])
    @example(specs=[BlockSpec(3, 4, 2)])
    @example(specs=[BlockSpec(50, 2, 9)])
    @example(specs=[BlockSpec(50, 2, 9), BlockSpec(1, 1, 0),
                    BlockSpec(3, 4, 2), BlockSpec(6, 1, 0)])
    def test_stacked_counts_are_each_layouts_pair_counts(self, specs):
        # the spike counts against the O(n^2) pairwise counter, zero-padded
        # to the span (A-A pairs never reach the last lag); each layout's
        # spikes end at 0 before the next layout begins
        counts = oracles.stacked_lag_counts([(spec.m, spec.s, spec.d)
                                             for spec in specs])
        assert counts.dtype == np.float64
        want = []
        for spec in specs:
            a, b = block_indices(spec)
            for other in (a, b):
                half = np.zeros(spec.span)
                pairs = lag_count_array(a, other)
                half[:pairs.size] = pairs
                want.append(half)
        assert np.array_equal(counts, np.concatenate(want))

    @given(layouts=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 6),
                                      st.integers(0, 5)),
                            min_size=1, max_size=8),
           run=st.tuples(st.integers(0, 28), st.integers(0, 28)))
    @example(layouts=[(3, 2, 1), (1, 4, 0), (9, 1, 5), (2, 3, 2)],
             run=(2, 13))
    @example(layouts=[(2, 1, 0), (1, 1, 0)], run=(3, 4))
    def test_a_run_of_spikes_is_its_slice_of_the_whole(self, layouts, run):
        # unsorted, mixed-m layouts: any run [a, b) of spikes is that slice
        # of all of them, each layout's first 3m + 1 a half are the spikes
        # it has alone, and every spike past them has weight 0
        m, s, d, _ = layout_columns(layouts)
        lags, weights = _spikes(m, s, d)
        count = 3 * max(m) + 1
        assert lags.shape == weights.shape == (2, count, len(layouts))
        assert lags.dtype.kind == "i" and weights.dtype == np.float64
        a, b = sorted(min(end, count) for end in run)
        part = _spikes(m, s, d, a, b)
        assert np.array_equal(part[0], lags[:, a:b])
        assert np.array_equal(part[1], weights[:, a:b])
        for i, layout in enumerate(layouts):
            own = 3 * layout[0] + 1
            alone = _spikes(*(column[i:i + 1] for column in (m, s, d)))
            assert alone[0].shape == (2, own, 1)
            assert np.array_equal(alone[0][..., 0], lags[:, :own, i])
            assert np.array_equal(alone[1][..., 0], weights[:, :own, i])
            assert not weights[:, own:, i].any()

    @pytest.mark.parametrize("m", range(1, 65))
    def test_subblock_pairs_match_the_pair_count(self, m):
        # the closed form against counting (A start, start) pairs of the 2m
        # subblock starts one by one
        j = np.arange(2 * m)
        pairs = subblock_pairs(m)
        assert pairs.dtype.kind == "i"
        assert np.array_equal(pairs, lag_count_array(j[0::2], j))
