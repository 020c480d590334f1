import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainent import BlockSpec, DomainError, block_indices
from chainent.blocks import lag_count_array

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

    def test_count_array_padding(self):
        arr = lag_count_array((0, 1), (0, 1), length=6)
        assert arr.shape == (6,)
        assert np.array_equal(arr, [2, 2, 0, 0, 0, 0])
