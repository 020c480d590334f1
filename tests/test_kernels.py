import pytest

from chainent import kernels
from tests import oracles


@pytest.mark.parametrize("alpha", [5e-324, 1e-9, 0.1, 0.5, 0.9, 0.99, 0.9999,
                                   1 - 1e-8, 1 - 1e-12, 1 - 1e-15])
def test_seeds_match_the_hypergeometric_oracle(alpha):
    # the oracle takes the (z, mu) hypergeometric form, not the AGM
    g0, h0 = kernels.hyp2f1_series(alpha)
    assert g0 == pytest.approx(oracles.correlation_oracle(0, alpha, "g"),
                               rel=1e-15, abs=0.0)
    assert h0 == pytest.approx(oracles.correlation_oracle(0, alpha, "h"),
                               rel=1e-15, abs=0.0)
