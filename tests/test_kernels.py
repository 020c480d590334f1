import pytest
from scipy import special

from chainent import ConvergenceError, kernels


def test_series_sums_the_gauss_series():
    for a in (0.5, -0.5):
        assert kernels.hyp2f1_series(a, 0.25) == pytest.approx(
            special.hyp2f1(a, a, 1.0, 0.25), rel=1e-14)


def test_series_raises_at_its_term_cap(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_TERMS", 20)
    with pytest.raises(ConvergenceError, match="within 20 terms"):
        kernels.hyp2f1_series(0.5, 0.95)
