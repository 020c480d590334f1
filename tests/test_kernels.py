import numpy as np

from chainent import kernels


def test_pure_series_convergence_flag():
    value, converged = kernels.hyp2f1_series(0.5, 0.5, 1.0, 0.25, 1e-14, 10**6)
    assert converged
    _, converged = kernels.hyp2f1_series(0.5, 1.5, 2.0, 0.95, 1e-14, 20)
    assert not converged


def test_pure_cosine_sums_match_fft():
    rng = np.random.default_rng(7)
    w = rng.uniform(0.5, 1.5, size=4096)
    sums = kernels.cosine_lag_sums(w, 32)
    expected = np.fft.rfft(w).real[:33]
    assert np.allclose(sums, expected, atol=1e-9)


def test_cosine_sum_lmax_zero():
    assert kernels.cosine_lag_sums(np.ones(16), 0).tolist() == [16.0]
