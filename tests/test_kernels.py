from chainent import kernels


def test_pure_series_convergence_flag():
    value, converged = kernels.hyp2f1_series(0.5, 0.5, 1.0, 0.25, 1e-14, 10**6)
    assert converged
    _, converged = kernels.hyp2f1_series(0.5, 1.5, 2.0, 0.95, 1e-14, 20)
    assert not converged

