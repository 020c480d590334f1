import math
import random

import numpy as np
import pytest

from chainent import (DomainError, FieldRegionSpec, QuadratureError, d_phi,
                      d_pi, field_covariance, field_negativity,
                      periodic_field_negativity)
from tests import _frozen, oracles


def spec(mass=1.0, length=1.0, separation=0.0):
    return FieldRegionSpec(mass=mass, length=length, separation=separation)


class TestRegionSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(mass=0.0, length=1.0, separation=1.0),
        dict(mass=-1.0, length=1.0, separation=1.0),
        dict(mass=1.0, length=0.0, separation=1.0),
        dict(mass=1.0, length=1.0, separation=-0.1),
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(DomainError):
            FieldRegionSpec(**kwargs)

    @pytest.mark.parametrize("name", ["mass", "length", "separation"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fields(self, name, value):
        kwargs = dict(mass=1.0, length=1.0, separation=2.0)
        kwargs[name] = value
        with pytest.raises(DomainError):
            FieldRegionSpec(**kwargs)


class TestPropagators:
    @pytest.mark.parametrize("kind,mass,length,r", sorted(_frozen.FIELD_ORACLE))
    def test_matches_independent_oracle(self, kind, mass, length, r):
        func = d_phi if kind == "phi" else d_pi
        value = func(spec(mass, length), r)
        assert value == pytest.approx(_frozen.FIELD_ORACLE[(kind, mass, length, r)],
                                      abs=1e-9)

    @pytest.mark.parametrize("func", [d_phi, d_pi])
    @pytest.mark.parametrize("at", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_separation(self, func, at):
        with pytest.raises(DomainError):
            func(spec(), at)

    def test_overflow_is_a_numerical_failure(self):
        # D_pi grows like 1/L as m L -> 0 and leaves the float range here
        with pytest.raises(QuadratureError):
            d_pi(spec(mass=1.0, length=1e-310), 2e-310)

    @pytest.mark.parametrize("mass,length", [(1e200, 1e200), (1e-200, 1e-200)])
    def test_unit_mass_out_of_range_is_a_numerical_failure(self, mass, length):
        # the propagators are evaluated at m L, which overflows or underflows
        with pytest.raises(QuadratureError):
            d_phi(spec(mass, length), 0.0)

    @pytest.mark.parametrize("mass,length,r", [
        (1.0, 1.0, 0.0), (1.0, 1.0, 0.3), (5.0, 1.0, 0.5), (3.0, 2.0, 1.98),
        (1.0, 1.0, 2.5), (0.37, 2.9, 6.0), (0.5, 2.0, 20.0)])
    def test_scaling_law(self, mass, length, r):
        # D_phi(m/lam, lam L, lam r) = lam D_phi(m, L, r) and D_pi scales as
        # 1/lam, on both branches and both small-u and Bickley overlap forms
        base = spec(mass, length)
        for exponent in (100, 200, 300, -100, -200, -300):
            lam = 10.0 ** exponent
            scaled = spec(mass / lam, lam * length)
            assert d_phi(scaled, lam * r) / lam == pytest.approx(
                d_phi(base, r), rel=1e-13)
            if r:
                assert d_pi(scaled, lam * r) * lam == pytest.approx(
                    d_pi(base, r), rel=1e-13)

    @pytest.mark.parametrize("kind,mass,length,r",
                             sorted(_frozen.FIELD_EDGE_ORACLE))
    def test_relative_accuracy_at_domain_edges(self, kind, mass, length, r):
        # tiny mass, far and nearly touching windows, large m*L; the module
        # docstring states about 1e-15 (r > L) and a few 1e-14 (r <= L)
        func = d_phi if kind == "phi" else d_pi
        value = func(spec(mass, length), r)
        assert value == pytest.approx(
            _frozen.FIELD_EDGE_ORACLE[(kind, mass, length, r)], rel=1e-13)

    def test_even_in_separation(self):
        s = spec()
        assert d_phi(s, 1.3) == d_phi(s, -1.3)
        assert d_pi(s, 2.6) == d_pi(s, -2.6)

    @pytest.mark.parametrize("mass", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("length", [0.5, 1.0, 2.0])
    def test_field_variance_finite(self, mass, length):
        assert math.isfinite(d_phi(spec(mass, length), 0.0))

    def test_momentum_variance_diverges(self):
        # sharp windows leave the momentum variance log-divergent: the
        # truncated integral keeps climbing by ln(2)/(pi L) per cutoff
        # doubling, so the only faithful value is +inf
        assert d_pi(spec(), 0.0) == math.inf
        increments = []
        previous = oracles.momentum_variance_partial(1.0, 1.0, 400.0)
        for big_k in (800.0, 1600.0):
            current = oracles.momentum_variance_partial(1.0, 1.0, big_k)
            increments.append(current - previous)
            previous = current
        expected = math.log(2) / math.pi
        for inc in increments:
            assert inc == pytest.approx(expected, rel=0.01)

    def test_momentum_diverges_at_touching_windows(self):
        assert d_pi(spec(), 1.0) == -math.inf
        assert d_pi(spec(length=2.0), 2.0) == -math.inf

    def test_uncertainty_product(self):
        for mass in (0.1, 1.0, 10.0):
            s = spec(mass=mass)
            assert d_phi(s, 0.0) * d_pi(s, 0.0) >= 0.25

    def test_monotone_decay_beyond_window(self):
        s = spec()
        rs = [1.2, 1.8, 2.5, 4.0, 6.0]
        phi_vals = [abs(d_phi(s, r)) for r in rs]
        pi_vals = [abs(d_pi(s, r)) for r in rs]
        assert phi_vals == sorted(phi_vals, reverse=True)
        assert pi_vals == sorted(pi_vals, reverse=True)

    def test_tolerance_halving_self_consistency(self):
        for kind, func in (("phi", d_phi), ("pi", d_pi)):
            for r in (0.0, 2.0):
                if kind == "pi" and r == 0.0:
                    continue
                coarse = func(spec(), r, tol=1e-10)
                fine = func(spec(), r, tol=5e-11)
                assert abs(coarse - fine) <= 1e-10


class TestTriangleOracle:
    """The triangle-kernel oracle, tied to the Fourier definition first."""

    @pytest.fixture(autouse=True)
    def _needs_mpmath(self):
        pytest.importorskip("mpmath")

    @pytest.mark.parametrize("kind,mass,length,r", sorted(_frozen.FIELD_ORACLE))
    def test_matches_fourier_oracle(self, kind, mass, length, r):
        value = oracles.field_triangle_oracle(mass, length, r, kind)
        assert value == pytest.approx(
            _frozen.FIELD_ORACLE[(kind, mass, length, r)], abs=1e-12)

    @pytest.mark.parametrize("kind,mass,length,r",
                             sorted(_frozen.FIELD_EDGE_ORACLE))
    def test_reproduces_frozen_edge_values(self, kind, mass, length, r):
        value = oracles.field_triangle_oracle(mass, length, r, kind)
        assert value == pytest.approx(
            _frozen.FIELD_EDGE_ORACLE[(kind, mass, length, r)], rel=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_production_matches_on_random_points(self, seed):
        rng = random.Random(seed)
        mass = 10.0 ** rng.uniform(-6.0, 2.0)
        length = 10.0 ** rng.uniform(-1.0, 1.0)
        for r in (rng.uniform(0.0, length), rng.uniform(length, 3.0 * length)):
            for kind, func in (("phi", d_phi), ("pi", d_pi)):
                expected = oracles.field_triangle_oracle(mass, length, r, kind)
                assert func(spec(mass, length), r) == pytest.approx(
                    expected, rel=1e-13 if r > length else 1e-10)


class TestFieldNegativity:
    def test_requires_separated_windows(self):
        with pytest.raises(DomainError):
            field_negativity(spec(separation=0.5))
        with pytest.raises(DomainError):
            field_negativity(spec(separation=1.0))

    def test_no_entanglement_for_separated_windows(self):
        for r in (1.1, 2.0, 5.0):
            res = field_negativity(spec(separation=r))
            assert res.epsilon == 0.0
            assert res.separable
            assert res.delta1 > 0
            assert res.delta2 == math.inf

    def test_covariance_entries(self):
        s = spec(separation=2.0)
        cov = field_covariance(s)
        assert cov.g_diag == pytest.approx(d_phi(s, 0.0))
        assert cov.h_diag == math.inf
        assert cov.g_cross == pytest.approx(d_phi(s, 2.0))
        assert cov.h_cross == pytest.approx(d_pi(s, 2.0))


class TestPeriodicRegions:
    def test_single_window_matches_plain_negativity(self):
        gap = 1.5
        res_multi = periodic_field_negativity(1.0, 1.0, gap, windows=1)
        res_plain = field_negativity(spec(separation=1.0 + gap))
        assert res_multi.delta1 == pytest.approx(res_plain.delta1, rel=1e-10)
        assert res_multi.epsilon == res_plain.epsilon == 0.0

    @pytest.mark.parametrize("windows", [2, 3])
    def test_null_result_persists(self, windows):
        res = periodic_field_negativity(1.0, 1.0, 0.5, windows=windows)
        assert res.epsilon == 0.0
        assert res.separable
        assert res.delta1 > 0

    @pytest.mark.parametrize("windows", [1, 2, 4])
    def test_lag_counts_match_pairwise_sums(self, windows):
        length, gap = 1.0, 0.5
        res = periodic_field_negativity(1.0, length, gap, windows=windows)
        s = spec(length=length)
        a = [2 * k * (length + gap) for k in range(windows)]
        b = [x + length + gap for x in a]

        def pair_sum(prop, xs):
            return math.fsum(prop(s, x - y) for x in a for y in xs) / windows

        assert res.cov.g_diag == pytest.approx(pair_sum(d_phi, a), rel=1e-12)
        assert res.cov.g_cross == pytest.approx(pair_sum(d_phi, b), rel=1e-12)
        assert res.cov.h_cross == pytest.approx(pair_sum(d_pi, b), rel=1e-12)
        assert res.cov.h_diag == math.inf

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            periodic_field_negativity(1.0, 1.0, 0.0, windows=2)
        with pytest.raises(DomainError):
            periodic_field_negativity(1.0, 1.0, 0.5, windows=0)
        for windows in (1.5, math.nan, math.inf):
            with pytest.raises(DomainError):
                periodic_field_negativity(1.0, 1.0, 0.5, windows=windows)


class TestDivergenceSlope:
    def test_touching_window_divergence_slope(self):
        # at r = L the zero-frequency coefficient is -1/4, so the truncated
        # integral falls by ln(2)/(2 pi L) per cutoff doubling
        length = 1.0

        def partial(big_k):
            k = np.linspace(1e-9, big_k, 800_001)
            smear = (length**2 / 4) * np.sinc(k * length / (2 * np.pi))**2
            f = smear * np.sqrt(k * k + 1.0) * np.cos(k * length)
            return 2.0 / (np.pi * length) * np.trapezoid(f, k)

        drop = partial(400.0) - partial(800.0)
        assert drop == pytest.approx(math.log(2) / (2 * math.pi), rel=0.02)
