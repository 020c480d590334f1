import ast
import contextlib
import io
import json
import math
import random
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chainent.field
from chainent import (CollectiveCovariance, DomainError, FieldRegionSpec,
                      QuadratureError, cli, d_phi, d_pi, field_covariance,
                      field_negativity, negativity)
from chainent.blocks import subblock_pairs
from chainent.field import MAX_WINDOWS, _ascending, _k0_xk1, _ki2
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
        # D_pi grows like 1/L as m L -> 0 and leaves the float range here;
        # D_phi is refused for its own value alone, which fits
        with pytest.raises(QuadratureError, match="^D_pi evaluated to -inf "):
            d_pi(spec(mass=1.0, length=1e-310), 2e-310)
        assert d_phi(spec(mass=1.0, length=1e-310),
                     2e-310) == 1.135166494217576e-308

    @pytest.mark.parametrize("mass,length", [(1e-200, 1e-200)])
    def test_unit_mass_out_of_range_is_a_numerical_failure(self, mass, length):
        # the propagators are evaluated at m L, which underflows; D_pi's
        # pole at r = 0 takes no evaluation
        with pytest.raises(QuadratureError, match="^m L = 0.0, r/L = 0.0 "):
            d_phi(spec(mass, length), 0.0)
        assert d_pi(spec(mass, length), 0.0) == math.inf

    @pytest.mark.parametrize("mass,length", [
        (1e200, 1e200), (1e300, 1e10), (3.0, 1e308)])
    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.999, 1.0, 1.5])
    def test_overflowing_unit_mass_gives_the_large_mass_limit(
            self, mass, length, frac):
        # m L overflows: D_phi = (L - r)/(2 m L), D_pi = m (L - r)/(2 L) for
        # r < L, both 0 past L; D_pi(0) and D_pi(L) stay infinite.  Formerly
        # a QuadratureError; at m = L = 1e200, D_phi(0) = 1/(2m) = 5e-201
        r = frac * length
        rest = max(1.0 - r / length, 0.0)
        tol = 0.0 if frac == 0.0 else 1e-12
        assert d_phi(spec(mass, length), r) == pytest.approx(
            rest / (2.0 * mass), rel=tol, abs=0.0)
        want = {0.0: math.inf, 1.0: -math.inf}.get(frac, rest * mass / 2.0)
        assert d_pi(spec(mass, length), r) == pytest.approx(
            want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("mass", [2.0**1023, 1.7976931348623157e308])
    def test_largest_unit_masses_give_separated_zeros(self, mass):
        # 1/(m L) is subnormal, and its inverse can round to inf inside the
        # panel count; every node underflows to 0
        values = chainent.field._pairs(spec(mass, 1.0), [1.05, 2.0, 20.0], 1)
        assert values.tolist() == [[0.0] * 3, [0.0] * 3]
        assert d_phi(spec(mass, 1.0), 2.0) == d_pi(spec(mass, 1.0), 2.0) == 0

    @pytest.mark.parametrize("mass,length", [(1e150, 1e150), (1e300, 1.0),
                                             (3.0, 1e154)])
    @pytest.mark.parametrize("frac", [0.3, 0.999])
    def test_large_mass_limit_continues_the_evaluated_values(
            self, mass, length, frac):
        # at m L = 1e300 the evaluated propagators already equal the limit
        # that an overflowing m L returns, to 2 ulp
        r = frac * length
        rest = (length - r) / length
        assert d_phi(spec(mass, length), r) == pytest.approx(
            rest / mass / 2.0, rel=4.5e-16, abs=0.0)
        assert d_pi(spec(mass, length), r) == pytest.approx(
            rest * mass / 2.0, rel=4.5e-16, abs=0.0)

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

    def test_subnormal_mass_times_length(self):
        # at m L = 1e-315, k1 overflows on every node; the kernel's limit
        # 1/s^2 gives the value of a normal m L next to it
        near = d_pi(spec(1e-5, 1e-300), 2e-300)
        assert d_pi(spec(1e-15, 1e-300), 2e-300) == pytest.approx(
            near, rel=1e-14)

    @pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 3.0])
    def test_subnormal_unit_mass_is_finite(self, r):
        # m L = 5e-324: m r underflows at r = 0.3, and ln(m r) is taken as
        # ln m + ln r; formerly a raw ValueError from math.log(0)
        s = FieldRegionSpec(5e-324, 1.0, 0.0)
        assert math.isfinite(d_phi(s, r))
        if r not in (0.0, 1.0):
            assert math.isfinite(d_pi(s, r))

    def test_separation_below_float_resolution(self):
        # m r = 5e-334 underflows, yet D_phi is continuous at r = 0
        assert d_phi(spec(mass=1e-10), 5e-324) == pytest.approx(
            d_phi(spec(mass=1e-10), 0.0), rel=1e-15)

    @pytest.mark.parametrize("length,r", [(5e-324, 1.0), (4.0, 5e-324)])
    def test_unit_separation_out_of_range_is_a_numerical_failure(
            self, length, r):
        # r/L overflows or underflows
        for func in (d_phi, d_pi):
            with pytest.raises(QuadratureError):
                func(spec(length=length), r)

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


#: the Bessel helpers' test points: both ends of the float range, both
#: sides of the switch from ascending series to trapezoid at x = 2
BESSEL_POINTS = [5e-324, 1e-300, 1e-8, 0.5, math.nextafter(2.0, 0.0), 2.0,
                 math.nextafter(2.0, 3.0), 10.0, 100.0, 700.0, 745.0]


#: transcendentals whose numpy versions follow the SIMD width numpy dispatches
#: to, where Python's `math` gives the same bits on every CPU
SIMD_TRANSCENDENTALS = {"exp", "log", "log1p", "expm1", "sinh", "cosh", "sin",
                        "cos", "power"}


def test_field_takes_its_transcendentals_from_math():
    # no byte pin moves when these become numpy's: no field argv is known
    # whose cells sit on a rounding boundary of the field sums, so the
    # source itself is checked
    def numpy_name(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("np", "numpy")

    tree = ast.parse(Path(chainent.field.__file__).read_text())
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and node.func.attr in SIMD_TRANSCENDENTALS
             and numpy_name(node.func.value)]
    found += [f"from {node.module} import {alias.name}"
              for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "numpy"
              for alias in node.names if alias.name in SIMD_TRANSCENDENTALS]
    assert not found


def test_gauss_legendre_rule_is_numpys():
    # the literal rule, mirrored from its positive half, is numpy's bit for
    # bit, so no field value moves with it
    nodes, weights = leggauss(16)
    assert np.array_equal(chainent.field._GL_NODES, nodes)
    assert np.array_equal(chainent.field._GL_WEIGHTS, weights)


class TestBesselFunctions:
    """The field's own K0, x K1, Int_0^x K0 and Ki2 against mpmath."""

    @pytest.fixture(autouse=True)
    def mp(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            yield mp

    def test_k0_and_xk1(self, mp):
        k0, xk1 = _k0_xk1(1.0, np.array(BESSEL_POINTS))
        for x, got_k0, got_xk1 in zip(BESSEL_POINTS, k0, xk1):
            x_mp = mp.mpf(x)
            # 5e-324 absolute: K0(745) and 745 K1(745) are subnormal
            assert got_k0 == pytest.approx(float(mp.besselk(0, x_mp)),
                                           rel=1e-15, abs=5e-324)
            assert got_xk1 == pytest.approx(
                float(x_mp * mp.besselk(1, x_mp)), rel=1e-15, abs=5e-324)

    def test_scaled_argument_keeps_its_logarithm(self, mp):
        # mu x = 1.5e-324 is not a float; ln(mu x) is ln mu + ln x
        k0, xk1 = _k0_xk1(5e-324, np.array([0.3]))
        x_mp = mp.mpf(5e-324) * mp.mpf(0.3)
        assert k0[0] == pytest.approx(float(mp.besselk(0, x_mp)), rel=1e-15)
        assert xk1[0] == 1.0

    @staticmethod
    def int_k0(mp, x):
        """Int_0^x K0 = (pi x/2)(K0 L_-1 + K1 L_0) (DLMF 10.43.2, Struve L)."""
        return mp.pi * x / 2 * (mp.besselk(0, x) * mp.struvel(-1, x)
                                + mp.besselk(1, x) * mp.struvel(0, x))

    def test_integral_of_k0(self, mp):
        # the series row is the integral over x, used for x <= 2 only
        points = [x for x in BESSEL_POINTS if x <= 2.0]
        rows = _ascending(1.0, np.array(points))
        for x, got in zip(points, rows[2]):
            x_mp = mp.mpf(x)
            assert got == pytest.approx(float(self.int_k0(mp, x_mp) / x_mp),
                                        rel=1e-15)

    def test_bickley_ki2(self, mp):
        # absolute accuracy, which is what the overlap's differences need
        for x, got in zip(BESSEL_POINTS, _ki2(np.array(BESSEL_POINTS))):
            x_mp = mp.mpf(x)
            if x <= 2.0:    # Ki2 = x (K1 - Ki1), Ki1 = pi/2 - Int_0^x K0
                want = x_mp * (mp.besselk(1, x_mp) - mp.pi / 2
                               + self.int_k0(mp, x_mp))
            else:   # in u = sqrt(2x) sinh(t/2), as for K0
                want = mp.exp(-x_mp) * mp.quad(
                    lambda u: mp.exp(-u * u) * 2 / mp.sqrt(2 * x_mp + u * u)
                    * (x_mp / (x_mp + u * u))**2, [0, 1, 3, mp.inf])
            assert got == pytest.approx(float(want), rel=0.0, abs=2e-16)

    def test_overlap_accuracy(self, mp):
        # the overlap branch's series: formerly 1.1e-14 off with iti0k0
        want = oracles.field_triangle_oracle(1.0, 1.0, 0.5, "phi", dps=40)
        assert d_phi(spec(), 0.5) == pytest.approx(want, rel=1e-15)


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
    """Parties of several windows: FieldRegionSpec(..., windows=w) with
    windows alternating A, B, A, ... at center spacing `separation`."""

    @pytest.mark.parametrize("windows", [2, 3])
    def test_null_result_persists(self, windows):
        res = field_negativity(FieldRegionSpec(1.0, 1.0, 1.5, windows=windows))
        assert res.epsilon == 0.0
        assert res.separable
        assert res.delta1 > 0

    @pytest.mark.parametrize("windows", [1, 2, 4])
    def test_lag_counts_match_pairwise_sums(self, windows):
        length, gap = 1.0, 0.5
        period = length + gap
        cov = field_covariance(FieldRegionSpec(1.0, length, period, windows))
        s = spec(length=length)
        a = [2 * k * period for k in range(windows)]
        b = [x + period for x in a]

        def pair_sum(prop, xs):
            return math.fsum(prop(s, x - y) for x in a for y in xs) / windows

        assert cov.g_diag == pytest.approx(pair_sum(d_phi, a), rel=1e-12)
        assert cov.g_cross == pytest.approx(pair_sum(d_phi, b), rel=1e-12)
        assert cov.h_cross == pytest.approx(pair_sum(d_pi, b), rel=1e-12)
        assert cov.h_diag == math.inf

    @pytest.mark.parametrize("windows", range(1, 21))
    def test_closed_form_counts_match_chain_layout(self, windows):
        # the windows are the chain layout of `windows` one-site subblocks
        intra, cross = oracles.stacked_lag_counts([(windows, 1, 0)]).reshape(
            2, -1)
        lags = np.arange(2 * windows)
        count = np.where(lags == 0, windows, 2 * windows - lags)
        assert np.array_equal(intra, np.where(lags % 2 == 0, count, 0))
        assert np.array_equal(cross, np.where(lags % 2 == 1, count, 0))
        # and field_covariance sums exactly those lags
        r = 1.3
        s = FieldRegionSpec(0.7, 1.0, r, windows)

        def lag_sum(prop, counts):
            return math.fsum(int(c) * prop(s, lag * r)
                             for lag, c in enumerate(counts) if c) / windows

        cov = field_covariance(s)
        assert (cov.g_diag, cov.h_diag, cov.g_cross, cov.h_cross) == (
            lag_sum(d_phi, intra), lag_sum(d_pi, intra),
            lag_sum(d_phi, cross), lag_sum(d_pi, cross))

    @pytest.mark.parametrize("mass", [1e-300, 1e-307])
    def test_lag_distances_past_the_float_range(self, mass):
        # l r overflows from l = 2 on, but l (r/L) does not: the covariance
        # is that of the same windows at unit length, D_phi scaled by L
        length, r = 1e300, 1.7e308
        cov = field_covariance(FieldRegionSpec(mass, length, r, windows=2))
        unit = field_covariance(
            FieldRegionSpec(mass * length, 1.0, r / length, windows=2))
        assert cov.g_diag == pytest.approx(length * unit.g_diag, rel=1e-15)
        assert cov.g_cross == pytest.approx(length * unit.g_cross, rel=1e-15)
        assert cov.h_diag == math.inf
        assert cov.h_cross == pytest.approx(unit.h_cross / length, abs=1e-320)
        assert field_negativity(
            FieldRegionSpec(mass, length, r, windows=2)).separable

    def test_single_window_is_the_plain_pair(self):
        for r in (0.0, 0.3, 1.0, 1.5):
            cov = field_covariance(spec(separation=r))
            assert (cov.g_diag, cov.h_diag, cov.g_cross, cov.h_cross) == (
                d_phi(spec(), 0.0), d_pi(spec(), 0.0),
                d_phi(spec(), r), d_pi(spec(), r))

    def test_rejects_bad_arguments(self):
        for r in (0.5, 1.0):        # windows of length 1 would overlap
            with pytest.raises(DomainError, match="stay disjoint"):
                FieldRegionSpec(1.0, 1.0, r, windows=2)
        for windows in (0, 1.5, math.nan, math.inf, MAX_WINDOWS + 1):
            with pytest.raises(DomainError):
                FieldRegionSpec(1.0, 1.0, 1.5, windows=windows)
        assert FieldRegionSpec(1.0, 1.0, 1.5, MAX_WINDOWS).windows == MAX_WINDOWS
        assert FieldRegionSpec(1.0, 1.0, 0.5).windows == 1


def bits(values):
    """The float64 bit patterns of `values`, so -0 and 0 differ and inf
    matches itself."""
    return np.array(values, dtype=float).view(np.int64).tolist()


#: masses 1e-3 ... 1e3 and window lengths 2^-20 ... 2^20: with L a power of
#: two, lag (r/L) is (lag r)/L exactly, as the scalars evaluate it
masses = st.floats(-3.0, 3.0).map(lambda x: 10.0**x)
lengths = st.integers(-20, 20).map(lambda k: 2.0**k)
#: separations in units of L: overlapping (0 and 1 included), nearly
#: touching (1 + 2^-52 ... 1 + 2^-1) and far
overlapping = st.floats(0.0, 1.0)
touching = st.integers(1, 52).map(lambda k: 1.0 + 2.0**-k)
far = st.floats(1.0, 1e4, exclude_min=True)


class TestOneEvaluation:
    """The array evaluation behind `field_covariance` and the field command
    gives, bit for bit, what the scalar propagators give one distance at a
    time."""

    @given(mass=masses, length=lengths, units=touching | far,
           windows=st.integers(1, 20))
    @example(mass=1e3, length=1.0, units=2.0, windows=1)   # D_pi(r) = -0
    @example(mass=1e-3, length=2.0**-20, units=1.0 + 2.0**-52, windows=20)
    @settings(max_examples=60, deadline=None)
    def test_covariance_sums_the_scalars(self, mass, length, units, windows):
        s = FieldRegionSpec(mass, length, units * length, windows)
        terms = ([], [], [], [])        # G, G_AB, H, H_AB terms
        for lag, count in enumerate(subblock_pairs(windows).tolist()):
            at = lag * s.separation
            terms[lag % 2].append(count * d_phi(s, at))
            terms[2 + lag % 2].append(count * d_pi(s, at))
        g, g_ab, h, h_ab = (math.fsum(t) / windows for t in terms)
        cov = field_covariance(s)
        assert bits([cov.g_diag, cov.g_cross, cov.h_diag, cov.h_cross]) == \
            bits([g, g_ab, h, h_ab])

    @given(mass=masses | st.just(1e305), length=lengths,
           units=st.lists(overlapping | touching | far, max_size=12))
    @example(mass=1e-3, length=1.0, units=[0.5, 1.5])   # mu (rho+1) <= 2
    @example(mass=1e3, length=1.0, units=[0.5, 1.5])    # Ki2 differences
    @example(mass=1e305, length=2.0**20, units=[0.5, 1.5])  # m L overflows
    @settings(max_examples=60, deadline=None)
    def test_a_grid_is_its_pairs_one_at_a_time(self, mass, length, units):
        # the overlapping pairs of both branches, both poles of D_pi and the
        # large-mass limit, each evaluated with the others or alone
        s = spec(mass, length)
        at = sorted({0.0, length, math.nextafter(length, 0.0)}
                    | {u * length for u in units})
        assert bits(chainent.field._pairs(s, at, 1).ravel()) == bits(
            [d_phi(s, r) for r in at] + [d_pi(s, r) for r in at])

    @given(mass=masses, length=lengths,
           units=st.lists(overlapping | touching | far, min_size=1,
                          max_size=12))
    @example(mass=1e3, length=1.0, units=[0.0, 0.5, 1.0, 1.5, 2.0])
    @settings(max_examples=60, deadline=None)
    def test_cli_columns_are_the_scalars(self, mass, length, units):
        argv = ["field", "--mass", repr(mass), "--length", repr(length),
                "--r", ",".join(repr(u * length) for u in units),
                "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        rows = json.loads(out.getvalue())["rows"]
        s = spec(mass, length)
        d_phi0, d_pi0 = d_phi(s, 0.0), d_pi(s, 0.0)
        for row in rows:
            r = row["r"]
            # + 0.0: each cell is a one-term covariance sum, which gives 0
            # for -0
            d_phi_r, d_pi_r = d_phi(s, r) + 0.0, d_pi(s, r) + 0.0
            want = [d_phi0, d_pi0, d_phi_r, d_pi_r]
            assert bits([row[name] for name in ("D_phi0", "D_pi0", "D_phi_r",
                                                "D_pi_r")]) == bits(want)
            if r > length:
                assert bits([row["epsilon"]]) == bits([negativity(
                    CollectiveCovariance(*want)).epsilon])
            else:
                assert row["epsilon"] is None

    def test_lag_zero_sits_at_zero_whatever_r_over_l(self, capsys):
        # r/L overflows, and 0 (r/L) would be NaN: the refusal names the
        # lag-1 distance
        message = ("m L = 1e-300, r/L = inf at m=1.0, L=1e-300, r=1e+300 "
                   "(floating-point range exceeded)")
        for windows in (1, 2):
            with pytest.raises(QuadratureError) as err:
                field_covariance(FieldRegionSpec(1.0, 1e-300, 1e300, windows))
            assert str(err.value) == message
        assert cli.main(["field", "--mass", "1", "--length", "1e-300",
                         "--r", "1e300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chainent: numerical failure: {message}\n"


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
