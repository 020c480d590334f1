"""Typed-error contract for integer and real arguments: lag bounds, site
counts, block sizes and window counts accept Python or NumPy integers only;
couplings, moments, masses, lengths and separations accept finite Python or
NumPy reals only (strings are not parsed)."""

import math

import numpy as np
import pytest

from chainent import (BlockSpec, CollectiveCovariance, CorrelationTable,
                      DomainError, FieldRegionSpec, InvalidCovarianceError,
                      approx_negativity, collective_symplectic,
                      correlation_table, d_phi, finite_correlation_table,
                      negativity, symplectic_form)

NAN, INF = math.nan, math.inf

NON_INTEGER_CALLS = {
    "correlation_table(l_max=2.5)": lambda: correlation_table(0.5, 2.5),
    "correlation_table(l_max=nan)": lambda: correlation_table(0.5, NAN),
    "finite_correlation_table(l_max=2.5)":
        lambda: finite_correlation_table(0.5, 8, 2.5),
    "finite_correlation_table(N=nan)":
        lambda: finite_correlation_table(0.5, NAN, 3),
    "finite_correlation_table(N=inf)":
        lambda: finite_correlation_table(0.5, INF, 3),
    "finite_correlation_table(N=8.7)":
        lambda: finite_correlation_table(0.5, 8.7, 3),
    "BlockSpec(m=nan)": lambda: BlockSpec(NAN, 1, 0),
    "BlockSpec(m=inf)": lambda: BlockSpec(INF, 1, 0),
    "BlockSpec(m=2.0)": lambda: BlockSpec(2.0, 1, 0),
    "approx_negativity(n=nan)":
        lambda: approx_negativity(0.5, 0.1, 0.5, -0.1, n=NAN, m=1),
    "collective_symplectic(N=nan)":
        lambda: collective_symplectic(NAN, BlockSpec(1, 1, 0)),
    "symplectic_form(N=nan)": lambda: symplectic_form(NAN),
    "FieldRegionSpec(windows=2.0)":
        lambda: FieldRegionSpec(1.0, 1.0, 1.5, windows=2.0),
}


COV = CollectiveCovariance(0.6, 0.5, 0.3, -0.2)
SPEC = FieldRegionSpec(1.0, 1.0, 2.0)

#: calls with a bad real argument, each with the error it must raise
BAD_REAL_CALLS = {
    "correlation_table(alpha='0.5')":
        (DomainError, lambda: correlation_table("0.5", 3)),
    "correlation_table(alpha=None)":
        (DomainError, lambda: correlation_table(None, 3)),
    "correlation_table(alpha='abc')":
        (DomainError, lambda: correlation_table("abc", 3)),
    "finite_correlation_table(alpha=1j)":
        (DomainError, lambda: finite_correlation_table(1j, 8, 3)),
    "CorrelationTable(alpha=nan)":
        (DomainError, lambda: CorrelationTable(NAN, [0.5], [0.5])),
    "FieldRegionSpec(mass='1')":
        (DomainError, lambda: FieldRegionSpec("1", 1, 1)),
    "FieldRegionSpec(mass=None)":
        (DomainError, lambda: FieldRegionSpec(None, 1, 1)),
    "d_phi(at='x')": (DomainError, lambda: d_phi(SPEC, "x")),
    "d_phi(at=None)": (DomainError, lambda: d_phi(SPEC, None)),
    "approx_negativity(g0=nan)": (DomainError, lambda: approx_negativity(
        NAN, 0.1, 0.5, -0.1, n=2, m=1)),
    "approx_negativity(g0='a')": (DomainError, lambda: approx_negativity(
        "a", 0.1, 0.5, -0.1, n=2, m=1)),
    "approx_negativity(zero delta1)": (
        InvalidCovarianceError,
        lambda: approx_negativity(0, 0, 0.5, 0, n=1, m=1)),
    "negativity(vacuum_product=nan)":
        (DomainError, lambda: negativity(COV, vacuum_product=NAN)),
    "negativity(vacuum_product=-1)":
        (DomainError, lambda: negativity(COV, vacuum_product=-1)),
    "negativity(underflowing delta1*delta2)": (
        InvalidCovarianceError,
        lambda: negativity(CollectiveCovariance(1e-200, 1e-200, 0, 0))),
    "negativity(subnormal delta1*delta2)": (
        InvalidCovarianceError,
        lambda: negativity(CollectiveCovariance(1e-160, 1e-160, 0, 0))),
    "approx_negativity(subnormal delta1*delta2)": (
        InvalidCovarianceError,
        lambda: approx_negativity(1e-160, 0, 1e-160, 0, n=1, m=1)),
    "CollectiveCovariance(g_diag=None)":
        (DomainError, lambda: CollectiveCovariance(None, 0.5, 0.3, -0.2)),
    "CollectiveCovariance(g_cross=nan)":
        (DomainError, lambda: CollectiveCovariance(0.6, 0.5, NAN, -0.2)),
    "CollectiveCovariance.rescaled(q_scale=inf)":
        (DomainError, lambda: COV.rescaled(INF, 1)),
    "FieldRegionSpec(length='1', windows=2)": (
        DomainError, lambda: FieldRegionSpec(1, "1", 1.5, windows=2)),
}


@pytest.mark.parametrize("error,call", BAD_REAL_CALLS.values(),
                         ids=BAD_REAL_CALLS.keys())
def test_bad_real_argument_is_typed_error(error, call):
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("call", NON_INTEGER_CALLS.values(),
                         ids=NON_INTEGER_CALLS.keys())
def test_non_integer_argument_is_domain_error(call):
    with pytest.raises(DomainError, match="must be an integer >= "):
        call()


def test_message_names_the_argument():
    with pytest.raises(DomainError) as err:
        BlockSpec(0, 1, 0)
    assert str(err.value) == "m must be an integer >= 1, got 0"


def test_numpy_integers_are_accepted():
    spec = BlockSpec(np.int64(2), np.int32(3), np.uint8(1))
    assert spec == BlockSpec(2, 3, 1)
    assert all(type(v) is int for v in (spec.m, spec.s, spec.d))
    table = correlation_table(0.5, np.int64(4))
    assert np.array_equal(table.g, correlation_table(0.5, 4).g)
    assert approx_negativity(0.5, 0.1, 0.5, -0.1, n=np.int64(3),
                             m=np.int64(1)) == approx_negativity(
        0.5, 0.1, 0.5, -0.1, n=3, m=1)


def test_numpy_floats_are_accepted_as_floats():
    table = correlation_table(np.float32(0.5), 4)
    assert type(table.alpha) is float and table.alpha == 0.5
    assert np.array_equal(table.g, correlation_table(0.5, 4).g)
    spec = FieldRegionSpec(np.float32(1.0), np.float64(1.0), np.int64(2))
    assert all(type(v) is float for v in (spec.mass, spec.length,
                                          spec.separation))
    assert d_phi(spec, np.float32(2.0)) == d_phi(SPEC, 2.0)


def test_real_message_names_the_argument():
    with pytest.raises(DomainError) as err:
        FieldRegionSpec(1.0, "1", 2.0)
    assert str(err.value) == "window length must be a finite real, got '1'"


@pytest.mark.parametrize("name,g,h", [("g", [NAN, 0.1], [0.5, -0.1]),
                                      ("h", [0.5, 0.1], [0.5, -INF])])
def test_table_message_names_the_array(name, g, h):
    with pytest.raises(DomainError) as err:
        CorrelationTable(0.5, g, h)
    assert str(err.value) == f"{name} must hold finite reals only"
