"""Typed-error contract for integer arguments: lag bounds, site counts,
block sizes and window counts accept Python or NumPy integers only."""

import math

import numpy as np
import pytest

from chainent import (BlockSpec, DomainError, approx_negativity,
                      collective_symplectic, correlation_table,
                      finite_correlation_table, periodic_field_negativity,
                      symplectic_form)

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
    "periodic_field_negativity(windows=2.0)":
        lambda: periodic_field_negativity(1.0, 1.0, 0.5, windows=2.0),
}


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
