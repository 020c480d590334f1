"""Typed-error contract of the public API and the command line.

Every real-valued parameter of every public callable is fed NaN, +-inf,
None, the string '0.5', 1j, True, numpy.True_ and the extremes of its kind
(alpha = 5e-324 and 1 - 1e-16, r = L(1 +- 1e-12), m L = 1e+-200); integer
parameters are fed the same non-finite, non-real and bool values.  Each call must return within
`TIME_LIMIT` seconds, either a value holding no NaN (a plain float or array
finite too) or a `ChainentError` subclass.  pyproject.toml turns warnings
into errors, so a NumPy RuntimeWarning counts as a breach.  The arrays of a
correlation table are fed the same values and arrays with one non-finite
entry.  A bool is not a number here: every numeric parameter but the
ignored `tol` refuses both kinds with `DomainError`.

Objects may carry infinities: the momentum variance of a sharp window,
D_pi(0) = +inf, is infinite by design (see chainent.field), and a
covariance passes it on to delta2 and Delta.

Every size has a bound that is refused with `DomainError` before anything
is allocated, and each bound is fed one size past it: a table of 2^22 + 1
lags, a block layout spanning 10^7 sites, 10^6 sites on the verification
path, a field party of 10^7 windows, an oracle ring of 2^40 sites, and in
the CLI net list flags of 10^8 values and a sweep holding 2*10^9 table
lags.  The CLI net also runs layouts of 20000 and 50000 subblocks, whose
lags are counted in closed form, and reaches m L = 1e307, past where the
Bickley function's exponent would overflow.
"""

import dataclasses
import math
import numbers
import time

import numpy as np
import pytest

import chainent
from chainent import (BlockSpec, ChainentError, CollectiveCovariance,
                      CorrelationTable, DomainError, EntanglementResult,
                      FieldRegionSpec, approx_negativity, cli,
                      collective_symplectic, correlation_table, d_phi, d_pi,
                      field_covariance, field_negativity,
                      finite_correlation_table, negativity, symplectic_form)

TIME_LIMIT = 2.0

#: bools, which Python counts as integers and NumPy does not
BOOLS = {"True": True, "np.True_": np.True_}
#: fed to every real-valued and every integer parameter
BAD = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "None": None,
       "str": "0.5", "complex": 1j, **BOOLS}
#: extremes of each kind of real parameter, added to BAD
ALPHA = {"5e-324": 5e-324, "1-1e-16": 1 - 1e-16}
SEPARATION = {"L(1-1e-12)": 1 - 1e-12, "L(1+1e-12)": 1 + 1e-12}  # at L = 1
SCALE = {"1e200": 1e200, "1e-200": 1e-200}  # m L = 1e+-200, the other is 1
WINDOWS = {"1e7": 10**7}  # 4 * 10^7 propagator calls if it were accepted
RING = {"2^40": 2**40}  # an 8 TiB oracle ring if it were accepted
LAGS = {"2^22": 2**22}  # one lag past the table cap
SPAN = {"1e7": 10**7}  # a layout spanning 10^7 sites and more
SITES = {"1e6": 10**6}  # a 7.3 TiB symplectic form if it were accepted
#: no extremes beyond BAD: integers, moments, scale factors, tolerances
PLAIN = {}

TABLE = correlation_table(0.5, 3)
#: a table array with one non-finite entry, for g and h
ENTRY = {f"{label}-entry": [TABLE.g[0], bad, *TABLE.g[2:]]
         for label, bad in (("nan", math.nan), ("inf", math.inf),
                            ("-inf", -math.inf))}
COV = CollectiveCovariance(0.6, 0.5, 0.3, -0.2)
SPEC = FieldRegionSpec(1.0, 1.0, 2.0)


def _field_spec(func):
    return lambda mass, length, separation, windows: func(
        FieldRegionSpec(mass, length, separation, windows))


def _gapped(func):
    """`func` on windows `gap` apart, centers `length + gap` apart; a
    non-real length or gap reaches the spec as it is, to be refused there."""
    def call(mass, length, gap, windows):
        real = all(isinstance(x, numbers.Real) for x in (length, gap))
        return func(FieldRegionSpec(mass, length,
                                    length + gap if real else gap, windows))
    return call


#: public callable -> (function, base arguments, {parameter: extremes})
CALLS = {
    "correlation_table": (correlation_table, dict(alpha=0.5, l_max=10),
                          {"alpha": ALPHA, "l_max": LAGS}),
    "finite_correlation_table": (
        finite_correlation_table, dict(alpha=0.5, n_sites=64, l_max=10),
        {"alpha": ALPHA, "n_sites": RING, "l_max": PLAIN}),
    "CorrelationTable": (CorrelationTable,
                         dict(alpha=0.5, g=TABLE.g, h=TABLE.h),
                         {"alpha": ALPHA, "g": ENTRY, "h": ENTRY}),
    "BlockSpec": (BlockSpec, dict(m=2, s=3, d=1),
                  {"m": SPAN, "s": SPAN, "d": SPAN}),
    "CollectiveCovariance": (
        CollectiveCovariance,
        dict(g_diag=0.6, h_diag=0.5, g_cross=0.3, h_cross=-0.2),
        dict.fromkeys(("g_diag", "h_diag", "g_cross", "h_cross"), PLAIN)),
    "CollectiveCovariance.rescaled": (COV.rescaled,
                                      dict(q_scale=2.0, p_scale=0.5),
                                      {"q_scale": PLAIN, "p_scale": PLAIN}),
    "EntanglementResult": (EntanglementResult,
                           dict(cov=COV, vacuum_product=0.25),
                           {"vacuum_product": PLAIN}),
    "negativity": (negativity, dict(cov=COV, vacuum_product=0.25),
                   {"vacuum_product": PLAIN}),
    "approx_negativity": (
        approx_negativity, dict(g0=0.5, g1=0.1, h0=0.5, h1=-0.1, n=3, m=1),
        {"g0": PLAIN, "g1": PLAIN, "h0": PLAIN, "h1": PLAIN, "n": PLAIN,
         "m": PLAIN}),
    "symplectic_form": (symplectic_form, dict(n_sites=4), {"n_sites": SITES}),
    "collective_symplectic": (collective_symplectic,
                              dict(n_sites=8, spec=BlockSpec(1, 2, 1)),
                              {"n_sites": SITES}),
    "FieldRegionSpec": (FieldRegionSpec,
                        dict(mass=1.0, length=1.0, separation=2.0, windows=1),
                        {"mass": SCALE, "length": SCALE,
                         "separation": SEPARATION, "windows": WINDOWS}),
    "d_phi": (d_phi, dict(spec=SPEC, at=2.0, tol=None),
              {"at": SEPARATION, "tol": PLAIN}),
    "d_pi": (d_pi, dict(spec=SPEC, at=2.0, tol=None),
             {"at": SEPARATION, "tol": PLAIN}),
    "field_covariance": (_field_spec(field_covariance),
                         dict(mass=1.0, length=1.0, separation=2.0, windows=1),
                         {"mass": SCALE, "length": SCALE,
                          "separation": SEPARATION, "windows": WINDOWS}),
    "field_negativity": (_field_spec(field_negativity),
                         dict(mass=1.0, length=1.0, separation=2.0, windows=1),
                         {"mass": SCALE, "length": SCALE,
                          "separation": SEPARATION, "windows": WINDOWS}),
}

#: routes under the name of the public callable they replace, keeping its
#: arguments: two windows per party `gap` apart, the lag sum beyond the
#: single pair
FORMER = {
    "periodic_field_negativity": (
        _gapped(field_negativity),
        dict(mass=1.0, length=1.0, gap=0.5, windows=2),
        {"mass": SCALE, "length": SCALE, "gap": PLAIN, "windows": WINDOWS}),
}

#: public callables that take neither a real nor an integer parameter
NO_NUMBER = {"block_indices", "covariance_of_blocks", "block_entanglement"}


def _cases():
    for name, (func, base, params) in {**CALLS, **FORMER}.items():
        for param, extremes in params.items():
            for label, value in {**BAD, **extremes}.items():
                yield pytest.param(func, dict(base, **{param: value}),
                                   id=f"{name}({param}={label})")


def _bool_cases():
    for name, (func, base, params) in CALLS.items():
        for param in (p for p in params if p != "tol"):  # tol is unused
            for label, value in BOOLS.items():
                yield pytest.param(func, dict(base, **{param: value}),
                                   id=f"{name}({param}={label})")


#: derived quantities of a returned record, checked besides its fields
DERIVED = ("epsilon", "delta1", "delta2", "duan")


def _check_value(value, top=True):
    """No NaN and only real numbers in `value`, walking dataclass fields and
    the DERIVED quantities a record has; arrays and a returned number are
    finite too."""
    if dataclasses.is_dataclass(value):
        names = [item.name for item in dataclasses.fields(value)]
        for name in names + [n for n in DERIVED if hasattr(value, n)]:
            _check_value(getattr(value, name), top=False)
    elif isinstance(value, np.ndarray):
        assert np.all(np.isfinite(value))
    elif value is not None:
        assert isinstance(value, numbers.Real) and not math.isnan(value)
        assert math.isfinite(value) or not top


#: the public API; a new name is a deliberate edit here
PUBLIC_NAMES = (
    "BlockSpec", "ChainentError", "CollectiveCovariance", "ConvergenceError",
    "CorrelationTable", "DomainError", "EntanglementResult",
    "FieldRegionSpec", "InvalidCovarianceError", "KERNEL_BACKEND",
    "LagBoundError", "QuadratureError", "approx_negativity",
    "block_entanglement", "block_indices", "collective_symplectic",
    "correlation_table", "covariance_of_blocks", "d_phi", "d_pi",
    "field_covariance", "field_negativity",
    "finite_correlation_table", "negativity", "symplectic_form",
)


def test_public_api_inventory():
    assert sorted(chainent.__all__) == sorted(PUBLIC_NAMES)
    assert len(PUBLIC_NAMES) == 25


def test_every_public_callable_is_covered():
    public = {name for name in chainent.__all__
              if callable(getattr(chainent, name))
              and not (isinstance(getattr(chainent, name), type)
                       and issubclass(getattr(chainent, name), Exception))}
    assert public == {name.split(".")[0] for name in CALLS} | NO_NUMBER


@pytest.mark.parametrize("func,kwargs", _cases())
def test_returns_sane_value_or_typed_error(func, kwargs):
    start = time.perf_counter()
    try:
        result = func(**kwargs)
    except ChainentError:
        result = None
    assert time.perf_counter() - start < TIME_LIMIT
    _check_value(result)


@pytest.mark.parametrize("func,kwargs", _bool_cases())
def test_bool_is_refused(func, kwargs):
    with pytest.raises(DomainError):
        func(**kwargs)


CLI_ARGVS = [
    *(["correlations", "--alpha", a, "--l-max", "10"]
      for a in ("nan", "inf", "-inf", "5e-324", "0.9999999999999999", "1e400",
                "abc")),
    ["correlations", "--alpha", "5e-324", "--l-max", "10", "--oracle-n",
     "64"],
    ["correlations", "--alpha", "0.5", "--l-max", "10000"],
    ["correlations", "--alpha", "0.5", "--l-max", "3", "--oracle-n",
     "1099511627776"],
    *(["sweep", "--alphas", a, "--m", "1", "--s", "2"]
      for a in ("nan", "inf", "5e-324", "0.9999999999999999", "0..1:3",
                "nan..1:3", "0.5..inf:3")),
    ["sweep", "--alphas", "0.5", "--m", "10", "--s", "100", "--d", "0"],
    ["sweep", "--alphas", "0.5", "--m", "1", "--s", "100000", "--d", "0"],
    ["sweep", "--alphas", "0.5", "--m", "1000", "--s", "100", "--d", "3"],
    ["sweep", "--alphas", "0.5", "--d", "10000"],
    *(["field", "--mass", m, "--length", "1", "--r", "2"]
      for m in ("nan", "inf", "-inf", "0", "1e200", "1e-200", "5e-324")),
    *(["field", "--mass", "1", "--length", length, "--r", "2"]
      for length in ("nan", "inf", "1e200", "1e-200", "5e-324")),
    # m r below the smallest float (twice), then r/L
    ["field", "--mass", "5e-324", "--length", "1", "--r", "0,0.3,1,3"],
    ["field", "--mass", "1e-10", "--length", "1", "--r", "5e-324"],
    ["field", "--mass", "1", "--length", "4", "--r", "5e-324"],
    # m (r + L) overflows in the contact term
    ["field", "--mass", "1.7e308", "--length", "1", "--r", "0.9"],
    ["field", "--mass", "1", "--length", "1", "--r",
     "0,0.999999999999,1,1.000000000001"],
    *(["field", "--mass", "1", "--length", "1", "--r", r]
      for r in ("nan", "inf", "-inf", "1..inf:3")),
    ["field", "--mass", "1e200", "--length", "1e200", "--r", "3e200"],
    ["field", "--mass", "1e-200", "--length", "1e-200", "--r", "3e-200"],
    ["field", "--mass", "1", "--length", "1e307", "--r", "0"],
    ["sweep", "--alphas", "0.5", "--oracle-n", "1099511627776"],
    *(["validate", "--oracle-n", n]
      for n in ("-1", "1", "51", "1099511627776")),
    # many subblocks, counted in closed form; then sizes past their bounds:
    # table lags, list values and sweep rows
    ["sweep", "--alphas", "0.99999999", "--specs", "50000:1:0"],
    ["sweep", "--alphas", "0.5", "--specs", "20000:1:0"],
    ["sweep", "--alphas", "0.5", "--specs", "1:100000000:0"],
    ["correlations", "--alpha", "0.5", "--l-max", "100000000"],
    ["sweep", "--alphas", "0.5..0.6:100000000", "--m", "1"],
    ["field", "--mass", "1", "--length", "1", "--r", "2..3:100000000"],
    ["sweep", "--alphas", "0.5", "--m", "1..100000000"],
    ["sweep", "--alphas", "0.1..0.9:1000", "--m", "1..101"],
    ["sweep", "--alphas", "0.1..0.9:1000", "--specs", "1:1000000:0"],
]


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=" ".join)
def test_cli_exits_with_a_known_code(argv, capsys):
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:   # argparse refusing an argument
        code = exc.code
    assert time.perf_counter() - start < TIME_LIMIT
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err
