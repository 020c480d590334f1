"""Byte pins of the command line: the sha256 of stdout and the exit code of
a fixed set of small runs.

The pins hold for the numpy build this suite was recorded with, on any
OpenBLAS kernel and any SIMD width numpy dispatches to: every sum that
reaches the output is numpy's own, in an order fixed in numpy's source,
the field's logarithms and exponentials are Python's `math`, and the
cross-kernel test checks both in fresh processes with the kernel forced or
numpy's AVX-512 loops switched off.  Another numpy build can still move
the last digit of a float and so a hash.  A change that moves these bytes
on purpose updates the pins and says so.
"""

import hashlib
import json
import platform

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from chainent import cli
from tests.test_imports import fresh_python

SWEEP = ["sweep", "--alphas", "0.3,0.9,0.999", "--m", "1..2", "--s", "1..4",
         "--d", "0..1"]
FIELD = ["field", "--mass", "1", "--length", "1", "--r", "0,0.5,1,1.05,2,20"]

#: argv -> (sha256 of stdout, exit code)
PINS = [
    (SWEEP, "9435e8bbf384baf320301f8a0ef078b9440e762031dc5392e75da1df4945100a",
     0),
    (SWEEP + ["--format", "json"],
     "e99574e32fe3d57a57d62d967727cb48514b59c1cc629c5b9d078932c058043b", 0),
    (["sweep", "--alphas", "0.99", "--specs", "2:3:1,1:6:0", "--oracle-n",
      "4096"],
     "55d75446ebce1fd39575f3663d8e29b24391f7fda07d30a36139b37e1954946b", 0),
    (["correlations", "--alpha", "0.9", "--l-max", "40", "--oracle-n",
      "65536"],
     "1de06921adf835ec1cbc9c84555f25672a7c1a47bd0d5e692a8144810ed150c6", 0),
    # r = 0 and r = L carry D_pi = +inf and -inf; 0.5 overlaps; the rest
    # are separated and also carry epsilon
    (FIELD, "0ce11da652c23e40935f938b32d9cbd210d4af832e32de440541e61ce8d802bd",
     0),
    (FIELD + ["--format", "json"],
     "2aec11a8f334feb2e2f006c454b55d20c4514851aee85187f6b8c2a383a521b5", 0),
    # m L = 3: the overlapping windows take the Bickley route, whose Ki2 at
    # u >= 2 is the trapezoid sum; that sum's order decides the r = 0.7 row
    (["field", "--mass", "3", "--length", "1", "--r", "0,0.3,0.7,1.2,3"],
     "69edd7831ee6e68a573a60d5c593c6501d8baa695dbc7335fc4213b4a62b08be", 0),
    (["validate", "--oracle-n", "4096", "--report", "text"],
     "ab398a01f83b839b2ab08a944dce096792daadba0fc88bd327e72ed6374f3bab", 0),
    (["validate", "--oracle-n", "4096", "--report", "json"],
     "ff32c1c17a385eaf404b79bef9b35307447a0dba7a193a864a22d637d00cb4aa", 0),
]


@pytest.mark.parametrize("argv,digest,code", PINS,
                         ids=[" ".join(argv) for argv, _, _ in PINS])
def test_stdout_bytes_are_pinned(argv, digest, code, capsys):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: numpy's BLAS, as its build configuration names it
BLAS = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]

#: (name, environment, CPU features it needs): OpenBLAS kernels to force,
#: where SkylakeX is left out, since it needs AVX-512 and a CPU without it
#: dies of SIGILL; and numpy's AVX-512 loops switched off, which would move
#: a numpy exp or log on the field path
KERNELS = [
    ("Prescott", {"OPENBLAS_CORETYPE": "Prescott"}, ()),
    ("Haswell", {"OPENBLAS_CORETYPE": "Haswell"}, ("AVX2", "FMA3")),
    ("X86_V4-disabled", {"NPY_DISABLE_CPU_FEATURES": "X86_V4"}, ("AVX512F",)),
]

#: prints [sha256 of stdout, exit code] of each argv in argv[1], as JSON
RUN_PINS = """
import contextlib, hashlib, io, json, sys
from chainent import cli
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results.append([hashlib.sha256(out.getvalue().encode()).hexdigest(), code])
print(json.dumps(results))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are named for x86-64")
@pytest.mark.skipif("openblas" not in BLAS.lower(),
                    reason="numpy is not built with OpenBLAS")
@pytest.mark.parametrize("kernel,environ,features", KERNELS,
                         ids=[kernel for kernel, _, _ in KERNELS])
def test_pins_hold_under_every_blas_kernel(kernel, environ, features):
    if not all(__cpu_features__.get(name) for name in features):
        pytest.skip(f"{kernel} needs {', '.join(features)}")
    done = fresh_python(RUN_PINS, json.dumps([argv for argv, _, _ in PINS]),
                        **environ)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout)
    moved = [" ".join(argv) for (argv, digest, code), result in zip(PINS, got)
             if result != [digest, code]]
    assert len(got) == len(PINS) and not moved, f"{kernel} moved {moved}"
