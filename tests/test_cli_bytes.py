"""Byte pins of the command line: the sha256 of stdout and the exit code of
a fixed set of small runs.

The pins hold for the numpy and scipy this suite was recorded with; another
build of either can move the last digit of a float and so a hash.  A change
that moves these bytes on purpose updates the pins and says so.
"""

import hashlib

import pytest

from chainent import cli

SWEEP = ["sweep", "--alphas", "0.3,0.9,0.999", "--m", "1..2", "--s", "1..4",
         "--d", "0..1"]
FIELD = ["field", "--mass", "1", "--length", "1", "--r", "0,0.5,1,1.05,2,20"]

#: argv -> (sha256 of stdout, exit code)
PINS = [
    (SWEEP, "264eb59c1865c8c0f861b8a517d01411952f62c31bf9cf1de9142935ee8f72f3",
     0),
    (SWEEP + ["--format", "json"],
     "40fd907d43e7874110a0e265a62474d7fab2a90f05fa6710a80ea3cd45043b8c", 0),
    (["sweep", "--alphas", "0.99", "--specs", "2:3:1,1:6:0", "--oracle-n",
      "4096"],
     "1011c3d04111367fc5049186b5562627951b9e73c72463ed4a08edf8b010de7d", 0),
    (["correlations", "--alpha", "0.9", "--l-max", "40", "--oracle-n",
      "65536"],
     "7ee8ee9d585b79490ee6adfae20b8629e309c3bc96a2c4590c956aa107fcce3c", 0),
    # r = 0 and r = L carry D_pi = +inf and -inf; 0.5 overlaps; the rest
    # are separated and also carry epsilon
    (FIELD, "0a9f3f490d1413c7ec066fc238044d23cddbd200ca72b55349392c3d922d4dea",
     0),
    (FIELD + ["--format", "json"],
     "ad25a02771ad7b49d131416ac6ffd9113913c97ef6ed63d58f8cfc948c07a841", 0),
    (["validate", "--oracle-n", "4096", "--report", "text"],
     "c59f1880956217f0364b789bd6101229e9140f9c75c26eeb65828ad455a4b8b9", 0),
    (["validate", "--oracle-n", "4096", "--report", "json"],
     "ec6fe442cf50140656b30e7710f2f981125f402333d40af1393ab6395a3ee26a", 0),
]


@pytest.mark.parametrize("argv,digest,code", PINS,
                         ids=[" ".join(argv) for argv, _, _ in PINS])
def test_stdout_bytes_are_pinned(argv, digest, code, capsys):
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
