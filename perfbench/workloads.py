"""Seeded argument lists for the two benchmark workloads.

A workload is a fixed list of `chainent` argument lists.  One pass runs each
of them once, and a pass is the unit the harness times.

* ``chain``: the chain side of the package, three commands.
  - A strong-coupling sweep: 16 couplings with 1 - alpha log-uniform in
    [1e-5, 1e-2] and ``--specs 1:100:0,1:100:1,2:50:0,4:25:1`` (64 rows,
    l_max about 206).  With z^2 near 1 the Gauss series runs long, so
    ``kernels.hyp2f1_series`` dominates.
  - A wide sweep: 4 couplings uniform in [0.3, 0.6] and
    ``--m 1..6 --s 1..60 --d 0..3`` (5760 rows).  The series converges in
    about 15 terms; lag counting, covariances and CSV rendering dominate.
  - ``validate``: the FFT oracle ``correlations.finite_correlation_table``
    at N = 2^20, the symplectic check and the most memory.
* ``field``: one ``field`` command with 40 window separations in
  (1.05, 20].  ``field.d_phi`` and ``field.d_pi`` dominate, and the cost
  grows with r.  No chain code runs.

Each workload bypasses the other's code: a change to the series, the
geometry or the oracle should move ``chain`` and leave ``field`` alone, and
a change to the propagators the reverse.

The generator uses only `random.Random(f"{workload}:{seed}")`, whose string
seeding is stable across Python versions, so a seed names the same inputs on
every commit.  Values are drawn one per equal-width stratum of their range:
the marginal distribution is the one stated above, and the work per pass
varies little from seed to seed.
"""

import random

STRONG_SPECS = "1:100:0,1:100:1,2:50:0,4:25:1"
TINY_STRONG_SPECS = "1:4:0,1:4:1,2:2:0"
STRONG_ALPHAS = 16

FIELD_MASS = 1.0
FIELD_LENGTH = 1.0

WORKLOADS = ("chain", "field")


def _stratified(rng, lo, hi, count):
    """One uniform draw in (lo + w*i, lo + w*(i+1)] for each of `count`
    strata of width w."""
    width = (hi - lo) / count
    return [lo + width * (i + 1.0 - rng.random()) for i in range(count)]


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def argvs(workload: str, seed: int, tiny: bool = False) -> list[list[str]]:
    """The argument lists of one pass of `workload`.

    `tiny` shrinks every input for the harness smoke test.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "chain":
        logs = _stratified(rng, -5.0, -2.0, 4 if tiny else STRONG_ALPHAS)
        strong = ["sweep", "--alphas", _floats(1.0 - 10.0**x for x in logs),
                  "--specs", TINY_STRONG_SPECS if tiny else STRONG_SPECS]
        m, s, d = ("1..2", "1..4", "0..1") if tiny else ("1..6", "1..60",
                                                          "0..3")
        wide = ["sweep", "--alphas",
                _floats(_stratified(rng, 0.3, 0.6, 2 if tiny else 4)),
                "--m", m, "--s", s, "--d", d]
        check = ["validate", "--oracle-n", "4096"] if tiny else ["validate"]
        return [strong, wide, check]
    if workload == "field":
        seps = _stratified(rng, 1.05, 20.0, 3 if tiny else 40)
        return [["field", "--mass", repr(FIELD_MASS),
                 "--length", repr(FIELD_LENGTH), "--r", _floats(seps)]]
    raise KeyError(workload)
