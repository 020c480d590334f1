# Regression constants for the test suite.
#
# FIELD_ORACLE holds independent high-precision propagator values generated
# by `python -m tests.oracles` (mpmath body quadrature + oscillatory-series
# tails, 30 digits); FIELD_EDGE_ORACLE holds values at the edges of the
# domain from the same command (triangle-kernel oracle, 40 digits).  The
# remaining pins are production-path values recorded once at build time,
# after the oracle-equivalence checks passed; they guard against silent
# regressions, not against the oracles.

FIELD_ORACLE = {
    ("phi", 1.0, 1.0, 0.0): 0.2687863042511656,
    ("phi", 1.0, 1.0, 2.0): 0.020779934299668578,
    ("pi", 1.0, 1.0, 2.0): -0.015503604380532356,
    ("pi", 1.0, 1.0, 0.5): 0.3066592803168761,
    ("phi", 0.1, 2.0, 4.0): 0.36211241775339686,
    ("pi", 0.1, 2.0, 4.0): -0.02034503817962842,
    ("phi", 10.0, 0.5, 1.0): 1.0013416411693552e-05,
    ("pi", 10.0, 0.5, 1.0): -0.00016228356676392308,
    ("phi", 1.0, 2.0, 2.2): 0.049468917286455104,
    ("pi", 1.0, 2.0, 2.2): -0.07650964440879969,
}

FIELD_EDGE_ORACLE = {
    ("phi", 1e-06, 1.0, 0.0): 2.455990285053401,
    ("phi", 1e-06, 1.0, 2.0): 2.1104383920873175,
    ("pi", 1e-06, 1.0, 2.0): -0.0457860238685267,
    ("phi", 1e-06, 1.0, 10000.0): 0.751409436484357,
    ("pi", 1e-06, 1.0, 10000.0): -1.5911339508649417e-09,
    ("phi", 3.0, 1.0, 20.0): 4.585192746625745e-28,
    ("pi", 3.0, 1.0, 20.0): -7.09459696965299e-29,
    ("phi", 1.0, 1.0, 1.000000001): 0.08566500068019532,
    ("pi", 1.0, 1.0, 1.000000001): -3.115106786874169,
    ("phi", 1.0, 1.0, 0.999999999): 0.0856650010021161,
    ("pi", 1.0, 1.0, 0.999999999): -3.1151068038833305,
    ("phi", 1.0, 1.0, 1.05): 0.07839313040687092,
    ("pi", 1.0, 1.0, 1.05): -0.30947271596828135,
    ("phi", 3.0, 2.0, 1.98): 0.009725200365719066,
    ("pi", 3.0, 2.0, 1.98): -0.14565326971691808,
}

# z = (1 - sqrt(1 - alpha^2))/alpha evaluated at alpha = 0.9
Z_AT_09 = 0.6267890062732586

# finite-chain reference at N = 2^22, alpha = 0.99, lag 0
G_FINITE_REF = 0.9108718817705914
H_FINITE_REF = 0.4530235817632195

# epsilon for contiguous blocks (m = 1, d = 0) at alpha = 0.99
EPS_CONTIGUOUS_099 = {
    1: 0.8184967143353081,
    5: 0.48647857402093253,
    10: 0.2534855883976639,
    30: 0.04502248230108097,
}

# epsilon for periodic single-site subblocks (s = 1, d = 0) at alpha = 0.99
EPS_PERIODIC_099 = {
    2: 1.9946659298017155,
    10: 7.02587974460301,
    20: 9.280800099653042,
}

# relative error of the nearest-neighbor estimate vs the full epsilon,
# d = 0, s = 1, n = m = 4..12
APPROX_REL_ERR = {
    0.1: [0.011050492910579588, 0.011444638274654936, 0.011696868445855583,
          0.011872174041172351, 0.012001103394802062, 0.012099915651732612,
          0.01217806284517592, 0.01224141545823874, 0.012293812328703769],
    0.3: [0.03597974264643886, 0.03713759378938062, 0.03788703244923469,
          0.03841205177261776, 0.03880043859349104, 0.03909943577522542,
          0.03933674158248187, 0.03952967527250308, 0.0396896245856581],
}

# block sizes n with entanglement at d = 1 (m = 1), scanned over n = 1..12
D1_WINDOWS = {
    0.5: [2],
    0.9: [2, 3],
    0.99: [2, 3, 4],
}
