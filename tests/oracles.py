"""Independent oracles used by the test suite.

Everything here deliberately avoids the code paths under test: the chain
correlations come from their hypergeometric closed forms in mpmath, the two
field oracles integrate with mpmath (the Fourier integral with oscillatory
tails, and the window's triangle kernel against an exponential
representation of K0, neither touching a Bessel function), covariances are
enumerated pair by pair, and small finite chains are summed term by term
with math.fsum.  `stacked_lag_counts` is the one exception: it spreads the
production spikes into lag counts, for the tests that check them against
the direct pair count or need many layouts' counts at once.

Run ``python -m tests.oracles`` (from the repository root, with mpmath
installed) to regenerate the oracle values frozen in ``tests/_frozen.py``.
"""

import math

import numpy as np


def field_propagator_oracle(mass, length, r, kind, dps=30):
    """High-precision smeared propagator, independent of the production path.

    Body [0, K0] via mpmath Gauss-Legendre quadrature on the sin^2 form;
    tail via the three-cosine split, each component summed between its own
    oscillation periods with mpmath.quadosc (series acceleration), keeping
    the exact sqrt(k^2+m^2) weight throughout.
    """
    import mpmath as mp

    old_dps = mp.mp.dps
    mp.mp.dps = dps
    try:
        mass = mp.mpf(mass)
        length = mp.mpf(length)
        r = mp.mpf(r)
        power = mp.mpf(-1) if kind == "phi" else mp.mpf(1)

        def weight(k):
            return (k * k + mass * mass) ** (power / 2) / (k * k)

        k0 = mp.mpf(40) / length + 40

        def body_integrand(k):
            if k == 0:
                return (length * length / 4) * mass ** power
            s = mp.sin(k * length / 2)
            return s * s * mp.cos(k * r) * weight(k)

        body = mp.quad(body_integrand, [0, k0], maxdegree=12)

        tail = mp.mpf(0)
        for coeff, freq in ((2, r), (-1, r + length), (-1, abs(r - length))):
            if freq == 0:
                if kind == "pi":
                    raise ValueError(
                        f"zero-frequency tail component at r={float(r)}: the "
                        f"momentum propagator diverges at r = 0 and r = L")
                part = mp.quad(weight, [k0, mp.inf])
            else:
                part = mp.quadosc(lambda k, a=freq: mp.cos(a * k) * weight(k),
                                  [k0, mp.inf], period=2 * mp.pi / freq)
            tail += mp.mpf(coeff) / 4 * part
        return float(2 / (mp.pi * length) * (body + tail))
    finally:
        mp.mp.dps = old_dps


def field_triangle_oracle(mass, length, r, kind, dps=30):
    """Smeared propagator from the window's triangle kernel, in mpmath.

    D_phi(r) = (1/(2 pi L)) Int (L - |t|) K0(m|r - t|) dt with
    K0(m x) = Int_m^inf exp(-a x) da / sqrt(a^2 - m^2): the t-integral is
    done in closed form, T(a) = [2a (L - r)_+ + E(a)] / a^2 with
    E(a) = e^{-a(r+L)} + e^{-a|r-L|} - 2 e^{-ar}, and D_pi integrates
    m^2 T(a) - E(a) (the kernel (m^2 - d^2/dx^2) e^{-a|x|} = (m^2 - a^2)
    e^{-a|x|} + 2a delta(x)).  The a-integral runs over a = m + v^2, which
    removes the endpoint singularity.  Relative accuracy at `dps` digits,
    also for nearly touching windows, tiny masses and large separations.
    """
    import mpmath as mp

    with mp.workdps(dps):
        m, big_l, r = mp.mpf(mass), mp.mpf(length), abs(mp.mpf(r))
        if kind == "pi" and r in (0, big_l):
            return math.inf if r == 0 else -math.inf
        overlap = max(big_l - r, 0)

        def exps(a):
            """E(a), times e^{m(r-L)} for separated windows."""
            if r >= big_l:
                return (mp.exp(-(a - m) * (r - big_l))
                        * (1 - mp.exp(-a * big_l)) ** 2)
            return (mp.exp(-a * (r + big_l)) + mp.exp(-a * (big_l - r))
                    - 2 * mp.exp(-a * r))

        def integrand(v):
            a = m + v * v
            e = exps(a)
            phi = (2 * a * overlap + e) / (a * a)
            value = phi if kind == "phi" else m * m * phi - e
            return 2 * value / mp.sqrt(2 * m + v * v)

        scales = [2 * m] + [1 / x for x in (big_l, r, abs(r - big_l), r + big_l)
                            if x > 0]
        breaks = sorted({mp.sqrt(b - m) for b in scales if b > m})
        total = mp.quad(integrand, [0] + breaks + [mp.inf])
        return float(total * mp.exp(-m * max(r - big_l, 0))
                     / (2 * mp.pi * big_l))


def correlation_oracle(l, alpha, kind, dps=40):
    """Infinite-chain g_l (kind "g") or h_l (kind "h") in mpmath.

    The closed forms g_l = z^l C(l - 1/2, l) 2F1(1/2, l + 1/2; l + 1; z^2)
    / (2 mu) and h_l = mu z^l C(l - 3/2, l) 2F1(-1/2, l - 1/2; l + 1; z^2) / 2,
    with z = alpha / (1 + sqrt(1 - alpha^2)) and mu = (1 + z^2)^(-1/2), at
    `dps` digits: no recurrence, no float series.
    """
    import mpmath as mp

    with mp.workdps(dps):
        a, half = mp.mpf(alpha), mp.mpf(0.5)
        z = a / (1 + mp.sqrt((1 - a) * (1 + a)))
        mu = 1 / mp.sqrt(1 + z * z)
        if kind == "g":
            return float(z**l / (2 * mu) * mp.binomial(l - half, l)
                         * mp.hyp2f1(half, l + half, l + 1, z * z))
        return float(mu * z**l / 2 * mp.binomial(l - 3 * half, l)
                     * mp.hyp2f1(-half, l - half, l + 1, z * z))


def momentum_variance_partial(mass, length, big_k, points=400_000):
    """Truncated D_pi(0) integral on [0, big_k] by plain Simpson summation.

    Used to confirm the logarithmic divergence: successive doublings of
    big_k must raise the value by ln(2)/(pi*L).
    """
    k = np.linspace(0.0, big_k, 2 * points + 1)
    smear = (length * length / 4.0) * np.sinc(k * (length / (2.0 * np.pi))) ** 2
    f = smear * np.sqrt(k * k + mass * mass)
    h = k[1] - k[0]
    simpson = (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum()) * h / 3.0
    return 2.0 / (np.pi * length) * simpson


def covariance_by_enumeration(table, indices_a, indices_b):
    """The four covariance scalars by explicit O(n^2) pair summation."""
    n = len(indices_a)

    def double_sum(values, xs, ys):
        return math.fsum(values[abs(i - j)] for i in xs for j in ys) / n

    return (double_sum(table.g, indices_a, indices_a),
            double_sum(table.h, indices_a, indices_a),
            double_sum(table.g, indices_a, indices_b),
            double_sum(table.h, indices_a, indices_b))


def stacked_lag_counts(layouts) -> np.ndarray:
    """Lag multiplicities of many layouts laid end to end, as one float
    array: for each (m, s, d) row of `layouts` in turn, its intra counts on
    lags 0..span - 1 (intra[l] site pairs at lag l within block A, as many
    as within B), then its cross counts on the same lags (cross[l] pairs at
    lag l between A and B).

    One `np.bincount` of the layouts' `chainent.blocks._spikes`, placed at
    their halves' starts (a padding spike of weight 0 may land anywhere),
    and two cumulative sums in place count every layout at once in O(span)
    work, not O((m*s)^2).  Each layout's counts are back at 0 where the
    next one starts, and every partial sum is an integer below 2^53, so
    the float sums are exact.
    """
    from chainent.blocks import _spikes, layout_columns

    m, s, d, span = layout_columns(layouts)
    # where each layout's intra and cross halves start
    starts = np.cumsum(2 * span) - 2 * span + np.multiply.outer((0, 1), span)
    lags, weights = _spikes(m, s, d)
    counts = np.bincount((lags + starts[:, None]).ravel(), weights.ravel())
    np.cumsum(counts, out=counts)
    np.cumsum(counts, out=counts)
    # the last layout's last spikes lie past its end
    return counts[:2 * span.sum()]


def finite_correlation_fsum(l, alpha, n_sites, power):
    """Term-by-term finite-chain spectral sum with math.fsum (small N only)."""
    terms = []
    for k in range(n_sites):
        theta = 2.0 * math.pi * k / n_sites
        nu = math.sqrt(1.0 - alpha * math.cos(theta))
        terms.append(nu ** power * math.cos(l * theta))
    return math.fsum(terms) / (2.0 * n_sites)


FIELD_ORACLE_POINTS = (
    ("phi", 1.0, 1.0, 0.0),
    ("phi", 1.0, 1.0, 2.0),
    ("pi", 1.0, 1.0, 2.0),
    ("pi", 1.0, 1.0, 0.5),
    ("phi", 0.1, 2.0, 4.0),
    ("pi", 0.1, 2.0, 4.0),
    ("phi", 10.0, 0.5, 1.0),
    ("pi", 10.0, 0.5, 1.0),
    ("phi", 1.0, 2.0, 2.2),
    ("pi", 1.0, 2.0, 2.2),
)


#: domain edges: tiny mass, far and nearly touching windows, large m*L
FIELD_EDGE_POINTS = (
    ("phi", 1e-06, 1.0, 0.0),
    ("phi", 1e-06, 1.0, 2.0),
    ("pi", 1e-06, 1.0, 2.0),
    ("phi", 1e-06, 1.0, 10000.0),
    ("pi", 1e-06, 1.0, 10000.0),
    ("phi", 3.0, 1.0, 20.0),
    ("pi", 3.0, 1.0, 20.0),
    ("phi", 1.0, 1.0, 1.000000001),
    ("pi", 1.0, 1.0, 1.000000001),
    ("phi", 1.0, 1.0, 0.999999999),
    ("pi", 1.0, 1.0, 0.999999999),
    ("phi", 1.0, 1.0, 1.05),
    ("pi", 1.0, 1.0, 1.05),
    ("phi", 3.0, 2.0, 1.98),
    ("pi", 3.0, 2.0, 1.98),
)


#: couplings from weak to z^2 = 1 - 3e-3, and lags past 60, where g_60 is
#: 4e-80 at alpha = 0.1 (validate's sign-pattern check reads that far)
CORRELATION_EDGE_ALPHAS = (0.1, 0.5, 0.9, 0.99, 0.9999, 0.999999)
CORRELATION_EDGE_LAGS = (0, 1, 2, 5, 20, 60, 200)


def _regenerate():
    lines = ["# Generated by `python -m tests.oracles`; do not edit by hand.",
             "", "FIELD_ORACLE = {"]
    for kind, mass, length, r in FIELD_ORACLE_POINTS:
        value = field_propagator_oracle(mass, length, r, kind)
        lines.append(f"    ({kind!r}, {mass!r}, {length!r}, {r!r}): {value!r},")
        print(lines[-1])
    lines += ["}", "", "FIELD_EDGE_ORACLE = {"]
    for kind, mass, length, r in FIELD_EDGE_POINTS:
        value = field_triangle_oracle(mass, length, r, kind, dps=40)
        lines.append(f"    ({kind!r}, {mass!r}, {length!r}, {r!r}): {value!r},")
        print(lines[-1])
    lines += ["}", "", "CORRELATION_EDGE_ORACLE = {"]
    for alpha in CORRELATION_EDGE_ALPHAS:
        for l in CORRELATION_EDGE_LAGS:
            for kind in ("g", "h"):
                value = correlation_oracle(l, alpha, kind)
                lines.append(f"    ({kind!r}, {alpha!r}, {l!r}): {value!r},")
                print(lines[-1])
    lines.append("}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    print(_regenerate())
