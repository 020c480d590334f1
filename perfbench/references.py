"""Correctness gate: check each CLI output against independent references.

* Sweep rows: G, H, G_AB and H_AB come from the finite-chain spectral sums
  (`correlations.finite_correlation_table`, an FFT path that shares nothing
  with the hypergeometric production route) contracted with
  lag counts from a triangle-kernel formula written here (not
  `blocks.lag_count_array`).  A seeded sample of geometries is recomputed
  pair by pair with `tests.oracles.covariance_by_enumeration`.  delta1,
  delta2, Delta and the nearest-neighbour estimate follow from those, and
  the zero/non-zero pattern of epsilon must match wherever the reference
  decides it.
* Field rows: D_phi(0) against the frozen mpmath value in `tests/_frozen.py`;
  every D_phi(r) and D_pi(r) against the Bessel closed form below, which is
  itself checked against the frozen mpmath values first; epsilon must be
  exactly 0 (D_pi(0) is infinite for sharp windows, so no pair of separated
  windows is entangled).
* validate: every check and the overall verdict must pass.

Tolerances admit last-digit changes of the production path (the series
error is about 1e-13, the quadrature's stated absolute tolerance 1e-10) but
not a wrong answer.  Byte equality is not required.  Each reference keeps
the largest share of its tolerance that any checked value used.
"""

import math
import random

import numpy as np

from .workloads import FIELD_LENGTH, FIELD_MASS

SWEEP_HEADER = ("alpha,m,s,d,n,G,H,G_AB,H_AB,delta1,delta2,epsilon,Delta,"
                "epsilon_approx")
FIELD_HEADER = "mass,L,r,D_phi0,D_pi0,D_phi_r,D_pi_r,epsilon"

CHAIN_RTOL = 1e-9
CHAIN_ATOL = 1e-12
#: a propagator must be within both: twice the quadrature's absolute
#: tolerance (worst production error seen over seeds 1-30: 1.06e-10), and
#: 2% of the value (worst seen: 0.53%), so that far separations, where
#: |D| < 1e-10, are checked too and a zero or a flipped sign fails
FIELD_ATOL = 2e-10
FIELD_RTOL = 0.02
#: epsilon below this is printed as exactly 0 by the CLI
EPSILON_SNAP = 1e-12
#: geometries per sweep recomputed by explicit pair enumeration
ENUMERATED_SPECS = 2
ENUMERATION_MAX_SITES = 100


class BrokenReference(RuntimeError):
    """A reference failed its own anchor check; the harness cannot judge."""


def _option(argv, flag):
    return argv[argv.index(flag) + 1]


def _int_list(text):
    out = []
    for token in text.split(","):
        lo, _, hi = token.partition("..")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return sorted(set(out))


def _csv_rows(text, schema, header):
    lines = text.split("\n")
    if len(lines) < 3 or lines[0] != f"# {schema}" or lines[1] != header:
        raise ValueError("missing or wrong schema/header lines")
    if lines[-1] != "":
        raise ValueError("output does not end with a newline")
    return [line.split(",") for line in lines[2:-1]]


def _tol(ref, rtol, atol):
    return atol + rtol * abs(ref)


class _Reference:
    """Checks values and notes the largest share of its tolerance used."""

    worst = 0.0
    worst_at = None

    def _within(self, label, got, ref, tol, source="reference"):
        """A problem if |got - ref| > tol (or either is NaN), else None."""
        share = abs(got - ref) / tol
        if share > self.worst:
            self.worst, self.worst_at = share, label
        if share <= 1.0:
            return None
        return f"{label}={got!r}, {source} {ref!r}"


def lag_counts(m, s, d):
    """Exact (intra, cross) pair counts per lag, from the triangle kernel.

    Two length-s runs whose starts differ by D contribute s - |k| pairs at
    lag |D + k|; subblock starts differ by 2p*t within a block and by
    p*(2t + 1) across blocks, with p = s + d and multiplicity m - |t|.
    """
    p = s + d
    span = 2 * m * s + (2 * m - 1) * d
    k = np.arange(1 - s, s)
    t = np.arange(1 - m, m)
    weights = ((m - np.abs(t))[:, None] * (s - np.abs(k))[None, :]).ravel()

    def fold(offsets):
        lags = np.abs(offsets[:, None] + k[None, :]).ravel()
        return np.bincount(lags, weights=weights, minlength=span)

    return fold(2 * p * t), fold(p * (2 * t + 1))


def block_sites(m, s, d):
    p = s + d
    a = [2 * p * i + u for i in range(m) for u in range(s)]
    b = [p * (2 * i + 1) + u for i in range(m) for u in range(s)]
    return a, b


class SweepReference(_Reference):
    def __init__(self, argv, n_sites, seed):
        from chainent.correlations import finite_correlation_table
        from tests.oracles import covariance_by_enumeration

        alphas = _option(argv, "--alphas").split(",")
        self.alphas = sorted({float(a) for a in alphas})
        if "--specs" in argv:
            specs = {tuple(int(v) for v in tok.split(":"))
                     for tok in _option(argv, "--specs").split(",")}
        else:
            specs = {(m, s, d) for m in _int_list(_option(argv, "--m"))
                     for s in _int_list(_option(argv, "--s"))
                     for d in _int_list(_option(argv, "--d"))}
        self.specs = sorted(specs)
        span = max(2 * m * s + (2 * m - 1) * d for m, s, d in self.specs)
        intra = np.zeros((len(self.specs), span))
        cross = np.zeros((len(self.specs), span))
        for i, spec in enumerate(self.specs):
            a_counts, b_counts = lag_counts(*spec)
            intra[i, :a_counts.size] = a_counts
            cross[i, :b_counts.size] = b_counts
        sizes = np.array([m * s for m, s, _ in self.specs], dtype=float)
        small = [sp for sp in self.specs
                 if sp[0] * sp[1] <= ENUMERATION_MAX_SITES]
        enumerated = random.Random(f"enumerate:{seed}").sample(
            small, min(ENUMERATED_SPECS, len(small)))

        # (alpha, m, s, d) -> (G, H, G_AB, H_AB, g0, g1, h0, h1)
        self.rows = {}
        self.enumerated = {}
        for alpha in self.alphas:
            table = finite_correlation_table(alpha, n_sites=n_sites,
                                             l_max=span - 1)
            g, h = table.g, table.h
            cov = np.stack([intra @ g, intra @ h, cross @ g, cross @ h],
                           axis=1) / sizes[:, None]
            for spec, values in zip(self.specs, cov.tolist()):
                self.rows[(alpha,) + spec] = tuple(values) + (
                    g[0], g[1], h[0], h[1])
            for spec in enumerated:
                self.enumerated[(alpha,) + spec] = covariance_by_enumeration(
                    table, *block_sites(*spec))

    def check(self, text):
        rows = _csv_rows(text, "chainent-sweep-v1", SWEEP_HEADER)
        expected = [(a,) + sp for a in self.alphas for sp in self.specs]
        keys = [(float(r[0]), int(r[1]), int(r[2]), int(r[3])) for r in rows]
        if keys != expected:
            return [f"rows are not the sorted (alpha, m, s, d) grid: got "
                    f"{len(keys)} rows, want {len(expected)}"]
        problems = []
        for key, row in zip(keys, rows):
            problems.extend(self._check_row(key, row))
        return problems

    def _check_row(self, key, row):
        alpha, m, s, d = key
        n = int(row[4])
        out = [float(v) for v in row[5:13]]
        g_diag, h_diag, g_cross, h_cross, g0, g1, h0, h1 = self.rows[key]
        tols = [_tol(v, CHAIN_RTOL, CHAIN_ATOL)
                for v in (g_diag, h_diag, g_cross, h_cross)]
        d1 = g_diag - abs(g_cross)
        d2 = h_diag - abs(h_cross)
        raw_eps = 0.25 / (d1 * d2) - 1.0
        eps_tol = (1.0 + abs(raw_eps)) * ((tols[0] + tols[2]) / d1
                                          + (tols[1] + tols[3]) / d2)
        ref = [g_diag, h_diag, g_cross, h_cross, d1, d2,
               2.0 * (g_diag - g_cross + h_diag + h_cross)]
        ref_tol = tols + [tols[0] + tols[2], tols[1] + tols[3], 2 * sum(tols)]
        names = ("G", "H", "G_AB", "H_AB", "delta1", "delta2", "Delta")
        got = out[:6] + out[7:8]
        problems = [self._within(f"{key} {name}", v, r, tol)
                    for name, v, r, tol in zip(names, got, ref, ref_tol)]
        if n != m * s:
            problems.append(f"{key} n={n}")
        if key in self.enumerated:
            problems.extend(
                self._within(f"{key} {name}", v, e, tol, "enumeration")
                for name, v, e, tol in zip(names, out[:4],
                                           self.enumerated[key], tols))
        eps = out[6]
        if raw_eps - eps_tol > EPSILON_SNAP and not eps > 0.0:
            problems.append(f"{key} epsilon=0, reference {raw_eps!r}")
        elif raw_eps + eps_tol < EPSILON_SNAP and eps != 0.0:
            problems.append(f"{key} epsilon={eps!r}, reference 0")
        elif eps > 0.0:
            problems.append(
                self._within(f"{key} epsilon", eps, raw_eps, eps_tol))
        approx = row[13]
        if d == 0:
            a1 = g0 + (2.0 - (4.0 * m - 1.0) / n) * g1
            a2 = h0 + (2.0 - 1.0 / n) * h1
            ref_approx = 1.0 / (4.0 * a1 * a2) - 1.0
            problems.append(
                self._within(f"{key} epsilon_approx", float(approx or "nan"),
                             ref_approx,
                             (1.0 + abs(ref_approx)) * 10 * CHAIN_RTOL))
        elif approx:
            problems.append(f"{key} epsilon_approx={approx!r} at d={d}")
        return [p for p in problems if p]


def _phi_integral(x, mass):
    """2 * int_0^x (x - t) K0(mass t) dt, from iti0k0 and k1."""
    from scipy.special import iti0k0, k1

    if x == 0.0:
        return 0.0
    mx = mass * x
    return (2.0 * x * iti0k0(mx)[1] / mass
            - 2.0 / mass**2 * (1.0 - mx * k1(mx)))


def _k0(x):
    from scipy.special import k0

    return math.inf if x == 0.0 else float(k0(x))


def closed_form_propagator(kind, mass, length, r):
    """Smeared propagator of a sharp window by Bessel closed form."""
    def phi(x):
        return _phi_integral(x, mass)

    d_phi = (phi(r + length) + phi(abs(r - length)) - 2.0 * phi(r)) / (
        4.0 * math.pi * length)
    if kind == "phi":
        return d_phi
    return ((2.0 * _k0(mass * r) - _k0(mass * (r + length))
             - _k0(mass * abs(r - length))) / (2.0 * math.pi * length)
            + mass**2 * d_phi)


class FieldReference(_Reference):
    def __init__(self, argv, n_sites, seed):
        from tests._frozen import FIELD_ORACLE

        for (kind, mass, length, r), value in FIELD_ORACLE.items():
            if (mass, length) == (FIELD_MASS, FIELD_LENGTH):
                mine = closed_form_propagator(kind, mass, length, r)
                if not abs(mine - value) <= 1e-12:
                    raise BrokenReference(
                        f"closed form D_{kind}({r}) = {mine!r} misses the "
                        f"frozen oracle {value!r}")
        self.d_phi0 = FIELD_ORACLE[("phi", FIELD_MASS, FIELD_LENGTH, 0.0)]
        self.seps = sorted({float(r) for r in _option(argv, "--r").split(",")})
        self.props = [
            tuple(closed_form_propagator(kind, FIELD_MASS, FIELD_LENGTH, r)
                  for kind in ("phi", "pi"))
            for r in self.seps]

    def check(self, text):
        rows = _csv_rows(text, "chainent-field-v1", FIELD_HEADER)
        if [float(r[2]) for r in rows] != self.seps:
            return [f"separations differ from the argv: got {len(rows)} rows"]

        def tol(ref):
            return min(FIELD_ATOL, FIELD_RTOL * abs(ref))

        problems = []
        for row, (ref_phi, ref_pi) in zip(rows, self.props):
            mass, length, r, phi0, pi0, phi_r, pi_r = map(float, row[:7])
            eps = row[7]
            if (mass, length) != (FIELD_MASS, FIELD_LENGTH):
                problems.append(f"r={r}: mass/L columns {mass}, {length}")
            problems += [
                self._within(f"r={r}: D_phi0", phi0, self.d_phi0,
                             tol(self.d_phi0), "oracle"),
                self._within(f"r={r}: D_phi_r", phi_r, ref_phi, tol(ref_phi)),
                self._within(f"r={r}: D_pi_r", pi_r, ref_pi, tol(ref_pi))]
            if pi0 != math.inf:
                problems.append(f"r={r}: D_pi0={pi0!r}, want inf")
            if eps == "" or float(eps) != 0.0:
                problems.append(f"r={r}: epsilon={eps!r}, reference 0")
        return [p for p in problems if p]


class ValidateReference(_Reference):
    def __init__(self, argv, n_sites, seed):
        pass

    def check(self, text):
        lines = text.rstrip("\n").split("\n")
        if not lines[-1].startswith("overall: PASS"):
            return [f"validate verdict: {lines[-1]!r}"]
        return [f"validate check: {line!r}" for line in lines[:-1]
                if not line.startswith("[PASS]")]


REFERENCES = {"sweep": SweepReference, "field": FieldReference,
              "validate": ValidateReference}


def check_output(reference, returncode, text):
    """Problems with one invocation's result; an empty list means correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        return reference.check(text)
    except (ValueError, IndexError) as exc:
        return [f"unparsable output: {exc}"]
