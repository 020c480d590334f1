"""Command-line front end: correlation tables, entanglement sweeps, field
grids and the self-validation suite, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 validation failure, 2 usage/domain error,
3 numerical failure.  Each subcommand returns its whole output as text with
its exit code, and `main` does the single write to stdout or --out, so a
failing grid point never leaves partial output behind.  `main` builds its
parser on its first call and reuses it; no parser default is mutable.

A sweep builds its layout grid as one integer array, holds its couplings'
tables in one array, takes the moments of every geometry under every
coupling in one pass, and computes its rows as columns with the array
forms of the library's rules.  A field grid likewise takes D(0) once, the
propagators of all its window pairs, overlapping and separated, in one
array pass and epsilon from one verdict over its columns, and refuses the
row a loop would, by rule: rows ascend with NaN last, D(0) comes first,
the pass refuses its first failing pair in row order, and no separated
verdict fails (`cmd_field`).
Every table is rendered from its columns by `chainent.render`, formatting
each distinct int or float of a column once: a CSV table as one byte
matrix, whose floats of a large table come from `digits.fill`, a numpy
kernel with %.17g's bytes (see `render_csv` for its error bound, fallback
band and range).

Every size is bounded: a list token expands to at most `MAX_GRID` values,
a sweep holds at most `MAX_GRID` rows and `correlations.MAX_TABLE_LAGS`
table lags in all, and the library bounds tables and layouts.  A size past
its bound exits 2.
"""

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import blocks, correlations, entanglement, field
from .blocks import BlockSpec
from .errors import ChainentError, DomainError
from .render import render_csv, render_json

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: largest |closed form - N-site spectral sum| that sweep's --oracle-n
#: cross-check and validate's oracle-equivalence check accept.
ORACLE_TOL = 1e-8

#: largest lag that sweep's --oracle-n cross-check and validate's
#: oracle-equivalence check compare
SWEEP_ORACLE_LAGS = 100
VALIDATE_ORACLE_LAGS = 50

#: most values one list token expands to, and most rows of one sweep
MAX_GRID = 10**5

SWEEP_SCHEMA = "chainent-sweep-v1"
CORRELATIONS_SCHEMA = "chainent-correlations-v1"
FIELD_SCHEMA = "chainent-field-v1"
VALIDATE_SCHEMA = "chainent-validate-v1"

SWEEP_COLUMNS = ("alpha", "m", "s", "d", "n", "G", "H", "G_AB", "H_AB",
                 "delta1", "delta2", "epsilon", "Delta", "epsilon_approx")
FIELD_COLUMNS = ("mass", "L", "r", "D_phi0", "D_pi0", "D_phi_r", "D_pi_r",
                 "epsilon")


# ---------------------------------------------------------------------------
# argument parsing helpers

class _GridError(DomainError, argparse.ArgumentTypeError):
    """A list flag past `MAX_GRID` values; argparse prints its text."""


def _parse_values(text: str, scalar, read_range) -> list:
    """Comma-separated scalars and 'a..b' ranges (read by read_range), sorted
    and unique, with one NaN last (a set and a sort place it at random; only
    a scalar reads as NaN); an item that does not parse or holds no value is
    a DomainError, a range past `MAX_GRID` values a _GridError."""
    values, nan = [], []
    for token in map(str.strip, text.split(",")):
        try:
            new = read_range(token) if ".." in token else [scalar(token)]
        except _GridError:
            raise
        except ValueError:
            new = []
        if not new:
            raise DomainError(f"bad value or range {token!r}")
        (values if new[0] == new[0] else nan).extend(new)
    return sorted(set(values)) + nan[:1]


def _check_grid(token: str, count: int) -> None:
    if count > MAX_GRID:
        raise _GridError(f"{token!r} holds {count} values, more than "
                        f"{MAX_GRID}")


def _int_range(token: str) -> range:
    lo, hi = map(int, token.split("..", 1))
    _check_grid(token, hi - lo + 1)
    return range(lo, hi + 1)


def _linspace_range(token: str) -> list[float]:
    body, _, count = token.partition(":")
    lo, hi = map(float, body.split("..", 1))
    count = int(count)
    if count < 2 or not math.isfinite(hi - lo):     # a non-finite end or span
        return []
    _check_grid(token, count)
    return np.linspace(lo, hi, count).tolist()


def parse_int_values(text: str) -> list[int]:
    """Comma-separated integers and inclusive ranges 'a..b'."""
    return _parse_values(text, int, _int_range)


def parse_float_values(text: str) -> list[float]:
    """Comma-separated floats and linspace ranges 'a..b:count'; -0 is 0."""
    return [value + 0.0 for value in _parse_values(text, float,
                                                   _linspace_range)]


# ---------------------------------------------------------------------------
# output formatting

def _render_table(args, schema_tag: str, columns, cells) -> str:
    """A table subcommand's output in its --format."""
    if args.format == "csv":
        return render_csv(schema_tag, columns, cells)
    return render_json(schema_tag, columns, cells)


def _emit(text: str, out_path) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(
            f"cannot write --out {out_path}: {exc.strerror or exc}") from None


def _check_oracle_n(oracle_n, lag: int) -> None:
    """An N-site ring holds lags 0..N-1: N must exceed the largest lag
    compared, a ring has at least 2 sites, and the oracle sums over at most
    `correlations.MAX_ORACLE_SITES`."""
    if oracle_n is None:
        return
    need = max(2, lag + 1)
    if oracle_n < need:
        raise DomainError(f"--oracle-n must be >= {need} sites to compare "
                          f"lags up to {lag}, got {oracle_n}")
    if oracle_n > correlations.MAX_ORACLE_SITES:
        raise DomainError(f"--oracle-n must be <= "
                          f"{correlations.MAX_ORACLE_SITES} sites, got "
                          f"{oracle_n}")


def _oracle_deviation(table, oracle) -> float:
    """max |table - N-site spectral sums| over g and h on the oracle's
    lags, the comparison behind sweep's --oracle-n and validate's oracle
    check."""
    lags = oracle.l_max + 1
    return max(float(np.max(np.abs(table.g[:lags] - oracle.g))),
               float(np.max(np.abs(table.h[:lags] - oracle.h))))


# ---------------------------------------------------------------------------
# correlations subcommand

def cmd_correlations(args) -> tuple[str, int]:
    _check_oracle_n(args.oracle_n, args.l_max)
    table = correlations.correlation_table(args.alpha, args.l_max)
    cells = [np.arange(args.l_max + 1), table.g, table.h]
    if args.oracle_n:
        oracle = correlations.finite_correlation_table(
            args.alpha, n_sites=args.oracle_n, l_max=args.l_max)
        cells += [oracle.g, oracle.h]
    columns = ("l", "g", "h", "g_fin", "h_fin")[:len(cells)]
    return _render_table(args, CORRELATIONS_SCHEMA, columns, cells), EXIT_OK


# ---------------------------------------------------------------------------
# sweep subcommand

def _layout_grid(ms, ss, ds) -> np.ndarray:
    """Every (m, s, d) layout of the sorted lists `ms`, `ss` and `ds`, in
    that order, as a (layouts, 3) int array.

    A grid holding a layout `BlockSpec` refuses raises the DomainError of
    the first such layout in that order, as one BlockSpec per layout would:
    the first layout holds the least m, s and d, so it fails any lower
    bound, and past those the first layout whose span is past
    `correlations.MAX_TABLE_LAGS` fails."""
    BlockSpec(ms[0], ss[0], ds[0])
    # a value past the cap spans past it alone; capping keeps spans exact
    cap = correlations.MAX_TABLE_LAGS + 1
    axes = ([min(value, cap) for value in values] for values in (ms, ss, ds))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    over = np.flatnonzero(blocks.layout_columns(grid)[3]
                          > correlations.MAX_TABLE_LAGS)
    if over.size:
        i, j, k = np.unravel_index(over[0], (len(ms), len(ss), len(ds)))
        BlockSpec(ms[i], ss[j], ds[k])      # raises the span's DomainError
    return grid


def cmd_sweep(args) -> tuple[str, int]:
    # sorted and unique (see parse_float_values), validated up front
    alphas = [correlations._check_coupling(a) for a in args.alphas]
    tokens = args.specs.split(",") if args.specs is not None else ()
    rows = len(alphas) * (len(tokens) or
                          len(args.m) * len(args.s) * len(args.d))
    if rows > MAX_GRID:
        raise DomainError(f"sweep of {rows} rows, more than {MAX_GRID}")
    if tokens:
        specs = sorted({BlockSpec.from_text(token.strip())
                        for token in tokens})
        layouts = np.array([(spec.m, spec.s, spec.d) for spec in specs])
    else:
        layouts = _layout_grid(args.m, args.s, args.d)
    l_max = int(blocks.layout_columns(layouts)[3].max()) - 1
    if len(alphas) * (l_max + 1) > correlations.MAX_TABLE_LAGS:
        raise DomainError(f"sweep of {len(alphas)} tables of {l_max + 1} "
                          f"lags, more than {correlations.MAX_TABLE_LAGS} "
                          f"lags in all")
    _check_oracle_n(args.oracle_n, min(l_max, SWEEP_ORACLE_LAGS))

    # every coupling's (g, h) rows in one array, filled table by table; with
    # --oracle-n each is checked as its oracle is drawn, so the first
    # failing coupling raises
    gh = np.empty((len(alphas), 2, l_max + 1))
    oracles = (correlations._finite_tables(
        alphas, args.oracle_n, min(l_max, SWEEP_ORACLE_LAGS))
        if args.oracle_n else [None] * len(alphas))
    for alpha, oracle, pair in zip(alphas, oracles, gh):
        table = correlations.correlation_table(alpha, l_max)
        if oracle and (worst := _oracle_deviation(table, oracle)) > ORACLE_TOL:
            raise ChainentError(
                f"oracle cross-check failed at alpha={alpha}: max deviation "
                f"{worst:.3e} > {ORACLE_TOL}")
        pair[0], pair[1] = table.g, table.h
    # the grid in (alpha, layout) row order, from one pass over every layout
    moments = entanglement._moments(gh, layouts).reshape(-1, 4).T
    verdict = entanglement._verdict(*moments, entanglement.VACUUM_PRODUCT)

    m, s, d = np.tile(layouts, (len(alphas), 1)).T
    n = m * s
    # the estimate from each coupling's g_0, g_1, h_0, h_1, at d = 0 only
    adjacent, approx = d == 0, np.full(d.size, None)
    seeds = np.repeat(gh[:, :, :2].reshape(-1, 4), len(layouts), axis=0)
    approx[adjacent] = entanglement._approx(*seeds[adjacent].T, n[adjacent],
                                            m[adjacent])
    cells = (np.repeat(alphas, len(layouts)), m, s, d, n, *moments, *verdict,
             approx)
    return _render_table(args, SWEEP_SCHEMA, SWEEP_COLUMNS, cells), EXIT_OK


# ---------------------------------------------------------------------------
# field subcommand

def cmd_field(args) -> tuple[str, int]:
    # D(0) once, the propagators of every separation, overlapping or
    # separated, from one `field._pairs` call and epsilon of the separated
    # ones from one verdict, None where the windows overlap.  A refused
    # grid raises what a loop over its rows meets first: they ascend with
    # NaN last, so the first row's spec checks m, L and every finite row,
    # D(0) comes next, and `_pairs` raises its first failing pair in row
    # order.  No verdict fails then: D_phi(0) > 0 at every m and L,
    # D_phi(r) < D_phi(0) and delta2 = D_pi(0) = +inf.
    r, length = np.array(args.r), args.length
    spec = field.FieldRegionSpec(args.mass, length, float(r[0]))
    d_phi0, d_pi0 = field.d_phi(spec, 0.0), field.d_pi(spec, 0.0)
    finite = int(np.isfinite(r).sum())
    # + 0.0: a one-term sum of the covariance, which gives 0 for -0
    d_phi_r, d_pi_r = field._pairs(spec, r[:finite], 1) + 0.0
    if finite < r.size:
        field.FieldRegionSpec(args.mass, length, float(r[finite]))  # raises
    apart = r > length
    epsilon = np.full(r.size, None)
    epsilon[apart] = entanglement._verdict(
        d_phi0, d_pi0, d_phi_r[apart], d_pi_r[apart],
        entanglement.VACUUM_PRODUCT)[2]
    cells = (np.full(r.size, args.mass), np.full(r.size, length), r,
             np.full(r.size, d_phi0), np.full(r.size, d_pi0), d_phi_r, d_pi_r,
             epsilon)
    return _render_table(args, FIELD_SCHEMA, FIELD_COLUMNS, cells), EXIT_OK


# ---------------------------------------------------------------------------
# validate subcommand

def _check_oracle_equivalence(oracle_n: int):
    worst = 0.0
    alphas = (0.1, 0.5, 0.9, 0.99)
    for alpha, oracle in zip(alphas, correlations._finite_tables(
            alphas, oracle_n, VALIDATE_ORACLE_LAGS)):
        table = correlations.correlation_table(alpha, VALIDATE_ORACLE_LAGS)
        worst = max(worst, _oracle_deviation(table, oracle))
    return worst <= ORACLE_TOL, (
        f"max |closed-form - spectral-sum(N={oracle_n})| = {worst:.3e} "
        f"(tol {ORACLE_TOL:g})")


def _check_sign_pattern(oracle_n: int):
    for alpha in (0.1, 0.5, 0.9, 0.99):
        table = correlations.correlation_table(alpha, 60)
        g, h = table.g, table.h
        if not (np.all(g > 0) and h[0] > 0 and np.all(h[1:] < 0)):
            return False, f"sign pattern violated at alpha={alpha}"
        if not (np.all(np.diff(np.abs(g[1:])) < 0)
                and np.all(np.diff(np.abs(h[1:])) < 0)):
            return False, f"correlations not decaying at alpha={alpha}"
        if g[0] * h[0] < 0.25:
            return False, f"uncertainty g0*h0 < 1/4 at alpha={alpha}"
    return True, "g > 0, h alternating, decaying, g0*h0 >= 1/4 on test grid"


def _check_symplectic(oracle_n: int):
    worst_res, worst_det = 0.0, 0.0
    for n_sites, spec in ((8, BlockSpec(1, 2, 1)), (12, BlockSpec(3, 1, 0))):
        s_mat = entanglement.collective_symplectic(n_sites, spec)
        omega = entanglement.symplectic_form(n_sites)
        # S^T O S as products summed over a last axis, in numpy's fixed order
        s_t_omega = (s_mat.T[:, None, :] * omega.T).sum(-1)
        residual = (s_t_omega[:, None, :] * s_mat.T).sum(-1) - omega
        worst_res = max(worst_res, float(np.max(np.abs(residual))))
        worst_det = max(worst_det, abs(np.linalg.det(s_mat) - 1.0))
    ok = worst_res <= 1e-12 and worst_det <= 1e-12
    return ok, (f"max |S^T O S - O| = {worst_res:.2e}, max |det S - 1| = "
                f"{worst_det:.2e} (tol 1e-12)")


def _check_rescaling(oracle_n: int):
    worst = 0.0
    for alpha, spec in ((0.5, BlockSpec(1, 3, 0)), (0.9, BlockSpec(2, 2, 1))):
        table = correlations.correlation_table(alpha, spec.max_lag)
        cov = entanglement.covariance_of_blocks(table, spec)
        eps = entanglement.negativity(cov).epsilon
        n = spec.n
        for scale, vac in ((math.sqrt(n), n * n / 4.0),
                           (1.0 / math.sqrt(n), 1.0 / (4.0 * n * n))):
            other = entanglement.negativity(cov.rescaled(scale, scale),
                                            vacuum_product=vac).epsilon
            worst = max(worst, abs(other - eps) / max(eps, 1.0))
    return worst <= 1e-14, (f"max relative epsilon shift across sum "
                            f"conventions = {worst:.2e} (tol 1e-14)")


def _check_chain_cutoffs(oracle_n: int):
    # (layout, whether it is entangled, the detail if it is not so), in
    # the order they are reported
    cases = ([((1, n, 0), True, f"expected entanglement at d=0, n={n}, "
               f"alpha=0.9") for n in range(1, 7)]
             + [((1, 1, 1), False, "expected no entanglement at d=1, n=1")]
             + [((1, n, 2), False, f"expected no entanglement at d=2, n={n}")
                for n in range(1, 11)])
    layouts, expected, details = zip(*cases)
    table = correlations.correlation_table(0.9, 80)
    gh = np.stack((table.g, table.h))[None]
    [moments] = entanglement._moments(gh, layouts)
    epsilon = entanglement._verdict(*moments.T,
                                    entanglement.VACUUM_PRODUCT)[2]
    for entangled, want, detail in zip(epsilon != 0.0, expected, details):
        if entangled != want:
            return False, detail
    return True, "entangled at d=0, separable at d=2 (alpha=0.9, n <= 10)"


def _check_lag_counts(oracle_n: int):
    specs = (BlockSpec(1, 3, 0), BlockSpec(2, 2, 1), BlockSpec(4, 3, 2))
    m, s, d, _ = blocks.layout_columns([(x.m, x.s, x.d) for x in specs])
    lags, weights = blocks._spikes(m, s, d)
    for i, spec in enumerate(specs):
        a, b = blocks.block_indices(spec)
        for at, weight, other in zip(lags[..., i], weights[..., i], (a, b)):
            # the counts are the double cumulative sum of the spikes
            got = np.bincount(at, weight).cumsum().cumsum()[:spec.span]
            pairs = blocks.lag_count_array(a, other)
            # a pair count ends at its largest lag; got runs to max_lag
            if not np.array_equal(np.trim_zeros(got, "b"), pairs):
                return False, f"lag counts of {spec} differ from pair counts"
    return True, "closed-form lag counts equal direct pair counts (3 layouts)"


def _check_field_null(oracle_n: int):
    spec = field.FieldRegionSpec(mass=1.0, length=1.0, separation=0.0)
    dphi0 = field.d_phi(spec, 0.0)
    dpi0 = field.d_pi(spec, 0.0)
    if not math.isfinite(dphi0):
        return False, "D_phi(0) not finite"
    if dphi0 * dpi0 < 0.25:
        return False, "uncertainty product below 1/4"
    for r in (1.1, 2.0):
        res = field.field_negativity(
            field.FieldRegionSpec(mass=1.0, length=1.0, separation=r))
        if res.entangled:
            return False, f"expected epsilon = 0 at r={r}, got {res.epsilon}"
    return True, "propagators behave and epsilon = 0 for separated windows"


VALIDATION_CHECKS = (
    ("oracle-equivalence", _check_oracle_equivalence),
    ("sign-pattern", _check_sign_pattern),
    ("symplectic", _check_symplectic),
    ("rescaling-invariance", _check_rescaling),
    ("chain-cutoffs", _check_chain_cutoffs),
    ("lag-counts", _check_lag_counts),
    ("field-null-result", _check_field_null),
)


def cmd_validate(args) -> tuple[str, int]:
    _check_oracle_n(args.oracle_n, VALIDATE_ORACLE_LAGS)
    checks = []
    for name, func in VALIDATION_CHECKS:
        try:
            ok, detail = func(args.oracle_n)
        except ChainentError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(ok), "detail": detail})
    all_ok = all(check["passed"] for check in checks)
    if args.report == "json":
        text = json.dumps({"schema": VALIDATE_SCHEMA, "passed": all_ok,
                           "checks": checks}, indent=2) + "\n"
    else:
        lines = [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
                 f"{c['detail']}" for c in checks]
        lines.append(f"overall: {'PASS' if all_ok else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    return text, EXIT_OK if all_ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainent",
        description="Collective-operator entanglement of oscillator blocks "
                    "and smeared field regions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write output here instead of stdout")

    p_corr = sub.add_parser("correlations",
                            help="tabulate g_l and h_l for one coupling")
    p_corr.add_argument("--alpha", type=float, required=True)
    p_corr.add_argument("--l-max", type=int, default=20)
    p_corr.add_argument("--oracle-n", type=int, default=None, metavar="N",
                        help="add finite-chain cross-check columns (validation "
                             "path, N sites)")
    add_output_flags(p_corr)
    p_corr.set_defaults(func=cmd_correlations)

    p_sweep = sub.add_parser("sweep",
                             help="entanglement over a (alpha, m, s, d) grid")
    p_sweep.add_argument("--alphas", "--alpha", dest="alphas",
                         type=parse_float_values, required=True,
                         help="couplings: comma list and/or 'a..b:count'")
    p_sweep.add_argument("--m", type=parse_int_values, default=(1,),
                         help="subblocks per block: comma list and/or 'a..b'")
    p_sweep.add_argument("--s", type=parse_int_values, default=(1,),
                         help="sites per subblock: comma list and/or 'a..b'")
    p_sweep.add_argument("--d", type=parse_int_values, default=(0,),
                         help="separations: comma list and/or 'a..b'")
    p_sweep.add_argument("--specs", default=None, metavar="M:S:D,...",
                         help="explicit geometry list in canonical 'm:s:d' "
                              "form; overrides --m/--s/--d")
    p_sweep.add_argument("--oracle-n", type=int, default=None, metavar="N",
                         help="cross-check each table against the N-site "
                              "spectral sums before sweeping")
    add_output_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_field = sub.add_parser("field",
                             help="smeared-field propagators and negativity")
    p_field.add_argument("--mass", type=float, required=True)
    p_field.add_argument("--length", type=float, required=True,
                         help="smearing window length L")
    p_field.add_argument("--r", type=parse_float_values, required=True,
                         help="center separations: comma list and/or "
                              "'a..b:count'")
    add_output_flags(p_field)
    p_field.set_defaults(func=cmd_field)

    p_val = sub.add_parser("validate",
                           help="run the built-in consistency suite")
    p_val.add_argument("--report", choices=("text", "json"), default="text")
    p_val.add_argument("--oracle-n", type=int, default=2**20,
                       help="finite-chain size for the oracle check")
    p_val.add_argument("--out", metavar="FILE", default=None)
    p_val.set_defaults(func=cmd_validate)

    # a token that starts with one '-' and names no option is a value (a
    # negative number, list or range), read as after --flag=
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile("-[^-]")
    return parser


#: the parser `main` reads every argv with, built on its first call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text, code = args.func(args)
        _emit(text, args.out)
        return code
    except DomainError as exc:
        print(f"chainent: domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChainentError as exc:
        print(f"chainent: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
