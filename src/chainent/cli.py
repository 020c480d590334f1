"""Command-line front end: correlation tables, entanglement sweeps, field
grids and the self-validation suite, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 validation failure, 2 usage/domain error,
3 numerical failure.  Each subcommand returns its whole output as text with
its exit code, and `main` does the single write to stdout or --out, so a
failing grid point never leaves partial output behind.

A sweep holds its couplings' tables in one array, counts each
geometry's lags once, and computes its rows as columns with the array
forms of the library's rules.  Every table is rendered from rows of cells
in column order.

Every size is bounded: a list token expands to at most `MAX_GRID` values,
a sweep holds at most `MAX_GRID` rows and `correlations.MAX_TABLE_LAGS`
table lags in all, and the library bounds tables, layouts and lag
counting.  A size past its bound exits 2.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import correlations, entanglement, field
from .blocks import BlockSpec
from .errors import ChainentError, DomainError

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
    and unique; an item that does not parse or holds no value is a
    DomainError, a range past `MAX_GRID` values a _GridError."""
    values = []
    for token in map(str.strip, text.split(",")):
        try:
            new = read_range(token) if ".." in token else [scalar(token)]
        except _GridError:
            raise
        except ValueError:
            new = []
        if not new:
            raise DomainError(f"bad value or range {token!r}")
        values.extend(new)
    return sorted(set(values))


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
    if count < 2 or not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    _check_grid(token, count)
    return np.linspace(lo, hi, count).tolist()


def parse_int_values(text: str) -> list[int]:
    """Comma-separated integers and inclusive ranges 'a..b'."""
    return _parse_values(text, int, _int_range)


def parse_float_values(text: str) -> list[float]:
    """Comma-separated floats and linspace ranges 'a..b:count'."""
    return _parse_values(text, float, _linspace_range)


# ---------------------------------------------------------------------------
# output formatting

def render_csv(schema_tag: str, columns, rows) -> str:
    """CSV under a `# schema` line and a header, from rows of cells in
    column order, one %-format per row: a None cell is empty (%.0s), an int
    is written with %d and any other value with %.17g."""
    lines = [f"# {schema_tag}", ",".join(columns)]
    for row in rows:
        cells = tuple(row)
        fmt = ",".join(["%.0s" if cell is None else
                        "%d" if isinstance(cell, int) else "%.17g"
                        for cell in cells])
        lines.append(fmt % cells)
    return "\n".join(lines) + "\n"


def render_json(schema_tag: str, columns, rows) -> str:
    # cells are int, None or float; np.float64 is a float subclass
    rows = [dict(zip(columns, row)) for row in rows]
    return json.dumps({"schema": schema_tag, "rows": rows}, indent=2) + "\n"


def _render_table(args, schema_tag: str, columns, rows) -> str:
    """A table subcommand's output in its --format."""
    if args.format == "csv":
        return render_csv(schema_tag, columns, rows)
    return render_json(schema_tag, columns, rows)


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


def _oracle_deviation(table, oracle_n: int, lags: int) -> float:
    """max |table - N-site spectral sums| over g and h on lags 0..lags, the
    comparison behind sweep's --oracle-n and validate's oracle check."""
    oracle = correlations.finite_correlation_table(
        table.alpha, n_sites=oracle_n, l_max=lags)
    return max(float(np.max(np.abs(table.g[:lags + 1] - oracle.g))),
               float(np.max(np.abs(table.h[:lags + 1] - oracle.h))))


# ---------------------------------------------------------------------------
# correlations subcommand

def cmd_correlations(args) -> tuple[str, int]:
    _check_oracle_n(args.oracle_n, args.l_max)
    table = correlations.correlation_table(args.alpha, args.l_max)
    cells = [range(args.l_max + 1), table.g, table.h]
    if args.oracle_n:
        oracle = correlations.finite_correlation_table(
            args.alpha, n_sites=args.oracle_n, l_max=args.l_max)
        cells += [oracle.g, oracle.h]
    columns = ("l", "g", "h", "g_fin", "h_fin")[:len(cells)]
    return _render_table(args, CORRELATIONS_SCHEMA, columns,
                         zip(*cells)), EXIT_OK


# ---------------------------------------------------------------------------
# sweep subcommand

def _checked_table(alpha, l_max, oracle_n):
    """The correlation table of one coupling; with oracle_n, cross-checked
    against the N-site spectral sums on lags up to
    min(l_max, SWEEP_ORACLE_LAGS)."""
    table = correlations.correlation_table(alpha, l_max)
    if oracle_n:
        worst = _oracle_deviation(table, oracle_n,
                                  min(l_max, SWEEP_ORACLE_LAGS))
        if worst > ORACLE_TOL:
            raise ChainentError(
                f"oracle cross-check failed at alpha={alpha}: max deviation "
                f"{worst:.3e} > {ORACLE_TOL}")
    return table


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
    else:
        specs = [BlockSpec(m=m, s=s, d=d) for m in args.m for s in args.s
                 for d in args.d]
    l_max = max(spec.max_lag for spec in specs)
    if len(alphas) * (l_max + 1) > correlations.MAX_TABLE_LAGS:
        raise DomainError(f"sweep of {len(alphas)} tables of {l_max + 1} "
                          f"lags, more than {correlations.MAX_TABLE_LAGS} "
                          f"lags in all")
    _check_oracle_n(args.oracle_n, min(l_max, SWEEP_ORACLE_LAGS))

    # every coupling's (g, h) rows in one array, filled table by table
    gh = np.empty((len(alphas), 2, l_max + 1))
    for alpha, pair in zip(alphas, gh):
        table = _checked_table(alpha, l_max, args.oracle_n)
        pair[0], pair[1] = table.g, table.h
    # the grid in (alpha, spec) row order, each geometry counted once
    moments = np.stack([entanglement._moments(gh, spec) for spec in specs],
                       axis=1).reshape(-1, 4).T
    verdict = entanglement._verdict(*moments, entanglement.VACUUM_PRODUCT)

    geometry = np.array([(spec.m, spec.s, spec.d, spec.n) for spec in specs])
    m, s, d, n = np.tile(geometry, (len(alphas), 1)).T
    # the estimate from each coupling's g_0, g_1, h_0, h_1, at d = 0 only
    adjacent, approx = d == 0, np.full(d.size, None)
    seeds = np.repeat(gh[:, :, :2].reshape(-1, 4), len(specs), axis=0)
    approx[adjacent] = entanglement._approx(*seeds[adjacent].T, n[adjacent],
                                            m[adjacent])
    columns = (np.repeat(alphas, len(specs)), m, s, d, n, *moments, *verdict,
               approx)
    rows = zip(*(column.tolist() for column in columns))
    return _render_table(args, SWEEP_SCHEMA, SWEEP_COLUMNS, rows), EXIT_OK


# ---------------------------------------------------------------------------
# field subcommand

def cmd_field(args) -> tuple[str, int]:
    rows = []
    for r in args.r:
        spec = field.FieldRegionSpec(mass=args.mass, length=args.length,
                                     separation=r)
        if r > args.length:
            res = field.field_negativity(spec)
            cov, eps = res.cov, res.epsilon
        else:
            cov, eps = field.field_covariance(spec), None
        rows.append((args.mass, args.length, r, cov.g_diag, cov.h_diag,
                     cov.g_cross, cov.h_cross, eps))
    return _render_table(args, FIELD_SCHEMA, FIELD_COLUMNS, rows), EXIT_OK


# ---------------------------------------------------------------------------
# validate subcommand

def _check_oracle_equivalence(oracle_n: int):
    worst = 0.0
    for alpha in (0.1, 0.5, 0.9, 0.99):
        table = correlations.correlation_table(alpha, VALIDATE_ORACLE_LAGS)
        worst = max(worst, _oracle_deviation(table, oracle_n,
                                             VALIDATE_ORACLE_LAGS))
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
    table = correlations.correlation_table(0.9, 80)
    for n in range(1, 7):
        if not entanglement.block_entanglement(table, BlockSpec(1, n, 0)).entangled:
            return False, f"expected entanglement at d=0, n={n}, alpha=0.9"
    if not entanglement.block_entanglement(table, BlockSpec(1, 1, 1)).separable:
        return False, "expected no entanglement at d=1, n=1"
    for n in range(1, 11):
        if not entanglement.block_entanglement(table, BlockSpec(1, n, 2)).separable:
            return False, f"expected no entanglement at d=2, n={n}"
    return True, "entangled at d=0, separable at d=2 (alpha=0.9, n <= 10)"


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
    p_sweep.add_argument("--m", type=parse_int_values, default=[1],
                         help="subblocks per block: comma list and/or 'a..b'")
    p_sweep.add_argument("--s", type=parse_int_values, default=[1],
                         help="sites per subblock: comma list and/or 'a..b'")
    p_sweep.add_argument("--d", type=parse_int_values, default=[0],
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

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
