"""Command-line front end: correlation tables, entanglement sweeps, field
grids and the self-validation suite, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 validation failure, 2 usage/domain error,
3 numerical failure.  Output is assembled fully in memory and written in one
shot, so a failing grid point never leaves partial output behind.
"""

import argparse
import io
import json
import math
import sys

import numpy as np

from . import correlations, entanglement, field
from .blocks import BlockSpec
from .errors import ChainentError, DomainError
from .kernels import BACKEND

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

#: epsilon below this is written as exactly 0 so separability claims stay
#: crisp; the delta1/delta2 columns keep full precision.
EPSILON_SNAP = 1e-12

#: largest |closed form - N-site spectral sum| that sweep's --oracle-n
#: cross-check and validate's oracle-equivalence check accept.
ORACLE_TOL = 1e-8

#: largest lag that sweep's --oracle-n cross-check and validate's
#: oracle-equivalence check compare
SWEEP_ORACLE_LAGS = 100
VALIDATE_ORACLE_LAGS = 50

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

def parse_int_values(text: str) -> list[int]:
    """Comma-separated integers and inclusive ranges 'a..b'."""
    values: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_s, hi_s = token.split("..", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise DomainError(f"bad integer range {token!r}")
            if hi < lo:
                raise DomainError(f"empty range {token!r}")
            values.extend(range(lo, hi + 1))
        else:
            try:
                values.append(int(token))
            except ValueError:
                raise DomainError(f"bad integer {token!r}")
    if not values:
        raise DomainError(f"no values in {text!r}")
    return sorted(set(values))


def parse_float_values(text: str) -> list[float]:
    """Comma-separated floats and linspace ranges 'a..b:count'."""
    values: list[float] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            body, _, count_s = token.partition(":")
            lo_s, hi_s = body.split("..", 1)
            try:
                lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            except ValueError:
                raise DomainError(f"bad float range {token!r}, want 'a..b:count'")
            if count < 2:
                raise DomainError(f"range {token!r} needs count >= 2")
            values.extend(np.linspace(lo, hi, count).tolist())
        else:
            try:
                values.append(float(token))
            except ValueError:
                raise DomainError(f"bad float {token!r}")
    if not values:
        raise DomainError(f"no values in {text!r}")
    return sorted(set(values))


# ---------------------------------------------------------------------------
# output formatting

def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def render_csv(schema_tag: str, columns, rows) -> str:
    buf = io.StringIO()
    buf.write(f"# {schema_tag}\n")
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(_fmt_cell(row[c]) for c in columns) + "\n")
    return buf.getvalue()


def render_json(schema_tag: str, rows) -> str:
    cleaned = []
    for row in rows:
        out = {}
        for key, value in row.items():
            if isinstance(value, np.integer):
                value = int(value)
            elif isinstance(value, np.floating):
                value = float(value)
            out[key] = value
        cleaned.append(out)
    return json.dumps({"schema": schema_tag, "rows": cleaned}, indent=2) + "\n"


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


def _snap(eps: float) -> float:
    return 0.0 if eps < EPSILON_SNAP else eps


def _check_oracle_n(oracle_n, lag: int) -> None:
    """An N-site ring holds lags 0..N-1: N must exceed the largest lag
    compared, and a ring has at least 2 sites."""
    need = max(2, lag + 1)
    if oracle_n is not None and oracle_n < need:
        raise DomainError(f"--oracle-n must be >= {need} sites to compare "
                          f"lags up to {lag}, got {oracle_n}")


def _oracle_deviation(table, oracle_n: int, lags: int) -> float:
    """max |table - N-site spectral sums| over g and h on lags 0..lags, the
    comparison behind sweep's --oracle-n and validate's oracle check."""
    oracle = correlations.finite_correlation_table(
        table.alpha, n_sites=oracle_n, l_max=lags)
    return max(float(np.max(np.abs(table.g[:lags + 1] - oracle.g))),
               float(np.max(np.abs(table.h[:lags + 1] - oracle.h))))


# ---------------------------------------------------------------------------
# correlations subcommand

def cmd_correlations(args) -> int:
    _check_oracle_n(args.oracle_n, args.l_max)
    alpha = args.alpha
    table = correlations.correlation_table(alpha, args.l_max)
    oracle = None
    if args.oracle_n:
        oracle = correlations.finite_correlation_table(
            alpha, n_sites=args.oracle_n, l_max=args.l_max)
    rows = []
    for l in range(args.l_max + 1):
        row = {"l": l, "g": table.g[l], "h": table.h[l]}
        if oracle is not None:
            row["g_fin"] = oracle.g[l]
            row["h_fin"] = oracle.h[l]
        rows.append(row)
    columns = ("l", "g", "h") + (("g_fin", "h_fin") if oracle is not None else ())
    if args.format == "csv":
        text = render_csv(CORRELATIONS_SCHEMA, columns, rows)
    else:
        text = render_json(CORRELATIONS_SCHEMA, rows)
    _emit(text, args.out)
    return EXIT_OK


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


def _sweep_row(table, spec, counts):
    """The row of one coupling and geometry; counts is
    entanglement.lag_counts(spec)."""
    cov = entanglement.covariance_of_blocks(table, spec, counts)
    res = entanglement.negativity(cov)
    approx = None
    if spec.d == 0:
        approx = entanglement.approx_negativity(
            table.g[0], table.g[1], table.h[0], table.h[1], n=spec.n, m=spec.m)
    return {
        "alpha": table.alpha.alpha, "m": spec.m, "s": spec.s, "d": spec.d,
        "n": spec.n, "G": cov.g_diag, "H": cov.h_diag,
        "G_AB": cov.g_cross, "H_AB": cov.h_cross,
        "delta1": res.delta1, "delta2": res.delta2,
        "epsilon": _snap(res.epsilon), "Delta": res.duan,
        "epsilon_approx": approx,
    }


def cmd_sweep(args) -> int:
    alphas = args.alphas  # sorted and unique, see parse_float_values
    for a in alphas:
        correlations.as_coupling(a)  # validate the whole grid up front
    if args.specs:
        specs = sorted({BlockSpec.from_text(token.strip())
                        for token in args.specs.split(",")})
    else:
        specs = [BlockSpec(m=m, s=s, d=d) for m in args.m for s in args.s
                 for d in args.d]
    l_max = max(spec.max_lag for spec in specs)
    _check_oracle_n(args.oracle_n, min(l_max, SWEEP_ORACLE_LAGS))

    tables = [_checked_table(alpha, l_max, args.oracle_n) for alpha in alphas]
    # one geometry's lag counts serve every coupling; rows stay alpha-major
    by_alpha = [[] for _ in tables]
    for spec in specs:
        counts = entanglement.lag_counts(spec)
        for table, table_rows in zip(tables, by_alpha):
            table_rows.append(_sweep_row(table, spec, counts))
    rows = [row for table_rows in by_alpha for row in table_rows]
    if args.format == "csv":
        text = render_csv(SWEEP_SCHEMA, SWEEP_COLUMNS, rows)
    else:
        text = render_json(SWEEP_SCHEMA, rows)
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# field subcommand

def cmd_field(args) -> int:
    rows = []
    for r in args.r:
        spec = field.FieldRegionSpec(mass=args.mass, length=args.length,
                                     separation=r)
        if r > args.length:
            res = field.field_negativity(spec)
            cov, eps = res.cov, _snap(res.epsilon)
        else:
            cov, eps = field.field_covariance(spec), None
        rows.append({
            "mass": args.mass, "L": args.length, "r": r,
            "D_phi0": cov.g_diag, "D_pi0": cov.h_diag,
            "D_phi_r": cov.g_cross, "D_pi_r": cov.h_cross,
            "epsilon": eps,
        })
    if args.format == "csv":
        text = render_csv(FIELD_SCHEMA, FIELD_COLUMNS, rows)
    else:
        text = render_json(FIELD_SCHEMA, rows)
    _emit(text, args.out)
    return EXIT_OK


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
        worst_res = max(worst_res,
                        float(np.max(np.abs(s_mat.T @ omega @ s_mat - omega))))
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
        if res.epsilon != 0.0 or res.entangled:
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


def cmd_validate(args) -> int:
    _check_oracle_n(args.oracle_n, VALIDATE_ORACLE_LAGS)
    checks = []
    all_ok = True
    for name, func in VALIDATION_CHECKS:
        try:
            ok, detail = func(args.oracle_n)
        except ChainentError as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        checks.append({"name": name, "passed": bool(ok), "detail": detail})
        all_ok = all_ok and ok
    if args.report == "json":
        text = json.dumps({"schema": VALIDATE_SCHEMA, "passed": all_ok,
                           "checks": checks}, indent=2) + "\n"
    else:
        lines = [f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: "
                 f"{c['detail']}" for c in checks]
        lines.append(f"overall: {'PASS' if all_ok else 'FAIL'} "
                     f"(kernel backend: {BACKEND})")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all_ok else EXIT_VALIDATION


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"chainent: domain error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ChainentError as exc:
        print(f"chainent: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
