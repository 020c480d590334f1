import argparse
import contextlib
import importlib.resources
import io
import json
import math
from fractions import Fraction
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chainent
from chainent import cli, correlations, entanglement, field, render
from chainent.blocks import BlockSpec
from chainent.errors import ChainentError, DomainError


def run(argv):
    return cli.main(argv)


def run_captured(argv):
    """exit code, stdout and stderr of one in-process run"""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


#: masses and window lengths 10^U(-323, 308), the float range's edges and
#: values FieldRegionSpec refuses
SCALES = st.one_of(
    st.floats(-323.0, 308.0).map(lambda x: 10.0**x),
    st.sampled_from([5e-324, 1e-310, 1.0, 1e300, 2.0**1023,
                     1.7976931348623157e308, 0.0, -1.0, math.inf, math.nan]))


def load_schema(name):
    path = importlib.resources.files("chainent") / "schemas" / name
    return json.loads(path.read_text())


class TestParsing:
    def test_int_values(self):
        assert cli.parse_int_values("3") == [3]
        assert cli.parse_int_values("1..4") == [1, 2, 3, 4]
        assert cli.parse_int_values("5,1..3,2") == [1, 2, 3, 5]

    def test_float_values(self):
        assert cli.parse_float_values("0.5") == [0.5]
        assert cli.parse_float_values("0.1,0.9") == [0.1, 0.9]
        assert cli.parse_float_values("0..1:3") == [0.0, 0.5, 1.0]
        for text in ("-0", "-0,0", "0,-0", "-0..-0:2"):
            [zero] = cli.parse_float_values(text)
            assert math.copysign(1.0, zero) == 1.0

    @pytest.mark.parametrize("text", ["", "a", "3..1", "0.1..0.9", "1..2:1"])
    def test_rejects_malformed(self, text):
        with pytest.raises(cli.DomainError):
            cli.parse_float_values(text) if ":" in text or "." in text \
                else cli.parse_int_values(text)

    @pytest.mark.parametrize("parse,text", [
        (cli.parse_int_values, "1..x"), (cli.parse_int_values, "1,3..1"),
        (cli.parse_int_values, "1.5"), (cli.parse_float_values, "1:2..3"),
        (cli.parse_float_values, "0..1:0"), (cli.parse_float_values, "0.5,"),
        (cli.parse_float_values, "0..inf:3"),
        # finite ends, but a span past the float range: linspace's NaN
        (cli.parse_float_values, "-1e308..1e308:3")])
    def test_rejects_malformed_item(self, parse, text):
        with pytest.raises(cli.DomainError):
            parse(text)

    def test_nan_sorts_last_once(self):
        # a NaN compares false to all: a set and a sort alone would place
        # each one anywhere, and differently from call to call
        for _ in range(20):
            *values, nan = cli.parse_float_values("1,nan,2,-1,nan")
            assert values == [-1.0, 1.0, 2.0] and math.isnan(nan)

    def test_range_up_to_the_grid_bound(self):
        assert len(cli.parse_int_values(f"1..{cli.MAX_GRID}")) == cli.MAX_GRID
        assert len(cli.parse_float_values(f"0..1:{cli.MAX_GRID}")) == \
            cli.MAX_GRID

    @pytest.mark.parametrize("flag,token,count", [
        ("--alphas", "0.5..0.6:100000001", 100000001),
        ("--m", "1..100000000", 100000000),
        ("--d", "0..99999999999999999999", 10**20)])
    def test_range_past_the_grid_bound_is_usage_error(self, capsys, flag,
                                                      token, count):
        # refused from the count alone, before any value is built
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--alphas", "0.5", flag, token])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f": {token!r} holds {count} values, more than 100000\n")

    def test_malformed_list_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--alphas", "0.5", "--m", "1..x"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            "error: argument --m: invalid parse_int_values value: '1..x'\n")


class TestCorrelationsCommand:
    def test_csv_shape(self, capsys):
        assert run(["correlations", "--alpha", "0.9", "--l-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "# chainent-correlations-v1"
        assert lines[1] == "l,g,h"
        assert len(lines) == 5
        l, g, h = lines[2].split(",")
        assert l == "0"
        # 17 significant digits survive a round-trip
        assert float(g) == correlations.correlation_table(0.9, 0).g[0]

    def test_oracle_columns(self, capsys):
        assert run(["correlations", "--alpha", "0.9", "--l-max", "3",
                    "--oracle-n", str(2**16)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "l,g,h,g_fin,h_fin"
        for line in lines[2:]:
            _, g, _, g_fin, _ = line.split(",")
            assert abs(float(g) - float(g_fin)) < 1e-8

    def test_oracle_lags_past_half_ring(self, capsys):
        assert run(["correlations", "--alpha", "0.5", "--l-max", "20",
                    "--oracle-n", "30"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2 + 21

    def test_json_validates(self, capsys):
        assert run(["correlations", "--alpha", "0.5", "--l-max", "4",
                    "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("correlations.schema.json"))

    def test_near_uncoupled_rows(self, capsys):
        assert run(["correlations", "--alpha", "1e-9", "--l-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        row0 = lines[2].split(",")
        assert float(row0[1]) == pytest.approx(0.5, abs=1e-9)
        assert float(row0[2]) == pytest.approx(0.5, abs=1e-9)
        for line in lines[3:]:
            _, g, h = line.split(",")
            assert abs(float(g)) < 1e-9 and abs(float(h)) < 1e-9


class TestSweepCommand:
    def test_rows_sorted_and_complete(self, capsys):
        assert run(["sweep", "--alphas", "0.9,0.5", "--m", "1..2",
                    "--s", "1", "--d", "0,1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "# chainent-sweep-v1"
        assert lines[1] == ",".join(cli.SWEEP_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 8
        keys = [(float(r[0]), int(r[1]), int(r[2]), int(r[3])) for r in rows]
        assert keys == sorted(keys)

    def test_nan_coupling_is_refused_in_one_place(self):
        # the couplings are checked in order, NaN last: 1.5 is refused
        outcomes = {run_captured(["sweep", "--alphas", "1.5,nan,0.5",
                                  "--specs", "1:1:0"]) for _ in range(20)}
        assert outcomes == {(2, "", "chainent: domain error: coupling must "
                                    "satisfy 0 < alpha < 1, got 1.5\n")}

    def test_epsilon_approx_only_for_adjacent_subblocks(self, capsys):
        assert run(["sweep", "--alphas", "0.5", "--m", "1", "--s", "2",
                    "--d", "0,1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        d0 = lines[2].split(",")
        d1 = lines[3].split(",")
        assert d0[-1] != ""
        assert d1[-1] == ""

    def test_byte_identical_across_runs_and_jobs(self, tmp_path):
        args = ["sweep", "--alphas", "0.5,0.9,0.99", "--m", "1..2",
                "--s", "1..3", "--d", "0..2"]
        paths = [tmp_path / f"out{i}.csv" for i in range(2)]
        assert run(args + ["--out", str(paths[0])]) == 0
        assert run(args + ["--out", str(paths[1])]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_validates(self, capsys):
        assert run(["sweep", "--alphas", "0.9", "--m", "1", "--s", "1..2",
                    "--d", "0,2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("sweep.schema.json"))
        by_d = {row["d"]: row for row in payload["rows"] if row["s"] == 1}
        assert by_d[0]["epsilon"] > 0
        assert by_d[2]["epsilon"] == 0.0

    def test_oracle_toggle_passes(self, capsys):
        assert run(["sweep", "--alphas", "0.5", "--m", "1", "--s", "1",
                    "--d", "0", "--oracle-n", str(2**16)]) == 0

    def test_explicit_specs(self, capsys):
        assert run(["sweep", "--alphas", "0.9",
                    "--specs", "2:3:1, 1:2:0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        keys = [tuple(map(int, line.split(",")[1:4])) for line in lines[2:]]
        assert keys == [(1, 2, 0), (2, 3, 1)]

    def test_a_longer_layout_leaves_the_other_rows_alone(self, capsys):
        # G at 3:1:3 and G_AB at 4:1:1 are exact ties at alpha = 0.999; the
        # longer layout lengthens the table, which must move neither row
        outputs = []
        for specs in ("3:1:3,4:1:1", "3:1:3,4:1:1,10:30:5"):
            assert run(["sweep", "--alphas", "0.999", "--specs", specs]) == 0
            outputs.append(capsys.readouterr().out.splitlines())
        short, wide = outputs
        assert len(short) == 4 and wide[:4] == short

    def test_rejects_malformed_specs(self, capsys):
        assert run(["sweep", "--alphas", "0.9", "--specs", "2:3"]) == 2

    def test_domain_error_exit_code(self, capsys):
        assert run(["sweep", "--alphas", "1.5", "--m", "1", "--s", "1",
                    "--d", "0"]) == 2

    GRID = (["--m", "1,3", "--s", "1,2", "--d", "0,2"],
            [BlockSpec(m, s, d)
             for m in (1, 3) for s in (1, 2) for d in (0, 2)])

    @pytest.mark.parametrize("alphas,geometry", [
        ((0.9,), GRID), ((0.3, 0.9, 0.999), GRID),
        ((0.9999,), (["--specs", "1:100:0,4:25:1"],
                     [BlockSpec(1, 100, 0), BlockSpec(4, 25, 1)]))],
        ids=["alphas0", "alphas1", "strong"])
    def test_rows_equal_block_entanglement(self, capsys, monkeypatch, alphas,
                                           geometry):
        calls = []
        original = entanglement._moments

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(entanglement, "_moments", counted)
        flags, specs = geometry
        assert run(["sweep", "--alphas", ",".join(map(repr, alphas)), *flags,
                    "--format", "json"]) == 0
        # one moment pass over every geometry and coupling
        [(gh, layouts)] = calls
        assert gh.shape[0] == len(alphas) and len(layouts) == len(specs)
        monkeypatch.undo()
        rows = json.loads(capsys.readouterr().out)["rows"]
        l_max = max(spec.max_lag for spec in specs)
        expected = []
        for alpha in alphas:
            table = correlations.correlation_table(alpha, l_max)
            for spec in specs:
                res = entanglement.block_entanglement(table, spec)
                approx = None if spec.d else entanglement.approx_negativity(
                    table.g[0], table.g[1], table.h[0], table.h[1],
                    n=spec.n, m=spec.m)
                expected.append({
                    "alpha": alpha, "m": spec.m, "s": spec.s, "d": spec.d,
                    "n": spec.n, "G": res.cov.g_diag, "H": res.cov.h_diag,
                    "G_AB": res.cov.g_cross, "H_AB": res.cov.h_cross,
                    "delta1": res.delta1, "delta2": res.delta2,
                    "epsilon": res.epsilon, "Delta": res.duan,
                    "epsilon_approx": approx})
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            assert row == want

    def test_many_subblocks_are_counted(self, capsys):
        # lag counting has no bound of its own beyond the layout's span
        spec = BlockSpec(6001, 1, 0)
        assert run(["sweep", "--alphas", "0.5", "--specs", spec.as_text(),
                    "--format", "json"]) == 0
        [row] = json.loads(capsys.readouterr().out)["rows"]
        res = entanglement.block_entanglement(
            correlations.correlation_table(0.5, spec.max_lag), spec)
        expected = {"G": res.cov.g_diag, "H": res.cov.h_diag,
                    "G_AB": res.cov.g_cross, "H_AB": res.cov.h_cross,
                    "delta1": res.delta1, "delta2": res.delta2,
                    "epsilon": res.epsilon, "Delta": res.duan}
        assert {key: row[key] for key in expected} == expected

    def test_convergence_failure_exit_code(self, capsys):
        # z^2 is within 1e-7 of 1: the recurrence would need 4e8 steps
        assert run(["sweep", "--alphas", "0.999999999999999", "--m", "1",
                    "--s", "1", "--d", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chainent: numerical failure: ")
        assert captured.err.count("\n") == 1

    # small rings are far from the infinite chain; at N = 50 the 40 lags
    # checked run past N/2
    @pytest.mark.parametrize("s,oracle_n", [("2", "8"), ("20", "50")])
    def test_oracle_cross_check_failure_exit_code(self, capsys, s, oracle_n):
        assert run(["sweep", "--alphas", "0.5", "--m", "1", "--s", s,
                    "--d", "0", "--oracle-n", oracle_n]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "chainent: numerical failure: oracle cross-check failed")
        assert captured.err.endswith(" > 1e-08\n")
        assert captured.err.count("\n") == 1


    # each coupling's table and oracle table are drawn in turn, so the first
    # coupling that fails raises: its oracle deviation, ahead of a later
    # coupling whose table would raise ConvergenceError, and that table's
    # ConvergenceError past couplings that pass.  P = 1 on the 8-site and
    # the odd ring, P = 8 on the 64-site one
    @pytest.mark.parametrize("alphas,oracle_n,refusal", [
        ("0.5,0.999999999999999", "8", "oracle cross-check failed at "
         "alpha=0.5: max deviation 1.821e-04 > 1e-08"),
        ("0.1,0.99,0.999999999999999", "63", "oracle cross-check failed at "
         "alpha=0.99: max deviation 2.681e-05 > 1e-08"),
        ("0.1,0.99,0.999999999999999", "64", "oracle cross-check failed at "
         "alpha=0.99: max deviation 2.308e-05 > 1e-08"),
        ("0.1,0.5,0.999999999999999", "63", "backward recurrence needs "
         "410894159 steps past l_max, more than 3000000 "
         "(alpha=0.999999999999999); alpha is too close to 1")])
    def test_oracle_check_raises_the_first_failing_coupling(
            self, capsys, alphas, oracle_n, refusal):
        assert run(["sweep", "--alphas", alphas, "--specs", "1:2:0",
                    "--oracle-n", oracle_n]) == 3
        assert capsys.readouterr() == (
            "", f"chainent: numerical failure: {refusal}\n")


class TestFieldCommand:
    def test_rows(self, capsys):
        assert run(["field", "--mass", "1", "--length", "1",
                    "--r", "0,2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("field.schema.json"))
        r0, r2 = payload["rows"]
        assert r0["epsilon"] is None
        assert r0["D_pi0"] == math.inf
        assert r0["D_phi0"] * r0["D_pi0"] >= 0.25
        assert r2["epsilon"] == 0.0
        assert math.isfinite(r2["D_phi_r"]) and math.isfinite(r2["D_pi_r"])

    def test_csv_infinity_cell(self, capsys):
        assert run(["field", "--mass", "1", "--length", "1", "--r", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == ",".join(cli.FIELD_COLUMNS)
        cells = lines[2].split(",")
        assert cells[cli.FIELD_COLUMNS.index("D_pi0")] == "inf"

    def test_domain_error_exit_code(self, capsys):
        assert run(["field", "--mass", "0", "--length", "1", "--r", "2"]) == 2

    def test_either_zero_separation_prints_one_zero(self, capsys):
        # a set of both zeros keeps whichever comes first; every spelling
        # prints the one row of r = 0
        outputs = []
        for r in ("-0", "-0,0", "0,-0"):
            assert run(["field", "--mass", "1", "--length", "1",
                        f"--r={r}"]) == 0
            outputs.append(capsys.readouterr().out.encode())
        assert outputs[0] == outputs[1] == outputs[2]
        row = outputs[0].decode().split("\n")[2].split(",")
        assert row[cli.FIELD_COLUMNS.index("r")] == "0"

    def test_one_separated_window_evaluation_per_grid(self, capsys,
                                                      monkeypatch):
        calls = []
        original = field._separated

        def counted(mu, rho, gap):
            calls.append(rho.size)
            return original(mu, rho, gap)

        monkeypatch.setattr(field, "_separated", counted)
        assert run(["field", "--mass", "1", "--length", "1",
                    "--r", "0,0.5,1,1.05..20:40"]) == 0
        # every separation past L in one call; r <= L on the closed forms
        assert calls == [40]
        assert capsys.readouterr().out.count("\n") == 2 + 43

    def test_one_overlapping_window_evaluation_per_grid(self, capsys,
                                                        monkeypatch):
        calls = []
        original = field._overlapping

        def counted(mu, rho, rest):
            calls.append(rho.size)
            return original(mu, rho, rest)

        monkeypatch.setattr(field, "_overlapping", counted)
        assert run(["field", "--mass", "1", "--length", "1",
                    "--r", "0,0.5,1,1.05..20:40"]) == 0
        # D_phi(0), then every separation up to L in one call
        assert calls == [1, 3]
        assert capsys.readouterr().out.count("\n") == 2 + 43

    def test_refusal_takes_no_work_per_row(self, capsys, monkeypatch):
        # a grid refused at its last row takes one pass over the rows
        # before it, not one evaluation per row
        calls = {name: [] for name in ("field_negativity", "field_covariance",
                                       "d_phi", "_separated")}
        for name, sizes in calls.items():
            def counted(*args, _original=getattr(field, name), _sizes=sizes):
                _sizes.append(np.size(args[-1]))
                return _original(*args)

            monkeypatch.setattr(field, name, counted)
        assert run(["field", "--mass", "1", "--length", "1",
                    "--r", "1.05..20:40,inf"]) == 2
        assert capsys.readouterr() == ("", "chainent: domain error: "
                                       "separation must be a finite real, "
                                       "got inf\n")
        assert calls == {"field_negativity": [], "field_covariance": [],
                         "d_phi": [1], "_separated": [40]}

    @staticmethod
    def first_refusal(mass, length, separations):
        """stderr and exit code of a per-separation loop over the grid, or
        None where every separation has a row"""
        for r in separations:
            try:
                spec = field.FieldRegionSpec(mass, length, r)
                if r > length:
                    field.field_negativity(spec)
                else:
                    field.field_covariance(spec)
            except DomainError as exc:
                return f"chainent: domain error: {exc}\n", 2
            except ChainentError as exc:
                return f"chainent: numerical failure: {exc}\n", 3
        return None

    @pytest.mark.parametrize("mass,length,r,refused", [
        ("-1", "1", "2", "mass must be positive"),
        ("0", "1", "nan", "separation must be a finite real, got nan"),
        ("1", "1", "1,nan,2", "separation must be a finite real, got nan"),
        # a numerical failure before a separation FieldRegionSpec refuses
        ("1", "1e-300", "2e-300,1e300,inf", "m L = 1e-300, r/L = inf "),
        ("1", "1e300", "0,1e-300", "m L = 1e+300, r/L = 0.0 "),
        # overlapping and separated windows past the float range
        ("1", "1e-310", "0,1e-311,3e-310", "D_pi evaluated to inf "),
        ("1", "5e-324", "0,5e-324,1e-323", "D_pi evaluated to -inf ")],
        ids=["mass", "nan", "nan-inside", "inf-last", "r/L-underflow",
             "overlap-overflow", "separated-overflow"])
    def test_grid_refuses_its_first_bad_separation(self, capsys, mass,
                                                   length, r, refused):
        expected, code = self.first_refusal(
            float(mass), float(length), cli.parse_float_values(r))
        assert refused in expected
        assert run(["field", "--mass", mass, "--length", length,
                    f"--r={r}"]) == code
        assert capsys.readouterr() == ("", expected)

    @given(mass=SCALES, length=SCALES, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_grid_refuses_as_a_loop_over_its_rows(self, mass, length, data):
        # overlapping, touching, nearly touching and separated windows,
        # separations past the float range and ones FieldRegionSpec refuses
        pool = [0.0, length, math.nextafter(length, math.inf), 5e-324,
                1e-310, 1e300, 1.7976931348623157e308, math.inf, -math.inf,
                math.nan, -1.0, 0.5 * length, 3.0 * length]
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                   max_size=6))
        text = ",".join(map(repr, picks))
        refusal = self.first_refusal(mass, length,
                                     cli.parse_float_values(text))
        code, out, err = run_captured(["field", f"--mass={mass!r}",
                                      f"--length={length!r}", f"--r={text}"])
        if refusal is None:
            assert (code, err) == (0, "")
        else:
            assert (err, code) == refusal and out == ""

    @pytest.mark.parametrize("flag,value", [("--r", "nan"), ("--mass", "inf"),
                                            ("--length", "inf")])
    def test_non_finite_input_is_domain_error(self, capsys, flag, value):
        options = {"--mass": "1", "--length": "1", "--r": "2", flag: value}
        argv = ["field"] + [item for pair in options.items() for item in pair]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chainent: domain error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("mass,length,r", [("3e-200", "2e200", "1.98e200"),
                                               ("1e300", "1e-300", "2e-300")])
    def test_extreme_scales_give_finite_rows(self, capsys, mass, length, r):
        assert run(["field", "--mass", mass, "--length", length,
                    "--r", r]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        cells = captured.out.strip().split("\n")[2].split(",")
        for column in ("D_phi0", "D_phi_r", "D_pi_r"):
            assert math.isfinite(float(cells[cli.FIELD_COLUMNS.index(column)]))

    def test_tiny_mass(self, capsys):
        assert run(["field", "--mass", "1e-6", "--length", "1", "--r", "2"]) == 0
        cells = capsys.readouterr().out.strip().split("\n")[2].split(",")
        d_phi_r = float(cells[cli.FIELD_COLUMNS.index("D_phi_r")])
        assert d_phi_r == pytest.approx(2.1104383920873174, rel=1e-10)


#: validate's chain-cutoffs layouts in report order, each with its detail
#: when its verdict is wrong
CUTOFFS = ([((1, n, 0), f"expected entanglement at d=0, n={n}, alpha=0.9")
            for n in range(1, 7)]
           + [((1, 1, 1), "expected no entanglement at d=1, n=1")]
           + [((1, n, 2), f"expected no entanglement at d=2, n={n}")
              for n in range(1, 11)])


class TestValidateCommand:
    def test_chain_cutoffs_equal_block_entanglement(self, monkeypatch):
        # one verdict over every layout, each equal to its own
        table = correlations.correlation_table(0.9, 80)
        want = [entanglement.block_entanglement(table, BlockSpec(*layout))
                .epsilon for layout, _ in CUTOFFS]
        verdicts = []
        verdict = entanglement._verdict
        monkeypatch.setattr(entanglement, "_verdict",
                            lambda *args: verdicts.append(verdict(*args))
                            or verdicts[-1])
        assert cli._check_chain_cutoffs(2**20)[0]
        [(_, _, epsilon, _)] = verdicts
        assert epsilon.tolist() == want

    @pytest.mark.parametrize("wrong", [0, 5, 6, 7, 16])
    def test_chain_cutoffs_name_the_first_wrong_verdict(self, wrong,
                                                        monkeypatch):
        verdict = entanglement._verdict

        def flipped(*args):
            d1, d2, epsilon, duan = verdict(*args)
            epsilon[wrong] = 0.0 if epsilon[wrong] else 1.0
            return d1, d2, epsilon, duan

        monkeypatch.setattr(entanglement, "_verdict", flipped)
        assert cli._check_chain_cutoffs(2**20) == (False, CUTOFFS[wrong][1])

    def test_passes_on_clean_build(self, capsys):
        assert run(["validate", "--oracle-n", str(2**16)]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "FAIL" not in out

    def test_small_oracle_ring_fails_the_check(self, capsys):
        # the 51 lags compared run past N/2 = 30
        assert run(["validate", "--oracle-n", "60"]) == 1
        assert "[FAIL] oracle-equivalence" in capsys.readouterr().out

    def test_json_report_validates(self, capsys):
        assert run(["validate", "--oracle-n", str(2**16),
                    "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("validate.schema.json"))
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} == {
            name for name, _ in cli.VALIDATION_CHECKS}

    def test_corrupted_correlation_fails(self, capsys, monkeypatch):
        original = correlations.correlation_table

        def corrupted(alpha, l_max):
            table = original(alpha, l_max)
            g = table.g.copy()
            g[1] = -g[1]
            return correlations.CorrelationTable(alpha=table.alpha, g=g,
                                                 h=table.h)

        monkeypatch.setattr(correlations, "correlation_table", corrupted)
        assert run(["validate", "--oracle-n", str(2**16)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] oracle-equivalence" in out


class TestOutputFile:
    @pytest.mark.parametrize("argv,code", [
        (["correlations", "--alpha", "0.9", "--l-max", "5"], 0),
        (["sweep", "--alphas", "0.5,0.9", "--m", "1..2", "--s", "1..2",
          "--d", "0,1", "--format", "json"], 0),
        (["field", "--mass", "1", "--length", "1", "--r", "0.5,2"], 0),
        (["validate", "--oracle-n", str(2**16)], 0),
        (["validate", "--oracle-n", str(2**16), "--report", "json"], 0),
        (["validate", "--oracle-n", "60"], 1)],
        ids=["correlations", "sweep-json", "field", "validate-text",
             "validate-json", "validate-failing"])
    def test_out_bytes_equal_stdout(self, capsys, tmp_path, argv, code):
        assert run(argv) == code
        stdout = capsys.readouterr().out
        target = tmp_path / "out.txt"
        assert run(argv + ["--out", str(target)]) == code
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode("utf-8")

    @pytest.mark.parametrize("argv,code", [
        (["sweep", "--alphas", "1.5"], 2),
        (["sweep", "--alphas", "0.5", "--m", "1", "--s", "20", "--d", "0",
          "--oracle-n", "50"], 3),
        (["correlations", "--alpha", "0.999999999999999"], 3)],
        ids=["domain-error", "oracle-cross-check", "alpha-next-to-one"])
    def test_failed_run_writes_no_file(self, capsys, tmp_path, argv, code):
        target = tmp_path / "out.txt"
        assert run(argv + ["--out", str(target)]) == code
        assert not target.exists()

    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        assert run(["field", "--mass", "1", "--length", "1", "--r", "2",
                    "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("chainent: ")
        assert captured.err.count("\n") == 1
        assert not target.parent.exists()


class TestCsvJsonAgree:
    """The two renderers check each other: every CSV cell parses to exactly
    the JSON cell, sign of zero included, and an empty cell is null."""

    @pytest.mark.parametrize("argv", [
        ["correlations", "--alpha", "0.9", "--l-max", "6", "--oracle-n",
         "4096"],
        ["sweep", "--alphas", "0.3,0.9", "--m", "1..3", "--s", "1..4",
         "--d", "0..2"],
        # the field pin's separations: r <= L has no epsilon
        ["field", "--mass", "1", "--length", "1", "--r",
         "0,0.5,1,1.05,2,20"]],
        ids=lambda argv: argv[0])
    def test_cells_agree(self, capsys, argv):
        assert run(argv) == 0
        columns, *lines = capsys.readouterr().out.splitlines()[1:]
        assert run(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == len(lines)
        for line, row in zip(lines, rows):
            assert list(row) == columns.split(",")
            for cell, value in zip(line.split(","), row.values()):
                if value is None:
                    assert cell == ""
                    continue
                assert float(cell) == value
                assert math.copysign(1.0, float(cell)) == math.copysign(
                    1.0, value)
                if isinstance(value, int):
                    assert cell == str(value)
        values = [value for row in rows for value in row.values()]
        if argv[0] != "correlations":
            assert None in values  # epsilon_approx at d > 0, epsilon at r <= L
            assert 0.0 in values   # a separable epsilon
        if argv[0] == "field":
            assert math.inf in values  # JSON Infinity


#: floats whose text is easy to get wrong: both zeros, subnormals, the
#: smallest normal, the infinities and the largest float
EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               math.inf, -math.inf, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 3.0]


@st.composite
def render_columns(draw):
    """Columns of one length, each of one kind: Python ints up to 10**18,
    floats, np.float64 cells, or floats with None (empty) cells; each as a
    list or an array."""
    rows = draw(st.integers(0, 12))
    floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False))
    kinds = {"int": st.integers(-10**18, 10**18), "float": floats,
             "np.float64": floats.map(np.float64),
             "empty": st.one_of(st.none(), floats)}
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(kinds)), min_size=1,
                              max_size=5)):
        column = draw(st.lists(kinds[kind], min_size=rows, max_size=rows))
        if draw(st.booleans()):
            column = np.array(column, dtype=object if kind == "empty"
                              else None)
        columns.append(column)
    return columns


class TestRenderCsv:
    @staticmethod
    def per_cell(schema_tag, columns, rows):
        # the former renderer: one formatting call per cell
        def fmt(value):
            if value is None:
                return ""
            if isinstance(value, int):
                return str(value)
            return f"{float(value):.17g}"

        lines = [f"# {schema_tag}", ",".join(columns)]
        lines += [",".join(map(fmt, row)) for row in rows]
        return "\n".join(lines) + "\n"

    @staticmethod
    def rows(cells):
        # a cell as its column holds it, an array's as a Python value
        return zip(*(c.tolist() if isinstance(c, np.ndarray) else c
                     for c in cells))

    @given(cells=render_columns())
    @settings(max_examples=300)
    def test_columns_match_the_per_cell_formatter(self, cells):
        columns = [f"c{i}" for i in range(len(cells))]
        assert cli.render_csv("tag", columns, cells) == self.per_cell(
            "tag", columns, self.rows(cells))
        rows = json.loads(cli.render_json("tag", columns, cells))["rows"]
        assert rows == [dict(zip(columns, row)) for row in self.rows(cells)]

    def test_signed_zeros_print_apart(self):
        # equal values with two bit patterns: grouping by value would print
        # every zero as the first one's text
        cells = [[0.0, -0.0, 0.0, -0.0], np.array([-0.0, 0.0, None, -0.0])]
        assert cli.render_csv("t", ["x", "y"], cells) == (
            "# t\nx,y\n0,-0\n-0,0\n0,\n-0,-0\n")

    def test_edge_cells_match_the_per_cell_formatter(self):
        # each edge value in a column of its own kind
        cells = [[0, 10**18, -10**18, 7],
                 [3.0, -0.0, 0.0, 0.1],
                 np.array([math.inf, -math.inf, 5e-324,
                           1.7976931348623157e308]),
                 [np.float64(0.1), np.float64(-0.0), np.float64(1e-310),
                  np.float64(0.1)],
                 np.array([None, 2.5, None, -math.inf])]
        columns = [f"c{i}" for i in range(len(cells))]
        text = cli.render_csv("tag", columns, cells)
        assert text == self.per_cell("tag", columns, self.rows(cells))
        assert text.splitlines()[2:] == [
            "0,3,inf,0.10000000000000001,",
            "1000000000000000000,-0,-inf,-0,2.5",
            "-1000000000000000000,0,4.9406564584124654e-324,"
            "9.9999999999999694e-311,",
            "7,0.10000000000000001,1.7976931348623157e+308,"
            "0.10000000000000001,-inf"]

    def test_single_column_and_no_rows(self):
        assert cli.render_csv("t", ["x"], [[None, 2.5, None]]) == (
            "# t\nx\n\n2.5\n\n")
        assert cli.render_csv("t", ["x"], [range(3)]) == "# t\nx\n0\n1\n2\n"
        assert cli.render_csv("t", ["x"], [[None]]) == "# t\nx\n\n"
        assert cli.render_csv("t", ["x", "y"], [[], []]) == "# t\nx,y\n"
        assert cli.render_csv("t", ["x", "y"], [
            np.array([], dtype=np.int64), np.array([])]) == "# t\nx,y\n"
        assert cli.render_json("t", ["x", "y"], [[], []]) == (
            '{\n  "schema": "t",\n  "rows": []\n}\n')


def kernel_text(values) -> list[str]:
    """The text of each float of `values` through `_float_slots`' vectorised
    kernel, its NULs squeezed out."""
    rows = render._float_slots(np.asarray(values, dtype=float), True)
    lines = np.concatenate((rows, np.full((len(rows), 1), ord("\n"),
                                          np.uint8)), axis=1)
    return str(lines[lines != 0], "ascii").splitlines()


def near_ties(e: int, offsets) -> list[float]:
    """Doubles x = M 2^E of decimal exponent e whose scaled x 10^(16 - e)
    has the fractional part (b // 2 + offset) / b, b the denominator of
    2^E 10^(16 - e): ties or near-ties of the 17th digit."""
    exponent = math.frexp(3 * 10.0**e)[1] - 53
    scale = Fraction(2)**exponent * Fraction(10)**(16 - e)
    a, b = scale.numerator, scale.denominator
    assert b < 2**52
    ties = []
    for offset in offsets:
        mantissa = 2**52 + ((b // 2 + offset) * pow(a, -1, b) - 2**52) % b
        x = math.ldexp(mantissa, exponent)
        scaled = Fraction(x) * Fraction(10)**(16 - e)
        assert 10**16 <= scaled < 10**17
        assert abs(scaled - math.floor(scaled) - Fraction(1, 2)) < 2**-20
        ties.append(x)
    return ties


class TestFloatKernel:
    """`_float_slots`' vectorised %.17g against Python's, value by value."""

    @staticmethod
    def check(values):
        values = np.asarray(values, dtype=float)
        assert kernel_text(values) == ["%.17g" % v for v in values.tolist()]

    def test_random_bit_patterns(self):
        # every binary exponent, so subnormals, inf and NaN too
        rng = np.random.default_rng(30)
        bits = rng.integers(0, 2**64 - 1, 10**5, dtype=np.uint64,
                            endpoint=True)
        self.check(np.concatenate((bits.view(np.float64), EDGE_FLOATS,
                                   [math.nan, -math.nan])))

    def test_random_values_of_every_decimal_exponent(self):
        rng = np.random.default_rng(31)
        exponents = rng.integers(-300, 301, 10**5)
        values = rng.uniform(1, 10, exponents.size) * 10.0**exponents
        self.check(values * rng.choice([-1, 1], values.size))

    def test_powers_of_ten_and_their_neighbours(self):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        self.check(np.concatenate((
            powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf),
            -powers)))

    # a log10 biased by 1e-12 puts e one off next to each power of ten, or
    # keeps it for the doubles just below one whose 17 digits round up to
    # 10^17 (as at 1e-243 and 1e98); at 0.5 half of all floats are off
    @pytest.mark.parametrize("bias", [-1e-12, 1e-12, -0.5, 0.5])
    def test_a_wrong_decimal_exponent_takes_the_fallback(self, monkeypatch,
                                                         bias):
        powers = np.array([float(f"1e{k}") for k in range(-290, 300)])
        values = np.concatenate((powers, np.nextafter(powers, 0),
                                 np.nextafter(powers, math.inf),
                                 powers * (1 - 1e-13), powers * 1.5))
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + bias)
        self.check(values)

    # %g prints e from -4 to 16 in fixed notation, with e+XX past them and
    # e+XXX from 100 on
    @pytest.mark.parametrize("e", [-5, -4, -1, 0, 1, 15, 16, 17, 99, 100,
                                   -99, -100, 299, -290])
    def test_both_sides_of_each_form_switch(self, e):
        rng = np.random.default_rng(e + 1000)
        mantissas = np.concatenate((rng.uniform(1, 10, 2000),
                                    [1, 1.5, 2.5, 9.5, 9.75, 9.999]))
        values = mantissas * 10.0**e
        # and values with few digits, whose trailing zeros are not printed
        short = np.array([round(m, digits) for m, digits in zip(
            mantissas[:200].tolist(), rng.integers(0, 6, 200).tolist())]
                         ) * 10.0**e
        self.check(np.concatenate((values, -values, short)))

    def test_near_ties_take_the_fallback(self, monkeypatch):
        # exact ties at e = 0 and -1 (17 fractional bits make 18 digits
        # ending in 5), near-ties within 1e-10 of a half at e = 0 and 30
        ties = ([(2**17 + a) / 2**17 for a in (1, 3, 5, 77, 2**16 + 1)]
                + [(2**17 + a) / 2**18 for a in (1, 3, 4097)]
                + near_ties(0, (-2, -1, 1, 2)) + near_ties(30, (-1, 0, 1)))
        fallback = []
        kernel = render._float_slots

        def spy(values, vectorise):
            if not vectorise:
                fallback.extend(values.tolist())
            return kernel(values, vectorise)

        monkeypatch.setattr(render, "_float_slots", spy)
        self.check(ties + [-tie for tie in ties] + [0.1, 1.5, 3e30])
        assert set(ties) <= set(fallback) and 0.1 not in fallback

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_tables_either_side_of_the_chunk(self, offset):
        rows = render.RENDER_CHUNK + offset
        rng = np.random.default_rng(rows)
        scale = 10.0**rng.integers(-8, 20, rows)
        cells = [rng.standard_normal(rows) * scale, rng.integers(-5, 5, rows),
                 np.where(rng.random(rows) < 0.3, None,
                          rng.standard_normal(rows)),
                 np.round(rng.standard_normal(rows), 2) * 0.0]
        columns = [f"c{i}" for i in range(len(cells))]
        assert cli.render_csv("t", columns, cells) == TestRenderCsv.per_cell(
            "t", columns, TestRenderCsv.rows(cells))

    @given(cells=render_columns())
    @settings(max_examples=200)
    def test_vectorised_columns_match_the_per_cell_formatter(self, cells):
        columns = [f"c{i}" for i in range(len(cells))]
        with mock.patch.object(render, "RENDER_CROSSOVER", 0):
            text = cli.render_csv("tag", columns, cells)
        assert text == TestRenderCsv.per_cell("tag", columns,
                                              TestRenderCsv.rows(cells))


class TestFlagInventory:
    # every option a subcommand accepts; a new flag must be added here
    OPTIONS = {
        "correlations": [("--alpha",), ("--l-max",), ("--oracle-n",),
                         ("--format",), ("--out",)],
        "sweep": [("--alphas", "--alpha"), ("--m",), ("--s",), ("--d",),
                  ("--specs",), ("--oracle-n",), ("--format",), ("--out",)],
        "field": [("--mass",), ("--length",), ("--r",), ("--format",),
                  ("--out",)],
        "validate": [("--report",), ("--oracle-n",), ("--out",)],
    }

    def test_each_subcommand_has_exactly_its_options(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        found = {name: [tuple(a.option_strings) for a in p._actions
                        if a.option_strings and a.dest != "help"]
                 for name, p in sub.choices.items()}
        assert found == self.OPTIONS
        assert sum(map(len, found.values())) == 21


class TestParserReuse:
    """`main` builds its parser once per process; every call parses as a
    fresh `build_parser()` would."""

    SEQUENCE = (
        ["sweep", "--alphas", "0.5", "--m", "1..2", "--s", "1..3"],
        ["sweep", "--alphas", "0.5"],
        ["sweep", "--alphas", "0.5,0.9", "--specs", "1:2:0",
         "--format", "json"],
        ["sweep", "--alphas", "0.5", "--d", "1"],
        ["field", "--mass", "1", "--length", "1", "--r", "0,2"],
        ["sweep", "--alphas", "0.5", "--frobnicate"],
        ["validate", "--oracle-n", "4096"],
        ["correlations", "--alpha", "0.5", "--l-max", "3", "--format",
         "json"],
        ["correlations", "--alpha", "0.5", "--l-max", "3"],
        ["sweep", "--alphas", "0.5", "--m", "2"],
    )

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    def test_calls_in_one_process_equal_fresh_parsers(self, capsys,
                                                      monkeypatch):
        with monkeypatch.context() as fresh:
            fresh.setattr(cli, "_parser", cli.build_parser)
            want = [self.outcome(argv, capsys) for argv in self.SEQUENCE]
        got = [self.outcome(argv, capsys) for argv in self.SEQUENCE]
        assert got == want
        assert [code for code, *_ in got] == [0] * 5 + [2] + [0] * 4
        assert cli._parser() is cli._parser()

    def test_no_default_is_mutable(self):
        parser = cli._parser()
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        defaults = [action.default for p in sub.choices.values()
                    for action in p._actions]
        assert (1,) in defaults and (0,) in defaults
        assert not any(isinstance(value, (list, dict, set))
                       for value in defaults)


class TestBenchmarkContract:
    # perfbench records the backend and refuses to compare across a change
    def test_kernel_backend_is_pure(self):
        assert chainent.KERNEL_BACKEND == "pure"


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["correlations", "--alpha", "0.5"],
        ["sweep", "--alphas", "0.5"],
        ["validate"]])
    @pytest.mark.parametrize("oracle_n", ["0", "1", "-5"])
    def test_oracle_n_below_two_is_usage_error(self, capsys, argv, oracle_n):
        assert run(argv + ["--oracle-n", oracle_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chainent: domain error: --oracle-n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,lag", [
        (["correlations", "--alpha", "0.5", "--l-max", "20", "--oracle-n",
          "20"], 20),
        (["sweep", "--alphas", "0.5", "--m", "1", "--s", "30", "--d", "0",
          "--oracle-n", "50"], 59),
        (["sweep", "--alphas", "0.5", "--m", "1", "--s", "60", "--d", "0",
          "--oracle-n", "100"], 100),
        (["validate", "--oracle-n", "30"], 50)], ids=lambda v: str(v))
    def test_oracle_n_below_the_lags_compared(self, capsys, monkeypatch,
                                              argv, lag):
        def no_work(*args, **kwargs):
            raise AssertionError("--oracle-n is checked before any table")

        monkeypatch.setattr(correlations, "correlation_table", no_work)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"chainent: domain error: --oracle-n must be >= {lag + 1} sites "
            f"to compare lags up to {lag}, got {argv[-1]}\n")

    @pytest.mark.parametrize("argv", [
        ["correlations", "--alpha", "0.5", "--l-max", "3"],
        ["sweep", "--alphas", "0.5"],
        ["validate"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("oracle_n", [str(2**24 + 1), str(2**40)])
    def test_oracle_n_above_the_cap_is_usage_error(self, capsys, monkeypatch,
                                                   argv, oracle_n):
        def no_work(*args, **kwargs):
            raise AssertionError("--oracle-n is checked before any table")

        monkeypatch.setattr(correlations, "correlation_table", no_work)
        assert run(argv + ["--oracle-n", oracle_n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"chainent: domain error: --oracle-n must be <= 16777216 sites, "
            f"got {oracle_n}\n")

    @pytest.mark.parametrize("argv,message", [
        (["sweep", "--alphas", "0.1..0.9:1000", "--m", "1..101"],
         "sweep of 101000 rows, more than 100000"),
        (["sweep", "--alphas", "0.5", "--specs", "1:100000000:0"],
         "block spec 1:100000000:0 spans 200000000 sites, more than "
         "4194304"),
        (["sweep", "--alphas", "0.5", "--d", "4194303"],
         "block spec 1:1:4194303 spans 4194305 sites, more than 4194304"),
        (["correlations", "--alpha", "0.5", "--l-max", "4194304"],
         "l_max must be < 4194304, got 4194304"),
        (["sweep", "--alphas", "0.1..0.9:1000", "--specs", "1:1000000:0"],
         "sweep of 1000 tables of 2000000 lags, more than 4194304 lags in "
         "all"),
        (["sweep", "--alphas", "0.5,0.6", "--specs", "1:1048577:0"],
         "sweep of 2 tables of 2097154 lags, more than 4194304 lags in all")],
        ids=["rows", "span", "span-edge", "l-max", "sweep-lags",
             "sweep-lags-edge"])
    def test_size_past_its_bound_is_usage_error(self, capsys, monkeypatch,
                                                argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("sizes are checked before any table")

        monkeypatch.setattr(correlations, "_reduced_coupling", no_work)
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"chainent: domain error: {message}\n"

    @staticmethod
    def first_refusal(ms, ss, ds):
        # the former grid: one BlockSpec per layout, in (m, s, d) order
        try:
            for m in ms:
                for s in ss:
                    for d in ds:
                        BlockSpec(m, s, d)
        except DomainError as exc:
            return f"chainent: domain error: {exc}\n"
        raise AssertionError("every layout of the grid is valid")

    @pytest.mark.parametrize("flags,refused", [
        (["--m", "0..2"], "m must be an integer >= 1, got 0"),
        (["--s", "0,1"], "s must be an integer >= 1, got 0"),
        (["--d=-1,0"], "d must be an integer >= 0, got -1"),
        (["--m", "0,5", "--s", "0", "--d=-3"], "m must be"),
        (["--m", "1,2", "--s", "1,3000000"], "block spec 1:3000000:0 "),
        # the first layout past the cap in order is not the largest one
        (["--m", "1..3", "--s", "1,700000,1000000", "--d", "0,1"],
         "block spec 3:700000:0 "),
        (["--m", "1,2", "--s", "1048576", "--d", "0,1"],
         "block spec 2:1048576:1 "),
        # spans past int64: 2 m s overflows, and m past any int64
        (["--m", "3037000500", "--s", "3037000500"],
         "block spec 3037000500:3037000500:0 "),
        (["--m", "1", "--d", "0,1,10000000000000000000000"],
         "block spec 1:1:10000000000000000000000 ")],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_grid_refuses_its_first_bad_layout(self, capsys, monkeypatch,
                                               flags, refused):
        def no_work(*args, **kwargs):
            raise AssertionError("layouts are checked before any table")

        monkeypatch.setattr(correlations, "_reduced_coupling", no_work)
        args = cli.build_parser().parse_args(["sweep", "--alphas", "0.5",
                                              *flags])
        expected = self.first_refusal(args.m, args.s, args.d)
        assert expected.startswith(f"chainent: domain error: {refused}")
        assert run(["sweep", "--alphas", "0.5", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == expected

    @pytest.mark.parametrize("specs", ["", ","], ids=["empty", "comma"])
    def test_empty_specs_is_usage_error(self, capsys, specs):
        # an empty list names no block, not the default --m/--s/--d grid
        assert run(["sweep", "--alphas", "0.5", "--specs", specs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("chainent: domain error: block spec must be "
                                "'m:s:d', got ''\n")

    def test_alpha_next_to_one_is_numerical_failure(self, capsys):
        assert run(["correlations", "--alpha", "0.999999999999999"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("chainent: numerical failure: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv,refusal", [
        (["field", "--mass", "1", "--length", "1", "--r", "-0,0"], None),
        (["field", "--mass", "1", "--length", "1", "--r", "-0.5..2:3"],
         "separation must be >= 0, got -0.5"),
        (["field", "--mass", "-1e-3", "--length", "1", "--r", "2"],
         "mass must be positive (the massless window-averaged field is "
         "infrared-divergent), got -0.001"),
        (["correlations", "--alpha", "-1e-3"],
         "coupling must satisfy 0 < alpha < 1, got -0.001"),
        (["sweep", "--alphas", "0.5", "--d", "-1..0"],
         "d must be an integer >= 0, got -1"),
        (["sweep", "--alphas", "0.5", "--specs", "-1:1:0"],
         "m must be an integer >= 1, got -1")],
        ids=["r-list", "r-range", "mass", "alpha", "d-range", "specs"])
    def test_value_starting_with_a_dash(self, capsys, argv, refusal):
        # a value token after its flag reads as after --flag=
        i = next(i for i, token in enumerate(argv)
                 if token.startswith("-") and not token.startswith("--"))
        joined = argv[:i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
        outputs = []
        for spelling in (argv, joined):
            code = run(spelling)
            outputs.append((code, *capsys.readouterr()))
        assert outputs[0] == outputs[1]
        if refusal is None:
            assert outputs[0][0] == 0 and outputs[0][2] == ""
            assert outputs[0][1].split("\n")[2].split(",")[2] == "0"
        else:
            assert outputs[0] == (2, "", f"chainent: domain error: {refusal}\n")

    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--alphas", "--m", "1"], "--alphas/--alpha"),
        (["sweep", "--alphas", "0.5", "--m", "-h"], "--m"),
        (["field", "--mass", "1", "--length", "--r", "2"], "--length")])
    def test_option_after_a_value_flag_is_usage_error(self, capsys, argv,
                                                     flag):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: expected one argument\n")

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--alphas", "0.5", "--frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["correlations", "--alpha", "0.5", "--tol", "1e-14"],
        ["correlations", "--alpha", "0.5", "--max-terms", "5"],
        ["sweep", "--alphas", "0.5", "--tol", "1e-14"],
        ["sweep", "--alphas", "0.5", "--max-terms", "5"],
        ["sweep", "--alphas", "0.5", "--oracle-tol", "1e-8"],
        ["sweep", "--alphas", "0.5", "--jobs", "2"],
        ["sweep", "--alphas", "0.5", "--l-max", "4"],
        ["validate", "--tol", "1e-2"]], ids=lambda argv: argv[0] + argv[-2])
    def test_removed_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2

    def test_field_has_no_tolerance_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["field", "--mass", "1", "--length", "1", "--r", "2",
                 "--tol", "1e-10"])
        assert err.value.code == 2
