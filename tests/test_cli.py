import argparse
import importlib.resources
import json
import math

import jsonschema
import numpy as np
import pytest

import chainent
from chainent import cli, correlations, entanglement
from chainent.blocks import BlockSpec


def run(argv):
    return cli.main(argv)


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

    @pytest.mark.parametrize("text", ["", "a", "3..1", "0.1..0.9", "1..2:1"])
    def test_rejects_malformed(self, text):
        with pytest.raises(cli.DomainError):
            cli.parse_float_values(text) if ":" in text or "." in text \
                else cli.parse_int_values(text)

    @pytest.mark.parametrize("parse,text", [
        (cli.parse_int_values, "1..x"), (cli.parse_int_values, "1,3..1"),
        (cli.parse_int_values, "1.5"), (cli.parse_float_values, "1:2..3"),
        (cli.parse_float_values, "0..1:0"), (cli.parse_float_values, "0.5,"),
        (cli.parse_float_values, "0..inf:3")])
    def test_rejects_malformed_item(self, parse, text):
        with pytest.raises(cli.DomainError):
            parse(text)

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
        original = entanglement.lag_count_array

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(entanglement, "lag_count_array", counted)
        flags, specs = geometry
        assert run(["sweep", "--alphas", ",".join(map(repr, alphas)), *flags,
                    "--format", "json"]) == 0
        # one count per geometry, shared by every coupling
        assert len(calls) == len(specs)
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


class TestValidateCommand:
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
    @pytest.mark.parametrize("argv", [
        ["correlations", "--alpha", "0.9", "--l-max", "6", "--oracle-n",
         "4096"],
        ["sweep", "--alphas", "0.5", "--m", "1,2", "--s", "2", "--d", "0..2"],
        ["field", "--mass", "1", "--length", "1", "--r", "0,0.5,1,2"]],
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
                elif isinstance(value, int):
                    assert cell == str(value)
                else:
                    assert float(cell) == value
        values = [value for row in rows for value in row.values()]
        if argv[0] != "correlations":
            assert None in values  # epsilon_approx at d > 0, epsilon at r <= L
        if argv[0] == "field":
            assert math.inf in values  # JSON Infinity


class TestRenderCsv:
    EDGE_CELLS = [None, 0, 10**18, 3.0, -0.0, math.inf, -math.inf, 5e-324,
                  1.7976931348623157e308, np.float64(0.1)]

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

    def test_edge_cells_match_the_per_cell_formatter(self):
        columns = [f"c{i}" for i in range(len(self.EDGE_CELLS))]
        # each cell in every column, so every position sees every kind
        rows = [self.EDGE_CELLS[k:] + self.EDGE_CELLS[:k]
                for k in range(len(self.EDGE_CELLS))]
        text = cli.render_csv("tag", columns, rows)
        assert text == self.per_cell("tag", columns, rows)
        assert text.splitlines()[2] == (
            ",0,1000000000000000000,3,-0,inf,-inf,4.9406564584124654e-324,"
            "1.7976931348623157e+308,0.10000000000000001")

    def test_single_column_and_no_rows(self):
        rows = [(None,), [7], (2.5,)]
        assert cli.render_csv("t", ["x"], rows) == "# t\nx\n\n7\n2.5\n"
        assert cli.render_csv("t", ["x"], iter(rows)) == "# t\nx\n\n7\n2.5\n"
        assert cli.render_csv("t", ["x", "y"], []) == "# t\nx,y\n"


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

    def test_subblocks_past_the_counting_bound_is_usage_error(self, capsys):
        assert run(["sweep", "--alphas", "0.5", "--specs", "6001:1:0"]) == 2
        assert capsys.readouterr().err == (
            "chainent: domain error: lag counting takes at most 6000 "
            "subblocks, got m=6001\n")

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
