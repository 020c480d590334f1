import importlib.resources
import json
import math

import jsonschema
import pytest

import chainent
from chainent import cli, correlations


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

    def test_snap(self):
        assert cli._snap(5e-13) == 0.0
        assert cli._snap(5e-12) == 5e-12


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
        assert float(g) == correlations.g_infinite(0, 0.9)

    def test_oracle_columns(self, capsys):
        assert run(["correlations", "--alpha", "0.9", "--l-max", "3",
                    "--oracle-n", str(2**16)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1] == "l,g,h,g_fin,h_fin"
        for line in lines[2:]:
            _, g, _, g_fin, _ = line.split(",")
            assert abs(float(g) - float(g_fin)) < 1e-8

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
        paths = [tmp_path / f"out{i}.csv" for i in range(3)]
        assert run(args + ["--out", str(paths[0])]) == 0
        assert run(args + ["--out", str(paths[1])]) == 0
        assert run(args + ["--jobs", "3", "--out", str(paths[2])]) == 0
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

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

    def test_l_max_too_small_is_usage_error(self, capsys):
        assert run(["sweep", "--alphas", "0.5", "--m", "2", "--s", "3",
                    "--d", "1", "--l-max", "4"]) == 2

    def test_domain_error_exit_code(self, capsys):
        assert run(["sweep", "--alphas", "1.5", "--m", "1", "--s", "1",
                    "--d", "0"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_non_positive_jobs(self, capsys, jobs):
        assert run(["sweep", "--alphas", "0.5,0.9", "--jobs", jobs]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_convergence_failure_exit_code(self, capsys):
        assert run(["sweep", "--alphas", "0.99", "--m", "1", "--s", "1",
                    "--d", "0", "--max-terms", "5"]) == 3


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

    def test_loose_tolerance_still_passes(self, capsys):
        assert run(["validate", "--oracle-n", str(2**16), "--tol", "1e-2"]) == 0

    def test_json_report_validates(self, capsys):
        assert run(["validate", "--oracle-n", str(2**16),
                    "--report", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, load_schema("validate.schema.json"))
        assert payload["passed"] is True
        assert {c["name"] for c in payload["checks"]} == {
            name for name, _ in cli.VALIDATION_CHECKS}

    def test_corrupted_correlation_fails(self, capsys, monkeypatch):
        original = correlations.g_infinite

        def corrupted(l, alpha, **kwargs):
            value = original(l, alpha, **kwargs)
            return -value if l == 1 else value

        monkeypatch.setattr(correlations, "g_infinite", corrupted)
        assert run(["validate", "--oracle-n", str(2**16)]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] oracle-equivalence" in out


class TestOutputFile:
    def test_unwritable_out_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        assert run(["field", "--mass", "1", "--length", "1", "--r", "2",
                    "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("chainent: ")
        assert captured.err.count("\n") == 1
        assert not target.parent.exists()


class TestBenchmarkContract:
    # perfbench records the backend and refuses to compare across a change
    def test_kernel_backend_is_pure(self):
        assert chainent.KERNEL_BACKEND == "pure"

    def test_validate_report_names_the_backend(self, capsys):
        assert run(["validate", "--oracle-n", str(2**16)]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.endswith("(kernel backend: pure)")


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

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["sweep", "--alphas", "0.5", "--frobnicate"])
        assert err.value.code == 2

    def test_field_has_no_tolerance_flag(self):
        with pytest.raises(SystemExit) as err:
            run(["field", "--mass", "1", "--length", "1", "--r", "2",
                 "--tol", "1e-10"])
        assert err.value.code == 2
