"""Smoke test of the benchmark harness at tiny sizes.

Checks that every metric BENCHMARK.json names is produced and that the
correctness gate passes good output and rejects wrong output.  It never
looks at how long anything took.
"""

import contextlib
import gzip
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

from perfbench import compare, harness, references, tracing
from perfbench.workloads import WORKLOADS, argvs

harness.check_checkout()    # puts src/ and the root on sys.path

from chainent import cli  # noqa: E402

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: sha256 prefixes of json.dumps(argvs(workload, 1)); a seed must name the
#: same inputs on every commit
SEED_1_ARGVS = {
    "chain": "54c25e9badc08ad4",
    "field": "ee04160b11cac24b",
}


def _names(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_file_matches_harness():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS
    assert _names("end_to_end") == harness.E2E_METRICS
    assert _names("per_layer") == harness.layer_metric_units()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seed_pins_argv(workload):
    digest = hashlib.sha256(json.dumps(argvs(workload, 1)).encode())
    assert digest.hexdigest()[:16] == SEED_1_ARGVS[workload]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_and_gate(workload):
    record = harness.run(workload, seed=1, seconds=0, tiny=True)
    assert record["failed"] == 0, record["problems"]
    line = harness.result_line(record, harness.E2E_METRICS)
    assert line["correct"] and line["attempted"] >= 2 * len(
        record["argvs"])
    for name, metric in line["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


#: per workload, span names it must call and span names it must bypass
LAYER_USE = {
    "chain": (("kernels.hyp2f1_series", "blocks.lag_count_array",
               "correlations.finite_correlation_table",
               "entanglement.collective_symplectic"), ()),
    "field": (("field.d_phi", "field.d_pi"),
              ("kernels.hyp2f1_series", "blocks.lag_count_array")),
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_layer_metrics(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS", tmp_path)
    record = harness.run(workload, seed=1, seconds=0, trace=True, tiny=True)
    assert record["failed"] == 0, record["problems"]
    line = harness.result_line(record, harness.layer_metric_units())
    assert set(line["metrics"]) == set(_names("per_layer"))
    metrics = record["metrics"]
    called, bypassed = LAYER_USE[workload]
    assert all(metrics[f"{name}.calls"] > 0 for name in called)
    assert all(metrics[f"{name}.calls"] == 0 for name in bypassed)
    if workload == "chain":
        assert metrics["blocks.lag_count_array.pairs"] > 0
    assert record["dominant_layer"] in tracing.LAYERS
    spans = Path(record["spans_file"])
    assert spans.parent == tmp_path
    with gzip.open(spans, "rt") as fh:
        header, *rows = [json.loads(line) for line in fh]
    parent = header["fields"].index("parent")
    assert sum(row[parent] == -1 for row in rows) == len(
        record["warm"]["traced_call_s"]) * len(record["argvs"])


def test_gate_rejects_wrong_values():
    argv = argvs("chain", 3, tiny=True)[1]
    ref = references.SweepReference(argv, harness.TINY_REFERENCE_SITES, 3)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    text = buf.getvalue()
    assert ref.check(text) == []

    lines = text.split("\n")

    def with_cell(column, value):
        row = lines[2].split(",")
        row[column] = value
        return "\n".join(lines[:2] + [",".join(row)] + lines[3:])

    g_diag = float(lines[2].split(",")[5])
    wrong_g = with_cell(5, repr(g_diag * (1 + 1e-6)))
    assert any("G=" in p for p in ref.check(wrong_g))
    assert ref.check(with_cell(5, repr(g_diag * (1 + 1e-12)))) == []
    eps = float(lines[2].split(",")[11])
    flipped = with_cell(11, "0" if eps > 0 else "0.5")
    assert any("epsilon" in p for p in ref.check(flipped))
    assert references.check_output(ref, 3, text) == ["exit code 3"]


def test_field_gate_checks_far_separations():
    argv = argvs("field", 7, tiny=True)[0]     # farthest r is 19.89
    ref = references.FieldReference(argv, 0, 7)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    text = buf.getvalue()
    assert ref.check(text) == []
    assert 0 < ref.worst <= 1

    lines = text.split("\n")
    far = lines[-2].split(",")
    assert abs(float(far[6])) < references.FIELD_ATOL
    for wrong in ("0.0", repr(-float(far[6]))):
        row = ",".join(far[:6] + [wrong] + far[7:])
        assert any("D_pi_r" in p for p in ref.check(
            "\n".join(lines[:-2] + [row, ""])))


def test_compare_refuses_another_backend(tmp_path):
    record = {"workload": "field", "trace": False,
              "metrics": {"cli_s": 1.0},
              "env": {"backend": "pure", "cpu_model": "cpu", "nproc": 2,
                      "l2_bytes": 1, "l3_bytes": 1}}
    other = dict(record, env=dict(record["env"], backend="cython"))
    paths = []
    for i, rec in enumerate((record, other)):
        paths.append(tmp_path / f"{i}.txt")
        paths[-1].write_text(json.dumps(rec) + "\n{}\n")
    same = ["--base", str(paths[0]), "--head", str(paths[0])]
    assert compare.main(same) == 0
    mixed = ["--base", str(paths[0]), "--head", str(paths[1])]
    assert compare.main(mixed) == 2
