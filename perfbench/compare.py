#!/usr/bin/env python3
"""Compare benchmark records of a base and a head commit.

Usage, from the repository root:

    python3 perfbench/compare.py --base base/*.txt --head head/*.txt

Each file is the saved standard output of one `run.py` run, whose line
before the last is the run's full record.  Records from different
machines or kernel backends are refused (exit 2): a compiled backend or
another CPU is a different program to measure.  For each workload and
end-to-end metric it prints the base and head medians with their quartile
spreads, and calls a change worse when the head median is worse than the
base median by more than the bound in BENCHMARK.json, unresolved when the
base's own spread is wider than that bound.  Exits 1 if any change is
worse.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

#: environment keys that must agree before two records are compared
MACHINE_KEYS = ("backend", "cpu_model", "nproc", "l2_bytes", "l3_bytes")
#: keys that are reported when they differ but do not refuse the comparison
VERSION_KEYS = ("python", "numpy", "scipy")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    return [json.loads(Path(p).read_text().strip().split("\n")[-2])
            for p in paths]


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)

    base, head = load(args.base), load(args.head)
    records = base + head
    for key in MACHINE_KEYS:
        seen = {json.dumps(r["env"].get(key)) for r in records}
        if len(seen) > 1:
            print(f"refused: records differ in {key}: {sorted(seen)}",
                  file=sys.stderr)
            return 2
    for key in VERSION_KEYS:
        seen = {r["env"].get(key) for r in records}
        if len(seen) > 1:
            print(f"note: records differ in {key}: {sorted(seen)}")

    bounds = {m["name"]: m for m in
              json.loads(BENCHMARK.read_text())["end_to_end"]}
    worse = False
    print(f"{'workload':14} {'metric':14} {'base':>11} {'spread':>7} "
          f"{'head':>11} {'spread':>7} {'change':>8}  verdict")
    for workload in sorted({r["workload"] for r in records}):
        for name, spec in bounds.items():
            sides = []
            for side in (base, head):
                values = [r["metrics"][name] for r in side
                          if r["workload"] == workload and not r["trace"]
                          and name in r["metrics"]]
                sides.append(values)
            if not all(sides):
                continue
            (b_med, b_spread), (h_med, h_spread) = map(spread, sides)
            change = h_med / b_med - 1.0
            if spec["better"] == "higher":
                change = -change
            if b_spread > spec["bound"]:
                verdict = "unresolved"
            elif change > spec["bound"]:
                verdict, worse = "WORSE", True
            else:
                verdict = "ok"
            print(f"{workload:14} {name:14} {b_med:11.5g} {b_spread:7.3f} "
                  f"{h_med:11.5g} {h_spread:7.3f} {change:+8.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
