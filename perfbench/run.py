#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage, from the repository root:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  The line before it is
the full record (seed, argument lists, samples, environment, failures),
which `compare.py` reads from saved output.  A traced run also writes its
spans to `perfbench/results/`.  Exits 2 without a result when the directory
holds no chainent sources.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness, references  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        record = harness.run(args.workload, args.seed, args.seconds,
                             trace=bool(args.trace))
    except (harness.CheckoutError, references.BrokenReference) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    units = (harness.layer_metric_units() if args.trace
             else harness.E2E_METRICS)
    print(json.dumps(record))
    print(json.dumps(harness.result_line(record, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
