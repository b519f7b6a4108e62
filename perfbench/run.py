"""Run one stericzip benchmark workload and print its metrics.

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: it imports stericzip from ``src`` there.
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run.  Failed checks are listed on standard error and the
exit code is then 1; a checkout without the stericzip sources exits with 2.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import WORKLOADS, BenchError, run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, failures, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(summary)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
