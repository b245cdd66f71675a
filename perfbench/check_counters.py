"""Check that the traced work counters of a workload repeat exactly.

Usage (from the root of a checkout)::

    python3 perfbench/check_counters.py --workload NAME [--seed N]

Runs the traced operation of the workload twice, each in a fresh
interpreter, and compares the counters listed in ``tracing.COUNTERS``.
They are counts of work, not timings.  Exit code 0 when every counter
repeats exactly, 1 otherwise; the last stdout line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from tracing import COUNTERS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    argvs = run.serial_argvs(run.workload_argvs(args.workload, args.seed))
    counts = []
    for i in range(2):
        tag = f"{args.seed}-repeat{i}"
        trace = run.OUT / f"trace-{args.workload}-seed{tag}.jsonl"
        op = run.run_op(args.workload, argvs, tag, trace=trace)
        layers = op.get("layers", {})
        counts.append({name: layers.get(name) for name in COUNTERS})
    same = counts[0] == counts[1] and None not in counts[0].values()
    for name in COUNTERS:
        print(f"{name} = {counts[0][name]} / {counts[1][name]} count")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "counters": counts[0], "repeat_exactly": same}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
