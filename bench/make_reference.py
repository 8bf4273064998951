"""Write bench/reference.json from the tdual sources in this checkout.

Usage: python3 bench/make_reference.py [--seed 0]

The reference holds each invocation's report with every float and the seed
replaced by placeholders (the float-free quiver export as a SHA-256), and the
work counts of one traced repetition per workload.  It pins the behaviour of
the commit that defined the benchmark; regenerate it only when a change to
the reports is intended and reviewed.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import run
from workloads import EXACT_COUNTS, WORKLOADS

EXPORT_COMMANDS = ("quiver",)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + 3600
    reference = {"invocations": {}, "work_counts": {}}
    for name, invocations in WORKLOADS.items():
        invs = [run.spawn(argv, "trace", args.seed, deadline) for argv in invocations]
        for inv in invs:
            if inv.failure or inv.code != 0:
                print(f"{' '.join(inv.argv)} failed: {inv.failure or inv.code}", file=sys.stderr)
                return 1
            key = " ".join(inv.argv)
            if inv.argv[0] in EXPORT_COMMANDS:
                reference["invocations"][key] = {"sha256": run.export_digest(inv.stdout, args.seed)}
            else:
                report = json.loads(inv.stdout)
                reference["invocations"][key] = {"report": run.normalize(report, args.seed)}
        counts = run.layer_totals(invs)[3]
        reference["work_counts"][name] = {k: counts.get(k, 0) for k in EXACT_COUNTS}
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
