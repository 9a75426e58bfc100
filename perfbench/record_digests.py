"""Write digests.json: cell counts and default-seed SHA-256 of every report.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each workload (all by default) once at the default seed, untraced, and
records what its reports are now.  Record only from a commit whose reports
are known to be right: the benchmark then treats any other bytes as a failure.
"""

import json
import os
import sys
import time

import run
import workloads


def main(names):
    try:
        with open(run.DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    os.makedirs(run.OUT, exist_ok=True)
    for name in names or sorted(workloads.WORKLOADS):
        deadline = time.perf_counter() + 600
        result = run._pass("run", name, workloads.DEFAULT_SEED, deadline)
        bad = [label for label, _d, passed, *_ in result["reports"] if not passed]
        if bad:
            raise SystemExit(f"{name}: reports fail, not recording: {bad}")
        table[name] = {
            label: {"sha256": digest, "cells": cells}
            for label, digest, _passed, cells, *_ in result["reports"]
        }
        print(f"{name}: {len(result['reports'])} reports in {result['wall_s']:.1f} s")
    with open(run.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
