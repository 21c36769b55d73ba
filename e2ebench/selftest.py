#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at tiny size.

    python3 e2ebench/selftest.py

Run from the repository root. For every workload and for the default seed
(42) and the held-out seed (7), runs e2ebench/run.py --size tiny --trace 1
and requires that the run passes every check: each traced cell equals its
RunCoRun (or untraced churn) twin bit for bit, repeated passes agree, and
the digests match the ones recorded in e2ebench/digests.json. Exits 0 when
all pass.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("star_testbed", "spineleaf_policies", "controller_churn")
SEEDS = (42, 7)


def main():
    with open(os.path.join(HERE, "digests.json")) as f:
        digests = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for seed in SEEDS:
            if str(seed) not in digests.get(workload, {}).get("tiny", {}):
                print(f"FAIL {workload} seed {seed}: no recorded tiny digests")
                ok = False
                continue
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "1", "--trace", "1", "--size", "tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"] or result["failed"] != 0:
                print(f"FAIL {workload} seed {seed}: {result}")
                ok = False
            else:
                print(f"ok   {workload} seed {seed}: {result['attempted']} checks")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
