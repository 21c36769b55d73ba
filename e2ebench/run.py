#!/usr/bin/env python3
"""End-to-end benchmark driver for the Saba reproduction.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds e2ebench/ (and the simulator sources it
links) into .bench_build/e2ebench on first use, runs one workload in its own
process, checks the simulated outputs, and prints one JSON result object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. The traced run's full attribution table is written to
.bench_out/<workload>-seed<n>.txt. --record stores the run's digests in
e2ebench/digests.json as the reference for that workload, size and seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("star_testbed", "spineleaf_policies", "controller_churn")
# A run ends well inside the benchmark's 180 s limit or is killed.
RUN_TIMEOUT_S = 170


def log(*parts):
    print("[e2ebench]", *parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    step = ["cmake", "--build", BUILD_DIR, "--parallel", "4"]
    return subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def run_binary(args):
    """Runs the workload; returns (parsed output, peak RSS in MiB) or None."""
    cmd = [os.path.join(BUILD_DIR, "e2ebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        # wait4 reaps this child alone, so its rusage excludes the compilers.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    if proc.returncode != 0:
        log("e2ebench exited with", proc.returncode)
        return None
    lines = out.decode().strip().splitlines()
    if not lines:
        log("e2ebench printed nothing")
        return None
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if not build():
        log("build failed")
        return 1
    ran = run_binary(args)
    if ran is None:
        return 1
    result, peak_rss_mb = ran

    attempted, failed = result["attempted"], result["failed"]
    failures = list(result["failures"])
    digests = load_json(DIGESTS) if os.path.exists(DIGESTS) else {}
    recorded = digests.get(args.workload, {}).get(args.size, {}).get(str(args.seed))
    if recorded is not None:
        for cell, digest in sorted(recorded.items()):
            attempted += 1
            if result["digests"].get(cell) != digest:
                failed += 1
                failures.append(f"{cell}: digest {result['digests'].get(cell)} != recorded {digest}")
    else:
        log(f"no recorded digests for {args.workload}/{args.size}/seed {args.seed}")
    if args.record:
        digests.setdefault(args.workload, {}).setdefault(args.size, {})[str(args.seed)] = \
            result["digests"]
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=2, sort_keys=True)
            f.write("\n")
    for failure in failures:
        log("FAILED:", failure)

    values = dict(result["metrics"])
    values["peak_rss_mb"] = peak_rss_mb
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        size = "" if args.size == "full" else f"-{args.size}"
        path = os.path.join(OUT_DIR, f"{args.workload}{size}-seed{args.seed}.txt")
        with open(path, "w") as f:
            f.write(f"{args.workload} seed {args.seed} size {args.size}: "
                    f"{failed} of {attempted} checks failed "
                    f"(fail_frac {failed / attempted:.6g})\n")
            f.write(result["report"])
        log("attribution report:", path)
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
