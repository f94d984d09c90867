#!/usr/bin/env python3
"""Runs one SBON benchmark workload and prints its result as one JSON line.

    python3 bench/suite/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds `build-bench/`
(Release) from source, rebuilding only what changed, then runs `sbon_bench`
once. Everything else goes to stderr. The last line of stdout is
`{"correct", "attempted", "failed", "metrics"}`. With --trace 0 the metrics
are the end-to-end metrics that BENCHMARK.json names, and with --trace 1 its
per-layer metrics.

The exit status is non-zero, with no result line, when the build or the run
cannot complete. A run whose correctness checks fail still prints its line,
with "correct": false.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SUITE = os.path.join(ROOT, "bench", "suite")
BUILD = os.path.join(ROOT, "build-bench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        # Runs started together in one checkout build once, one at a time.
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in (
            ["cmake", "-S", SUITE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "--target", "sbon_bench", "-j",
             str(min(4, os.cpu_count() or 1))],
        ):
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                sys.exit("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        wanted = json.load(f)["per_layer" if args.trace else "end_to_end"]
    build()

    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(
        results, "%s-%d%s" % (args.workload, args.seed, ".traced" if args.trace else ""))
    out = stem + ".json"
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD, "sbon_bench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%g" % args.seconds, "--json=" + out]
    if args.trace:
        cmd.append("--trace=" + stem + ".csv")
    # sbon_bench exits 1 when a correctness check fails, after writing its
    # JSON; any other failure leaves no JSON behind.
    status = subprocess.run(cmd, stdout=sys.stderr).returncode
    if status not in (0, 1) or not os.path.exists(out):
        sys.exit("sbon_bench failed with status %d" % status)
    with open(out) as f:
        run = json.load(f)

    section = run["layers" if args.trace else "metrics"]
    metrics = {}
    for m in wanted:
        got = section.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("sbon_bench reported %r, BENCHMARK.json expects %s in %s"
                     % (got, m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
