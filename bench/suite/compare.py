#!/usr/bin/env python3
"""Compares SBON benchmark results of a parent and a change (stdlib only).

    python3 bench/suite/compare.py PARENT_DIR CHANGE_DIR
    python3 bench/suite/compare.py --same SET_A_DIR SET_B_DIR

Each directory holds untraced sbon_bench results (`<workload>-<seed>.json`,
as bench/suite/run.sh writes them). Runs pair up by workload and seed. Make
at least ten pairs per workload, alternating which side runs first.

Per workload and end-to-end metric it prints both sides' medians and
quartiles, the share of pairs the change wins (ties count for neither) and
a verdict:

  improved       the change wins at least 9/10 of the pairs and the medians
                 differ by more than the parent's spread (its quartile gap);
  regressed      the change's median is worse than the parent's by more
                 than the metric's bound;
  unresolved     the parent's spread is wider than the bound, and not every
                 change run beats every parent run;
  no regression  otherwise.

Values that repeat exactly for a given seed (quality, failures, traffic)
compare pair by pair and need no spread; "unchanged" means every pair is
equal. fail_frac has an absolute bound of 0.001, and any rise in it fails
the comparison. Per-layer counts and state fingerprints are listed where
they differ. Bounds come from BENCHMARK.json, plus the table below for the
metrics it does not gate.

Exit status 1 on any regression, a higher fail_frac, or a failed
correctness check. With --same (two sets from one commit) it is also 1
unless every exact value, count and fingerprint matches, and every timing
metric reads neither "improved" nor "regressed" with its medians within
its bound (an unresolved metric is reported, not failed).
"""
import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# (better, relative bound) of the metrics BENCHMARK.json does not gate: the
# tail latencies and throughput, whose spread between runs can exceed any
# bound it accepts, and the metrics only some workloads report.
EXTRA_BOUNDS = {
    "epoch_ms_p99": ("lower", 0.10),
    "submit_us_p99": ("lower", 0.10),
    "queries_per_s": ("higher", 0.10),
    "reuse_hit_rate": ("higher", 0.01),
    "bytes_per_node_epoch": ("lower", 0.01),
    "fail_frac": ("lower", None),
}
FAIL_FRAC_ABS_BOUND = 0.001


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: (m["better"], m["bound"])
                  for m in json.load(f)["end_to_end"]}
    bounds.update(EXTRA_BOUNDS)
    return bounds


def load_runs(directory):
    """{workload: {seed: run}} of the untraced results in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            run = json.load(f)
        if not run["traced"]:
            runs.setdefault(run["workload"], {})[run["seed"]] = run
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(parent, change, better):
    """Signed amount by which `change` is worse than `parent`."""
    return change - parent if better == "lower" else parent - change


def verdict(name, pairs, better, bound, exact):
    """(win share, verdict) of one metric over (parent, change) pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    wins = sum(1 for p, c in pairs if worse_by(p, c, better) < 0) / len(pairs)
    if name == "fail_frac":
        rise = statistics.mean(change) - statistics.mean(parent)
        if rise > FAIL_FRAC_ABS_BOUND:
            return wins, "regressed"
        if rise > 0:
            return wins, "higher"
    if exact:
        if change == parent:
            return wins, "unchanged"
        worse = [worse_by(p, c, better) / (abs(p) or 1.0) for p, c in pairs]
        if bound is not None and statistics.median(worse) > bound:
            return wins, "regressed"
        return wins, "improved" if wins >= 0.9 else "no regression"
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    scale = abs(pm) or 1.0
    if (p3 - p1) / scale > bound and not all(
            worse_by(p, c, better) < 0 for p in parent for c in change):
        return wins, "unresolved"
    if worse_by(pm, cm, better) / scale > bound:
        return wins, "regressed"
    if wins >= 0.9 and -worse_by(pm, cm, better) > p3 - p1:
        return wins, "improved"
    return wins, "no regression"


def compare_workload(workload, parent, change, bounds, same):
    """Prints one workload's table; returns (failed, unresolved count)."""
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        print("\n%s: no runs with matching seeds on both sides" % workload)
        return True, 0
    print("\n%s: %d pairs%s" % (workload, len(seeds),
                                "" if len(seeds) >= 10 else " (fewer than 10)"))
    print("  %-22s %-34s %-34s %5s  %s" % (
        "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins",
        "verdict"))
    failed, unresolved = False, 0

    def pairs_of(section, name):
        return [(parent[s][section][name]["value"],
                 change[s][section].get(name, {}).get("value")) for s in seeds]

    first = parent[seeds[0]]
    for name, meta in first["metrics"].items():
        if name not in bounds:
            continue
        pairs = pairs_of("metrics", name)
        if any(c is None for _, c in pairs):
            print("  %-22s missing on the change side" % name)
            failed = True
            continue
        better, bound = bounds[name]
        wins, v = verdict(name, pairs, better, bound, meta["exact"])
        p1, pm, p3 = quartiles([p for p, _ in pairs])
        c1, cm, c3 = quartiles([c for _, c in pairs])
        if same:
            # An unresolved metric (spread wider than its bound) cannot be
            # asked to agree within the bound; it is reported as such.
            off = abs(cm - pm) / (abs(pm) or 1.0)
            agree = (v == "unchanged" if meta["exact"] else
                     v == "unresolved" or (off <= bound and v != "improved"
                                           and v != "regressed"))
            v = "agree (%s)" % v if agree else "DISAGREE (%s)" % v
            failed = failed or not agree
        else:
            failed = failed or v in ("regressed", "higher")
            unresolved += v == "unresolved"
        print("  %-22s %-34s %-34s %5.2f  %s" % (
            name, "%.6g [%.6g, %.6g]" % (pm, p1, p3),
            "%.6g [%.6g, %.6g]" % (cm, c1, c3), wins, v))

    counts = []
    for name, meta in first["layers"].items():
        if meta["exact"]:
            differ = sum(1 for p, c in pairs_of("layers", name) if p != c)
            if differ:
                counts.append("%s (%d/%d)" % (name, differ, len(seeds)))
    if counts:
        print("  counts that differ: " + ", ".join(counts))
        failed = failed or same
    differ = [s for s in seeds if parent[s]["fingerprint"] != change[s]["fingerprint"]]
    if differ:
        print("  fingerprint differs for seeds %s" % differ)
        failed = failed or same
    bad = [s for s in seeds if not (parent[s]["correct"] and change[s]["correct"])]
    if bad:
        print("  correctness checks failed for seeds %s" % bad)
        failed = True
    return failed, unresolved


def main():
    parser = argparse.ArgumentParser(description="Compare SBON benchmark results.")
    parser.add_argument("--same", action="store_true",
                        help="both directories hold runs of one commit")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args()

    bounds = load_bounds()
    parent, change = load_runs(args.parent), load_runs(args.change)
    failed, unresolved = False, 0
    for workload in sorted(set(parent) | set(change)):
        f, u = compare_workload(workload, parent.get(workload, {}),
                                change.get(workload, {}), bounds, args.same)
        failed, unresolved = failed or f, unresolved + u
    if unresolved:
        print("\n%d metric(s) unresolved: the parent's spread exceeds the bound; "
              "run more pairs." % unresolved)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
