#!/usr/bin/env python3
"""Compares two sets of benchmark results, workload by workload.

Usage:

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one `<workload>.jsonl` file per workload: the last
stdout line of each perfbench/run.py run, one per line, in run order. Run
i of the parent and run i of the change form a pair; alternate which side
runs first, and use the same --seconds on both sides. Example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload full_scan --seed $seed \\
          --seconds 24 --trace 0 | tail -n 1 >> results/parent/full_scan.jsonl
    done

For every metric the verdict is one of:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side, at least 10 pairs) and the medians differ by
              more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json, or it loses 9 of every
              10 pairs by more than the parent's interquartile range;
  unresolved  the parent's own spread (IQR / median) exceeds the bound and
              not every change run beats every parent run, or too few
              pairs, or the metric has no bound (per-layer metrics) and
              shows no clear win or loss;
  unchanged   otherwise.

Per-layer values of -1 (not exercised, or an unresolved percentile) are
left out of the comparison.
"""

import json
import os
import statistics
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
UNRESOLVED = -1.0
MIN_PAIRS = 10


def load_runs(path):
    runs = []
    with open(path) as f:
        for row in f:
            row = row.strip()
            if row.startswith("{"):
                runs.append(json.loads(row))
    return runs


def metric_specs():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        out[m["name"]] = (m["better"], m.get("bound"))
    return out


def spread(values):
    if len(values) < 2:
        return 0.0, 0.0, 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = spread(parent)
    iqr = q3 - q1
    diff = sign * (cm - pm)  # positive: the change is better
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= 0.9 * len(pairs) and diff > iqr:
        return "improved", wins, len(pairs)
    if bound is not None and pm != 0 and -diff > bound * abs(pm):
        return "worse", wins, len(pairs)
    if enough and losses >= 0.9 * len(pairs) and -diff > iqr:
        return "worse", wins, len(pairs)
    if bound is None or not enough:
        return "unresolved", wins, len(pairs)
    parent_spread = iqr / abs(pm) if pm != 0 else float("inf")
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if parent_spread > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent_dir, change_dir = sys.argv[1], sys.argv[2]
    specs = metric_specs()
    worst = 0
    print("%-12s %-32s %12s %12s %7s  %s" % (
        "workload", "metric", "parent", "change", "wins", "verdict"))
    for name in sorted(os.listdir(parent_dir)):
        if not name.endswith(".jsonl"):
            continue
        change_path = os.path.join(change_dir, name)
        if not os.path.exists(change_path):
            continue
        workload = name[:-len(".jsonl")]
        parent = load_runs(os.path.join(parent_dir, name))
        change = load_runs(change_path)
        incorrect = [r for r in parent + change if not r["correct"]]
        if incorrect:
            print("%-12s %d run(s) failed their correctness check"
                  % (workload, len(incorrect)))
            worst = 1
        for metric in sorted(parent[0]["metrics"] if parent else []):
            if metric not in specs:
                continue
            p = [r["metrics"][metric]["value"] for r in parent
                 if metric in r["metrics"]]
            c = [r["metrics"][metric]["value"] for r in change
                 if metric in r["metrics"]]
            p = [v for v in p if v != UNRESOLVED]
            c = [v for v in c if v != UNRESOLVED]
            if not p or not c:
                continue
            better, bound = specs[metric]
            result, wins, pairs = verdict(p, c, better, bound)
            if result == "worse":
                worst = 1
            print("%-12s %-32s %12.5g %12.5g %3d/%-3d  %s" % (
                workload, metric, statistics.median(p), statistics.median(c),
                wins, pairs, result))
    return worst


if __name__ == "__main__":
    sys.exit(main())
