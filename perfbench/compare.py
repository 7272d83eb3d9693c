#!/usr/bin/env python3
"""Summarises or compares benchmark result sets recorded by run.py --record.

    python3 perfbench/compare.py RESULTS.jsonl
        Per workload and end-to-end metric: run count, median, quartiles and
        the spread (quartile distance over median) against the metric's
        bound in BENCHMARK.json.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl
        One block per workload with, for each metric: both medians and
        quartiles, the share of seed-matched pairs the change won (ties count
        for neither), and a verdict:
          improved      the change won at least 9/10 of the pairs and the
                        medians differ by more than the parent's quartile
                        distance;
          worse         the change's median is worse than the parent's by
                        more than the bound;
          unresolved    the parent's own spread is wider than the bound and
                        not every change run beats every parent run;
          within bound  otherwise.

Quartiles are statistics.quantiles(values, n=4). Only untraced runs
(trace 0) with a result are used; incorrect runs are listed and skipped.
"""

import json
import os
import statistics
import sys


def load_benchmark():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def load_runs(path):
    """workload -> {seed: metrics} for correct untraced runs."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            entry = json.loads(line)
            result = entry.get("result")
            if entry.get("trace") != 0 or result is None:
                continue
            if not result.get("correct"):
                print(f"{path}: {entry['workload']} seed {entry['seed']} was "
                      "incorrect; skipped")
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(entry["workload"], {})[entry["seed"]] = metrics
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def summarise(runs, metrics):
    for workload, by_seed in sorted(runs.items()):
        print(f"== {workload}: {len(by_seed)} runs")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r[m["name"]] for r in by_seed.values() if m["name"] in r]
            if not values:
                continue
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            flag = ""
            if s > m["bound"]:
                flag = "  OVER BOUND"
            elif s > m["bound"] / 3:
                flag = "  (> bound/3)"
            print(f"  {m['name']:<22} {q2:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{s:8.3f} {m['bound']:6.2f}{flag}")


def verdict(metric, parent, change, pairs):
    lower = metric["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    wins = sum(1 for p, c in pairs if better(c, p))
    won = wins / len(pairs) if pairs else 0.0
    worse_by = (cm - pm) / pm if lower else (pm - cm) / pm
    if pairs and won >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        return won, "improved"
    if worse_by > metric["bound"]:
        return won, "worse"
    if spread(parent) > metric["bound"] and not all(
            better(c, p) for c in change for p in parent):
        return won, "unresolved"
    return won, "within bound"


def compare(parent_runs, change_runs, metrics):
    for workload in sorted(set(parent_runs) | set(change_runs)):
        parent = parent_runs.get(workload, {})
        change = change_runs.get(workload, {})
        seeds = sorted(set(parent) & set(change))
        print(f"== {workload}: {len(parent)} parent runs, {len(change)} "
              f"change runs, {len(seeds)} seed-matched pairs")
        if not parent or not change:
            print("  missing on one side; nothing to compare")
            continue
        print(f"  {'metric':<22} {'parent median [q1, q3]':>34} "
              f"{'change median [q1, q3]':>34} {'won':>5}  verdict")
        for m in metrics:
            name = m["name"]
            pv = [r[name] for r in parent.values() if name in r]
            cv = [r[name] for r in change.values() if name in r]
            if not pv or not cv:
                continue
            pairs = [(parent[s][name], change[s][name]) for s in seeds
                     if name in parent[s] and name in change[s]]
            won, v = verdict(m, pv, cv, pairs)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            print(f"  {name:<22} {pm:12.4f} [{p1:9.4f}, {p3:9.4f}] "
                  f"{cm:12.4f} [{c1:9.4f}, {c3:9.4f}] {won:5.2f}  {v}")


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    metrics = load_benchmark()["end_to_end"]
    if len(argv) == 2:
        summarise(load_runs(argv[1]), metrics)
    else:
        compare(load_runs(argv[1]), load_runs(argv[2]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
