#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the records the load generator writes, one per run
(<workload>-seed<N>-trace<0|1>.json, under .perfbench-run/results in the
checkout that ran them).  For every workload and metric it prints both
sides' median and quartiles over their runs, the change of the median,
and a verdict for the end-to-end metrics, whose bounds come from
BENCHMARK.json:

  worse       the change's median is worse than the base's by more than
              the bound
  unresolved  either side's quartile spread, as a share of its median,
              is wider than the bound, and not every change run reads
              better than every base run
  ok          neither

Per-layer metrics (from traced runs) have no bound and get no verdict.
The exit code is 1 if any end-to-end metric is worse, else 0.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    """{(workload, traced): {metric: [values]}} and each metric's unit."""
    runs, units = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace[01].json"))):
        with open(path) as f:
            record = json.load(f)
        if not record.get("correct"):
            print("skipping %s: its oracles failed" % path, file=sys.stderr)
            continue
        prov = record["provenance"]
        key = (prov["workload"], prov["trace"])
        for name, m in record["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, change, bound, better):
    sign = 1 if better == "lower" else -1
    b_med, c_med = statistics.median(base), statistics.median(change)
    worse_by = sign * (c_med - b_med) / b_med if b_med else 0.0
    if worse_by > bound:
        return "worse"
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved"
    return "ok"


def main(args):
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base, units = load(args[0])
    change, change_units = load(args[1])
    units.update(change_units)
    status = 0
    header = "%-18s %-32s %-6s %30s %30s %9s  %s" % (
        "workload", "metric", "unit", "base median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
    print(header)
    for key in sorted(set(base) & set(change)):
        workload, traced = key
        for name in sorted(set(base[key]) & set(change[key])):
            b, c = base[key][name], change[key][name]
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / bq[1] * 100 if bq[1] else 0.0
            flag = ""
            if not traced and name in e2e:
                flag = verdict(b, c, e2e[name]["bound"], e2e[name]["better"])
                status = 1 if flag == "worse" else status
            print("%-18s %-32s %-6s %30s %30s %8.1f%%  %s" % (
                workload, name, units[name],
                "%.4g [%.4g, %.4g] n=%d" % (bq[1], bq[0], bq[2], len(b)),
                "%.4g [%.4g, %.4g] n=%d" % (cq[1], cq[0], cq[2], len(c)),
                delta, flag))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
