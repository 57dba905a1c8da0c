#!/usr/bin/env python3
"""Compares two sets of benchmark results, per workload and end-to-end metric.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds records appended by perfbench/run.py (one JSON object per
line, default .bench_results/results.jsonl); only untraced records count.
For every workload and end-to-end metric in BENCHMARK.json it prints each
side's median and quartiles, how many pairs the change wins, and one verdict:

  improved    over at least 10 pairs, the change is better in at least 9/10
              of them (ties count for neither) and the medians differ by
              more than the base's quartile distance
  unchanged   the change's median is no worse than the base's by more than
              the metric's bound
  worse       the change's median is worse by more than the bound
  unresolved  a side's quartile spread exceeds the bound, so the sets
              cannot tell (unless every change run beats every base run)

Runs are paired by seed when both sides ran the same seeds, else in order.
Exit status 1 when any verdict is "worse" or any record failed its output
check, else 0.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
# A gain needs at least this many parent/change pairs.
MIN_PAIRS = 10


def load(path):
    runs = defaultdict(list)  # workload -> records
    flags = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        prov = rec["provenance"]
        if prov.get("trace"):
            continue
        if not rec["correct"]:
            flags.append(f"{path}: {prov['workload']} seed {prov['seed']} "
                         "failed its output check")
        if not prov.get("release"):
            flags.append(f"{path}: {prov['workload']} seed {prov['seed']} "
                         f"is a {prov.get('build_type')} build, not Release")
        runs[prov["workload"]].append(rec)
    return runs, flags


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base, change):
    seeds_b = [r["provenance"]["seed"] for r in base]
    seeds_c = [r["provenance"]["seed"] for r in change]
    if sorted(seeds_b) == sorted(seeds_c) and len(set(seeds_b)) == len(seeds_b):
        by_seed = {r["provenance"]["seed"]: r for r in change}
        return [(r, by_seed[r["provenance"]["seed"]]) for r in base]
    return list(zip(base, change))


def verdict(metric, base, change):
    name, lower = metric["name"], metric["better"] == "lower"
    a = [r["metrics"][name]["value"] for r in base]
    b = [r["metrics"][name]["value"] for r in change]
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    better = (lambda x, y: x < y) if lower else (lambda x, y: x > y)
    paired = pairs(base, change)
    wins = sum(better(c["metrics"][name]["value"], p["metrics"][name]["value"])
               for p, c in paired)
    spread = max((qa[2] - qa[0]) / med_a if med_a else 0.0,
                 (qb[2] - qb[0]) / med_b if med_b else 0.0)
    worse_by = ((med_b - med_a) if lower else (med_a - med_b)) / med_a \
        if med_a else 0.0
    bound = metric["bound"]
    all_better = all(better(y, x) for x in a for y in b)
    if (len(paired) >= MIN_PAIRS and wins >= 0.9 * len(paired)
            and better(med_b, med_a)
            and abs(med_b - med_a) > qa[2] - qa[0]):
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    elif worse_by > bound:
        v = "worse"
    else:
        v = "unchanged"
    return qa, qb, wins, len(paired), spread, worse_by, v


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args()
    bench = json.loads(Path(args.benchmark).read_text())
    base, flags_a = load(args.base)
    change, flags_c = load(args.change)
    status = 1 if flags_a or flags_c else 0
    for flag in flags_a + flags_c:
        print("FLAG", flag)
    print(f"{'workload':14} {'metric':22} {'unit':5} "
          f"{'base q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'wins':>6} {'spread':>7} {'worse%':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(change)):
        if workload not in base or workload not in change:
            print(f"{workload:14} only in one set; not compared")
            continue
        for metric in bench["end_to_end"]:
            qa, qb, wins, n, spread, worse_by, v = verdict(
                metric, base[workload], change[workload])
            status = max(status, 1 if v == "worse" else 0)
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{workload:14} {metric['name']:22} {metric['unit']:5} "
                  f"{fa:>32} {fb:>32} {wins:>3}/{n:<2} {spread:7.3f} "
                  f"{100 * worse_by:7.2f} {metric['bound']:6.2f}  {v}")
    return status


if __name__ == "__main__":
    sys.exit(main())
