#!/usr/bin/env python3
"""Compares two sets of meshrt benchmark runs, or summarises one.

Each set is one or more files holding the stdout of perfbench/run.py
(any number of runs appended). The tool keeps the full result lines
(those with a "workload" key) and groups them by workload and trace mode.

    python3 perfbench/compare.py parent.jsonl                 # spread only
    python3 perfbench/compare.py parent.jsonl change.jsonl    # A/B verdicts

For every workload and metric named in BENCHMARK.json it prints each
side's median and quartiles (statistics.quantiles, n=4), the spread
(interquartile range over the median) and, given two sets:

  won      share of pairs the change won, pairing runs by seed (ties
           count for neither side); all cross pairs when seeds differ
  verdict  better     the change wins >= 90% of pairs and the medians
                      differ by more than the parent's own spread
           worse      the change's median is worse than the parent's by
                      more than the metric's bound
           unresolved either side's spread is wider than the bound
           same       none of the above
Per-layer metrics have no bound; their verdicts use the 0.1 default.
Runs whose input hashes differ between the two sets for one (workload,
seed) are reported, since they did not measure the same inputs.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BOUND = 0.1


def load(paths):
    runs = {}
    for path in paths:
        for line in pathlib.Path(path).read_text().splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and "workload" in obj:
                key = (obj["workload"], int(obj["trace"]))
                runs.setdefault(key, []).append(obj)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def won_share(a_runs, b_runs, name, higher):
    by_seed_a = {r["seed"]: r["metrics"][name]["value"] for r in a_runs}
    by_seed_b = {r["seed"]: r["metrics"][name]["value"] for r in b_runs}
    common = sorted(set(by_seed_a) & set(by_seed_b))
    if common:
        pairs = [(by_seed_a[s], by_seed_b[s]) for s in common]
    else:
        pairs = [(a, b) for a in by_seed_a.values() for b in by_seed_b.values()]
    wins = sum(1 for a, b in pairs if (b > a if higher else b < a))
    return wins / len(pairs)


def verdict(a_vals, b_vals, won, bound, higher):
    a_q1, a_med, a_q3 = quartiles(a_vals)
    _, b_med, _ = quartiles(b_vals)
    worse_by = (a_med - b_med) if higher else (b_med - a_med)
    if a_med and worse_by / abs(a_med) > bound:
        return "worse"
    if spread(a_vals) > bound or spread(b_vals) > bound:
        return "unresolved"
    if won >= 0.9 and abs(b_med - a_med) > (a_q3 - a_q1):
        return "better"
    return "same"


def fmt(x):
    return f"{x:.6g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="file of parent (or only) runs")
    parser.add_argument("change", nargs="?", help="file of change runs")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    a = load([args.parent])
    b = load([args.change]) if args.change else {}
    if not a:
        sys.exit(f"no benchmark results in {args.parent}")

    worse = 0
    for key in sorted(a):
        workload, trace = key
        a_runs, b_runs = a[key], b.get(key, [])
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}): "
              f"{len(a_runs)} parent runs"
              + (f", {len(b_runs)} change runs" if args.change else ""))
        if b_runs:
            hashes_a = {r["seed"]: r["input_hash"] for r in a_runs}
            for r in b_runs:
                h = hashes_a.get(r["seed"])
                if h is not None and h != r["input_hash"]:
                    print(f"   seed {r['seed']}: input hash {h} vs "
                          f"{r['input_hash']} -- different inputs")
        head = f"   {'metric':<34} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7}"
        if b_runs:
            head += f" {'chg median':>11} {'chg spread':>10} {'won':>5}  verdict"
        print(head)
        for m in metrics[trace]:
            name, higher = m["name"], m["better"] == "higher"
            bound = m.get("bound", DEFAULT_BOUND)
            a_vals = [r["metrics"][name]["value"] for r in a_runs
                      if name in r["metrics"]]
            if not a_vals:
                continue
            q1, med, q3 = quartiles(a_vals)
            row = (f"   {name:<34} {fmt(med):>11} {fmt(q1):>11} {fmt(q3):>11} "
                   f"{spread(a_vals):>7.3f}")
            b_vals = [r["metrics"][name]["value"] for r in b_runs
                      if name in r["metrics"]]
            if b_vals:
                won = won_share(a_runs, b_runs, name, higher)
                v = verdict(a_vals, b_vals, won, bound, higher)
                worse += v == "worse" and trace == 0
                _, b_med, _ = quartiles(b_vals)
                row += (f" {fmt(b_med):>11} {spread(b_vals):>10.3f} "
                        f"{won:>5.2f}  {v}")
            elif "bound" in m:
                row += f"  (bound {bound})"
            print(row)
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
