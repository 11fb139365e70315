#!/usr/bin/env python3
"""Self-test of the meshrt benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload at --tiny size through perfbench/run.py and checks:
  - BENCHMARK.json keeps the shape its readers expect;
  - the untraced run emits every end-to-end metric with its unit, and the
    traced run every per-layer metric, in a last line with exactly the
    keys correct / attempted / failed / metrics, the oracles pass and no
    operation fails;
  - only fleet-budget evicts columns;
  - two runs with the same seed measure the same inputs (same input hash)
    and another seed measures other inputs.
Exits non-zero on the first failure.
"""

import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, message):
    if not cond:
        print(f"FAIL: {message}")
        sys.exit(1)


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    check(proc.returncode == 0,
          f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    full, summary = json.loads(lines[-2]), json.loads(lines[-1])
    check(set(summary) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: last line keys {sorted(summary)}")
    check(summary["correct"] is True, f"{workload}: oracle checks failed")
    check(isinstance(summary["attempted"], int) and summary["attempted"] >= 1,
          f"{workload}: attempted {summary['attempted']}")
    check(summary["failed"] == 0, f"{workload}: {summary['failed']} failed")
    return full, summary


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"},
          f"BENCHMARK.json keys {sorted(spec)}")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds out of range")
    check(2 <= len(spec["workloads"]) <= 8, "workload count out of range")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200,
              f"workload entry {w}")
    setup = None
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"metric {m}")
        check(0 < m["bound"] <= 0.25, f"{m['name']}: bound {m['bound']}")
        setup = m if m["name"] == "setup_s" else setup
    check(setup is not None and setup["unit"] == "s" and
          setup["better"] == "lower", "setup_s missing or malformed")
    check(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s must carry the largest bound")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"metric {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        check(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"),
              f"metric {m}")
    check(all(NAME.match(n) for n in names), "malformed name")
    check(len(names) == len(set(names)), "duplicate names")
    return [w["name"] for w in spec["workloads"]]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = check_spec(spec)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for workload in workloads:
            full, summary = run(workload, 1, trace)
            for m in spec[key]:
                got = summary["metrics"].get(m["name"])
                check(got is not None, f"{workload}: no {m['name']}")
                check(got["unit"] == m["unit"],
                      f"{workload}: {m['name']} unit {got['unit']}")
                check(isinstance(got["value"], (int, float)),
                      f"{workload}: {m['name']} value {got['value']}")
            if trace:
                evictions = summary["metrics"]["cache.evictions_per_batch"]
                evicts = evictions["value"] > 0
                check(evicts == (workload == "fleet-budget"),
                      f"{workload}: evictions {evictions['value']}")
            print(f"ok   {workload} trace={trace} "
                  f"input_hash={full['input_hash']}")
    for workload in workloads:
        first = run(workload, 7, 0)[0]["input_hash"]
        again = run(workload, 7, 0)[0]["input_hash"]
        other = run(workload, 8, 0)[0]["input_hash"]
        check(first == again, f"{workload}: same seed, hashes {first} {again}")
        check(first != other, f"{workload}: seeds 7 and 8 share inputs")
        print(f"ok   {workload} input hash reproducible ({first})")
    print("selftest passed")


if __name__ == "__main__":
    main()
