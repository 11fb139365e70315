#!/usr/bin/env python3
"""meshrt benchmark entry point.

Builds perfbench/ (which compiles ../src into its own library) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload of the meshbench program and prints, as its last line, the
result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The line before it is meshbench's full
result (workload, seed, input hash, sample counts, every metric), which
perfbench/compare.py reads. Run from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 3 --seconds 10 --trace 0

--tiny shrinks every workload to a few seconds (the self-test uses it).
Exit status: 0 when the oracle checks pass, 1 when they do not, 2 when the
build or the run failed (no result line is printed then).
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Runs cmd with its output on stderr; waits for it even on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"timed out: {' '.join(cmd)}")


def build(build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        if run_checked(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_checked(["cmake", "--build", str(build_dir), "-j", "4"],
                   BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    binary = build_dir / "meshbench"
    if not binary.exists():
        fail(f"missing {binary}")
    return binary


def metric_names(trace):
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target) / "perfbench"
    names = metric_names(args.trace)
    binary = build(build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = build_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans_dir / f"{args.workload}-seed{args.seed}.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("meshbench timed out")
    if proc.returncode not in (0, 1):
        fail(f"meshbench exited with {proc.returncode}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("meshbench printed no result")

    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail(f"meshbench did not report {', '.join(missing)}")
    samples = result["samples"]
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} input_hash={result['input_hash']} "
          f"batches={samples['batches']} events={samples['events']} "
          f"setups={samples['setups']} checked={samples['checked']} "
          f"mismatches={samples['check_mismatches']} "
          f"stale={samples['check_stale']} diverged={result['diverged']}")
    print(json.dumps(result))
    summary = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }
    print(json.dumps(summary))
    sys.exit(0 if summary["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
