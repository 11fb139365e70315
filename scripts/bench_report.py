#!/usr/bin/env python3
"""Perf tracking for the route-service benches and hot-path kernels.

Runs service_qps --smoke, the single-core 64x64 engine A/B
(packed/AVX2 lockstep vs forced-scalar lockstep, both from one binary),
service_churn_qps --smoke, the writer-only publish-latency sweep at
256x256 and 512x512 (pub_p50_us/pub_p99_us per applyEvent over the
copy-on-write paged storage; the retired deep-clone baseline's rows stay
in BENCH_service.json as the record), the in-process telemetry on/off
overhead A/B at the
single-core 64x64 packed point, the failpoint armed/disarmed A/B at the
same point (both held to the <= 2% hot-path budget), the fleet chaos
point (applier failpoints armed, bounded queues, supervisor healing on
the clock), and the table compile/patch/chase + executor micro kernels —
several times each (median-of-N so one noisy
run cannot move the record) — and emits a machine- and commit-stamped
JSON report. The committed BENCH_service.json at the repo root is the
trajectory record: regenerate it on perf-relevant PRs and eyeball the
diff.

    python3 scripts/bench_report.py                 # median of 5, smoke
    python3 scripts/bench_report.py --runs 1        # CI smoke (fast)
    python3 scripts/bench_report.py --out BENCH_service.json

micro_kernels is skipped with a note when the binary was not built
(Google Benchmark not found at configure time). Exit code is non-zero
when a bench binary exists but fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone

MICRO_FILTER = ("ChaseColumn|ChaseDiverging|TaskGroupOverhead|PoolWideWait|"
                "CompileColumnRb2|PatchColumnRb2")

# Google Benchmark reports cpu_time in each row's time_unit (the compile
# and patch rows use ms and us); the report keeps everything in ns.
NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def run_json(cmd, extra_env=None):
    """Runs cmd, returns parsed JSON from stdout (benches keep json
    machine-clean). extra_env overlays the inherited environment."""
    env = None
    if extra_env:
        env = dict(os.environ)
        env.update(extra_env)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         env=env)
    return json.loads(out.stdout)


def median_by_key(rows_per_run, key_fields, value_fields):
    """rows_per_run: list (one per run) of lists of row dicts. Returns one
    row per key with the median of every value field across runs."""
    keyed = {}
    for rows in rows_per_run:
        for row in rows:
            key = tuple(row[k] for k in key_fields)
            keyed.setdefault(key, []).append(row)
    merged = []
    for key, rows in sorted(keyed.items()):
        out = {k: v for k, v in zip(key_fields, key)}
        for field in value_fields:
            out[field] = statistics.median(r[field] for r in rows)
        merged.append(out)
    return merged


def git_commit(repo_root):
    try:
        return subprocess.run(
            ["git", "-C", repo_root, "rev-parse", "--short", "HEAD"],
            check=True, capture_output=True, text=True).stdout.strip()
    except (subprocess.CalledProcessError, FileNotFoundError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(
        description="median-of-N service bench report")
    parser.add_argument("--build-dir", default="build")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", default="",
                        help="write the report here (default: stdout)")
    parser.add_argument("--fleet-scale", action="store_true",
                        help="expand the fleet_scale section to the full "
                             "large-mesh matrix (512 and 1024 meshes; "
                             "minutes of extra wall time)")
    args = parser.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(repo_root, args.build_dir)

    def binary(name):
        path = os.path.join(build, name)
        return path if os.path.exists(path) else None

    report = {
        "generated_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "commit": git_commit(repo_root),
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "runs": args.runs,
        "note": "smoke configurations; medians across runs",
    }

    qps = binary("service_qps")
    if not qps:
        print("service_qps not built; run the README quickstart first",
              file=sys.stderr)
        return 1
    runs = [run_json([qps, "--smoke", "--format", "json"])
            for _ in range(args.runs)]
    report["service_qps"] = median_by_key(
        runs, ["mesh", "encoding", "churn"],
        ["compile_ms", "table_qps", "naive_qps", "speedup"])

    # Single-core batched serve throughput at 64x64, keyed by serve
    # engine: the packed/AVX2 lockstep engine vs the forced-scalar
    # lockstep fallback. This is the headline A/B for the SIMD
    # batch-serving path — both rows come from the same binary, so the
    # dispatch itself is what moves.
    runs = [run_json([qps, "--meshes", "64", "--threads", "1",
                      "--encoding", "packed,packed-scalar",
                      "--churn", "0,4", "--batches", "3",
                      "--format", "json"])
            for _ in range(args.runs)]
    report["service_batch_qps"] = median_by_key(
        runs, ["mesh", "encoding", "churn"],
        ["compile_ms", "table_qps", "speedup"])

    # Telemetry overhead A/B at the single-core 64x64 packed serve point.
    # service_qps --telemetry-ab holds two services in ONE process (stage
    # histograms explicitly on vs off; counters/gauges live in both) and
    # alternates timed batch pairs milliseconds apart, reporting the
    # median per-pair overhead — a two-process MESHRT_TELEMETRY A/B
    # drowns in machine noise (run-to-run QPS swings of +-15% dwarf the
    # effect). The hot-path contract for the observability layer is
    # overhead_pct <= 2 at this point.
    overhead_cmd = [qps, "--meshes", "64", "--threads", "1",
                    "--encoding", "packed", "--churn", "0",
                    "--telemetry-ab", "50", "--format", "json"]
    ab_rows = [run_json(overhead_cmd)[0] for _ in range(max(args.runs, 3))]
    report["telemetry_overhead"] = {
        "point": "64x64 packed, threads=1, churn=0, "
                 "in-process alternating pairs",
        "pairs_per_run": 50,
        "qps_telemetry_on": statistics.median(
            [r["qps_on"] for r in ab_rows]),
        "qps_telemetry_off": statistics.median(
            [r["qps_off"] for r in ab_rows]),
        "overhead_pct": round(statistics.median(
            [r["overhead_pct"] for r in ab_rows]), 2),
    }

    # Failpoint overhead A/B at the same point: service.serve.fail armed
    # at probability 0 (every serve pays the armed evaluation, nothing
    # fires) vs fully disarmed (one relaxed load). Same in-process
    # alternating-pairs method and the same hot-path budget as telemetry:
    # overhead_pct <= 2, the contract that lets the failpoints stay
    # compiled into production code.
    fp_cmd = [qps, "--meshes", "64", "--threads", "1",
              "--encoding", "packed", "--churn", "0",
              "--failpoint-ab", "50", "--format", "json"]
    fp_rows = [run_json(fp_cmd)[0] for _ in range(max(args.runs, 3))]
    report["failpoint_overhead"] = {
        "point": "64x64 packed, threads=1, churn=0, "
                 "in-process alternating pairs",
        "pairs_per_run": 50,
        "qps_armed": statistics.median(
            [r["qps_armed"] for r in fp_rows]),
        "qps_disarmed": statistics.median(
            [r["qps_disarmed"] for r in fp_rows]),
        "overhead_pct": round(statistics.median(
            [r["overhead_pct"] for r in fp_rows]), 2),
    }

    churn = binary("service_churn_qps")
    if not churn:
        print("service_churn_qps not built", file=sys.stderr)
        return 1
    runs = [run_json([churn, "--smoke", "--format", "json"])
            for _ in range(args.runs)]
    report["service_churn_qps"] = median_by_key(
        runs, ["mesh", "readers", "writers"],
        ["agg_qps", "reader_qps", "events/s"])

    # Writer-only publish latency of the copy-on-write storage at
    # production-ish mesh sizes (no readers, no compiled columns — the
    # isolated cost of publishing one epoch).
    runs = [run_json([churn, "--meshes", "256,512", "--readers", "0",
                      "--writers", "1", "--events", "200",
                      "--threads", "4", "--format", "json"])
            for _ in range(args.runs)]
    report["service_publish_latency"] = median_by_key(
        runs, ["mesh"],
        ["pub_p50_us", "pub_p99_us", "events/s"])

    # Sharded fleet vs single-service A/B at 256x256 under a fixed
    # fault-event budget: both modes serve the same reader workload and
    # the wall includes applying every event, so the fleet's localized
    # patching is what the qps ratio measures. One run, not median-of-N:
    # each row already aggregates readers x (shards + 1) timed batches
    # and the run takes minutes.
    fleet = binary("service_fleet_qps")
    if not fleet:
        print("service_fleet_qps not built", file=sys.stderr)
        return 1
    fleet_rows = run_json([fleet, "--format", "json"])
    report["service_fleet"] = fleet_rows
    by_writers = {}
    for row in fleet_rows:
        if row["scope"] == "all":
            by_writers.setdefault(row["writers"], {})[row["mode"]] = (
                row["qps"])
    report["service_fleet_speedup"] = {
        f"writers={w}": round(modes["fleet"] / modes["single"], 2)
        for w, modes in sorted(by_writers.items())
        if modes.get("single") and modes.get("fleet")}

    # Fleet-scale rows (DESIGN.md section 14): bounded column caches
    # (budget off/on A/B — `evicted` proves the budget bit, `col_mb` is
    # the held footprint) and shard-partitioned reader threads (the
    # aggregate-QPS scaling rows). The default subset stays CI-cheap at
    # 256x256; --fleet-scale adds the 512 and 1024 meshes. One run per
    # point: each `all` row already aggregates every timed batch.
    def fleet_scale_rows(mesh, grid, budget="0", rt="0", readers="8",
                         queries="300", dests="8", events="32",
                         writers="1"):
        rows = run_json([fleet, "--mesh", mesh, "--grid", grid,
                         "--modes", "fleet", "--writers", writers,
                         "--readers", readers, "--queries", queries,
                         "--dests", dests, "--events", events,
                         "--column-budget-mb", budget,
                         "--reader-threads", rt, "--format", "json"])
        picked = []
        for r in rows:
            if r["scope"] == "all":
                r["grid"] = int(grid)
                r["budget_mb"] = float(budget)
                picked.append(r)
        return picked

    scale = []
    for grid in ("2", "4"):
        scale += fleet_scale_rows("256", grid, budget="0")
        scale += fleet_scale_rows("256", grid, budget="0.25")
    # Read-side scaling rows run writer-free at the PR-7 default load
    # (readers 24, 1000-query batches, 16-dest pools) so the aggregate
    # qps is directly comparable to the service_fleet section's
    # writers=0 fleet row — the partitioned readers' whole point.
    for rt in ("2", "4"):
        scale += fleet_scale_rows("256", "2", rt=rt, writers="0",
                                  readers="24", queries="1000",
                                  dests="16", events="0")
    if args.fleet_scale:
        for mesh, budget in (("512", "0"), ("512", "1")):
            scale += fleet_scale_rows(mesh, "4", budget=budget,
                                      readers="4", queries="200",
                                      dests="4", events="8")
        # The 1024 point runs serial with a deliberately sub-working-set
        # budget: every batch pays recompiles (that is what a nonzero
        # `evicted` at a fixed working set means), so the row is the
        # cost-of-the-budget datum, not a throughput number. Keeping it
        # at one reader and 48 queries bounds the run to minutes.
        for budget in ("0", "0.5"):
            scale += fleet_scale_rows("1024", "4", budget=budget,
                                      readers="1", queries="48",
                                      dests="4", events="8")
    report["fleet_scale"] = scale

    # Self-healing chaos point (smoke scale): the fleet serves the same
    # workload with the applier throw/stall failpoints armed, bounded
    # writer queues, and retry submits — quarantines, supervisor rebuilds,
    # and the degraded-service share are the row payload (stale_pct /
    # shed_pct / deadline_pct / restarts). The `all` row is throughput
    # while failing; the `degraded` row is what the failures cost.
    chaos_rows = run_json([fleet, "--smoke", "--chaos",
                           "--format", "json"])
    report["fleet_chaos"] = [
        r for r in chaos_rows
        if r["mode"] == "fleet" and r["scope"] in ("all", "degraded")]

    micro = binary("micro_kernels")
    if micro:
        per_run = []
        for _ in range(args.runs):
            data = run_json([micro,
                             f"--benchmark_filter={MICRO_FILTER}",
                             "--benchmark_format=json"])
            per_run.append([
                {"name": b["name"],
                 "cpu_ns": b["cpu_time"] * NS_PER_UNIT[b.get("time_unit",
                                                            "ns")],
                 "items_per_second": b.get("items_per_second", 0.0)}
                for b in data["benchmarks"]])
        report["micro_kernels"] = median_by_key(
            per_run, ["name"], ["cpu_ns", "items_per_second"])
    else:
        report["micro_kernels"] = (
            "skipped: micro_kernels not built (Google Benchmark missing)")

    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(os.path.join(repo_root, args.out)
                  if not os.path.isabs(args.out) else args.out, "w") as f:
            f.write(text)
        print(f"wrote {args.out} ({report['commit']})", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
