// Sharded fleet throughput: the same mesh, readers, and churn served two
// ways — one full-mesh RouteService (mode `single`) vs a ServiceFleet of
// grid x grid shard services (mode `fleet`) — with per-shard fault
// writers applying a FIXED event budget. The measured wall covers the
// full reader workload AND the application of every fault event (fleet
// rows drain the writer queues on the clock), so both modes are held to
// the same freshness bar: a mode cannot buy QPS by letting fault events
// rot in a queue. That is where the fleet wins — a single service pays
// every event with a full-mesh epoch and full-size column patches for
// the whole destination pool (and its writer starves behind reader pool
// contention), while the fleet localizes each event to the owning shard
// plus halo neighbors, leaving the other shards' columns untouched and
// repatching at local-mesh size (DESIGN.md section 11).
//
// Each reader thread cycles through one intra-shard batch per shard plus
// one mesh-wide mixed batch (cross-shard stitching included), timing
// every serve. Rows are emitted per scope: `all` aggregates every batch
// (aggregate QPS + p50/p99 batch latency), `shardK` isolates shard K's
// intra-shard batches — the per-shard latency columns. The single-mode
// shardK rows serve the SAME quadrant batches through the full-mesh
// service, so the per-shard columns are a like-for-like A/B.
//
//   ./service_fleet_qps --meshes 256 --grid 2 --readers 24 --writers 0,1
//   ./service_fleet_qps --smoke          # seconds-fast CI configuration
//
// Fleet churn goes through the submit* writer queues (the per-shard
// applier threads publish asynchronously); single-mode churn uses the
// synchronous apply* calls the service offers. See docs/REPRODUCING.md.
//
// Fleet-scale additions (DESIGN.md section 14): --column-budget-mb caps
// each service's resident column bytes (CLOCK eviction; the `col_mb` and
// `evicted` columns show what the budget did), --mesh 1024 --grid 4 is
// the headline large-mesh configuration (--modes auto drops the
// full-mesh single baseline at >= 1024, where one service cannot even
// build), --stitch-plan flat|hier A/Bs the hierarchical planner, and
// --reader-threads N partitions readers 1:1 onto shards (thread t
// serves ONLY shard t%shards' intra batches — shard-disjoint readers
// share no snapshot, the aggregate-QPS scaling rows). The final
// --metrics-out snapshot carries a process.peak_rss_bytes gauge so CI
// can assert a hard memory ceiling on budgeted runs.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <thread>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "common/cli.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "fault/injectors.h"
#include "harness/bench_main.h"
#include "service/fleet.h"

namespace {

using namespace meshrt;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nearest-rank percentile (q in [0, 100]) of SORTED samples; 0 when
/// empty.
double percentileMs(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

/// Process peak resident set in bytes (getrusage ru_maxrss); 0 where
/// unavailable. Exported as the "process.peak_rss_bytes" gauge so the
/// CI fleet-scale smoke can assert the column budget actually bounds
/// memory (check_metrics.py --max-gauge).
std::size_t processPeakRssBytes() {
#if defined(__unix__)
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
  }
#endif
  return 0;
}

Point randomOwnedHealthy(const ShardLayout& layout, std::size_t k,
                         const FaultSet& faults, Rng& rng) {
  const Rect& o = layout.owned(k);
  while (true) {
    const Point p{
        static_cast<Coord>(o.x0 + static_cast<Coord>(rng.below(
                                      static_cast<std::uint64_t>(
                                          o.width())))),
        static_cast<Coord>(o.y0 + static_cast<Coord>(rng.below(
                                      static_cast<std::uint64_t>(
                                          o.height()))))};
    if (faults.isHealthy(p)) return p;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace meshrt;
  CliFlags flags;
  flags.define("meshes", "256", "comma-separated mesh side lengths");
  flags.define("mesh", "",
               "alias of --meshes (the fleet-scale recipes read better "
               "as --mesh 1024); overrides --meshes when set");
  flags.define("grid", "2", "shard grid side (grid x grid shards)");
  flags.define("modes", "auto",
               "which services to run: auto (single + fleet, but fleet "
               "only at mesh >= 1024 where a full-mesh single service "
               "cannot even build), single, fleet, or single,fleet");
  flags.define("column-budget-mb", "0",
               "resident column budget per service in MiB (each fleet "
               "shard gets this budget; 0 = unbounded). Over budget, "
               "snapshots run CLOCK second-chance eviction; evicted "
               "columns recompile "
               "bit-identically on next touch (DESIGN.md section 14)");
  flags.define("stitch-plan", "hier",
               "cross-shard planning: hier (epoch-cached shard-adjacency "
               "supergraph + lazy borders) or flat (PR-7 per-batch "
               "full-graph rebuild baseline)");
  flags.define("reader-threads", "0",
               "partitioned multi-core mode: N reader threads, thread t "
               "serving ONLY shard t%shards' intra batches (no mixed "
               "batch) — shard-disjoint readers never touch the same "
               "snapshot, so aggregate QPS scales with cores. 0 = the "
               "classic staggered --readers workload");
  flags.define("halo", "2", "halo width replicated into neighbor shards");
  flags.define("fault-rate", "0.02", "initial fault fraction of nodes");
  flags.define("router", "ecube", "registry key the columns compile");
  flags.define("threads", "2", "worker threads per service");
  flags.define("readers", "24", "concurrent reader threads");
  flags.define("writers", "0,1,4",
               "comma-separated churned-shard counts per row: 0 = static "
               "faults, k = one toggling fault writer on each of the "
               "first k shard regions (k = shards: uniform churn; small "
               "k: the paper's localized fault-region churn, where the "
               "fleet leaves the unchurned shards' columns untouched)");
  flags.define("events", "128",
               "fault events each churn writer applies (per shard; the "
               "measured wall includes applying ALL of them)");
  flags.define("queries", "1000", "queries per served batch");
  flags.define("dests", "16", "destination-pool size per shard");
  flags.define("rounds", "1", "measured cycles per reader (each cycle = "
               "one batch per shard + one mixed batch)");
  flags.define("seed", "2008", "master random seed");
  flags.define("chaos", "false",
               "self-healing A/B: arm fleet.applier.throw (p:0.05) and "
               "fleet.applier.stall (p:0.01, 50ms) for the fleet rows' "
               "measured window, bound the writer queues, and push churn "
               "through submit*WithRetry — the fleet serves through "
               "quarantines and supervisor rebuilds, and the row's "
               "stale/deadline columns plus `restarts` show what the "
               "failures cost. Single-service rows are unaffected (the "
               "failpoints are fleet sites)");
  flags.define("deadline-us", "0",
               "per-batch serve deadline in microseconds (0 = none); "
               "expired queries return Deadline verdicts and land in "
               "deadline_pct");
  flags.define("max-queue", "0",
               "admission-control threshold (FleetConfig.maxWriterQueue): "
               "queries touching a shard whose writer backlog exceeds it "
               "degrade or shed per --overload (0 = off)");
  flags.define("overload", "degrade",
               "admission policy when a shard is overloaded: degrade "
               "(serve stale, flagged) or shed (refuse, flagged)");
  flags.define("smoke", "false",
               "tiny configuration (64x64, 6 readers) for CI smoke runs");
  flags.define("format", "table", "output format: table, csv or json");
  flags.define("out", "",
               "also write the result to this file (.csv/.json pick the "
               "format by extension)");
  defineMetricsFlags(flags);
  if (!flags.parse(argc, argv)) return 1;

  const bool smoke = flags.boolean("smoke");
  const std::string meshList =
      flags.str("mesh").empty() ? flags.str("meshes") : flags.str("mesh");
  std::vector<std::size_t> meshes;
  for (const std::string& item :
       splitCommaList(smoke ? "64" : meshList)) {
    meshes.push_back(parseCount(item, "meshes"));
  }
  std::vector<std::size_t> writerModes;
  for (const std::string& item : splitCommaList(flags.str("writers"))) {
    writerModes.push_back(parseCount(item, "writers"));
  }
  const auto grid = static_cast<std::size_t>(flags.integer("grid"));
  const auto halo = static_cast<Coord>(flags.integer("halo"));
  const std::size_t readers =
      smoke ? 6 : static_cast<std::size_t>(flags.integer("readers"));
  const std::size_t queries =
      smoke ? 400 : static_cast<std::size_t>(flags.integer("queries"));
  const std::size_t destCount =
      smoke ? 6 : static_cast<std::size_t>(flags.integer("dests"));
  const std::size_t rounds =
      smoke ? 2 : static_cast<std::size_t>(flags.integer("rounds"));
  const std::size_t eventsPerShard =
      smoke ? 4 : static_cast<std::size_t>(flags.integer("events"));
  const double faultRate = flags.real("fault-rate");
  const std::string routerKey = flags.str("router");
  const auto threads = static_cast<std::size_t>(flags.integer("threads"));
  const auto seed = static_cast<std::uint64_t>(flags.integer("seed"));
  const bool chaos = flags.boolean("chaos");
  const auto deadlineUs =
      static_cast<std::uint64_t>(flags.integer("deadline-us"));
  const auto maxQueue =
      static_cast<std::size_t>(flags.integer("max-queue"));
  OverloadPolicy overloadPolicy = OverloadPolicy::Degrade;
  if (!parseOverloadPolicy(flags.str("overload"), &overloadPolicy)) {
    std::cerr << "unknown --overload '" << flags.str("overload")
              << "' (degrade|shed)\n";
    return 1;
  }
  StitchPlanMode stitchPlan = StitchPlanMode::Hierarchical;
  if (!parseStitchPlanMode(flags.str("stitch-plan"), &stitchPlan)) {
    std::cerr << "unknown --stitch-plan '" << flags.str("stitch-plan")
              << "' (hier|flat)\n";
    return 1;
  }
  const double budgetMb = flags.real("column-budget-mb");
  if (budgetMb < 0) {
    std::cerr << "--column-budget-mb must be >= 0\n";
    return 1;
  }
  const std::size_t readerThreads =
      static_cast<std::size_t>(flags.integer("reader-threads"));
  const std::string modes = flags.str("modes");
  if (modes != "auto") {
    for (const std::string& m : splitCommaList(modes)) {
      if (m != "single" && m != "fleet") {
        std::cerr << "unknown --modes entry '" << m
                  << "' (auto|single|fleet|single,fleet)\n";
        return 1;
      }
    }
  }
  if (!RouterRegistry::global().contains(routerKey)) {
    std::cerr << "unknown --router '" << routerKey << "'\n";
    return 1;
  }
  if (grid < 2) {
    std::cerr << "--grid must be >= 2 (the fleet rows need >= 4 shards; "
                 "mode `single` is the one-service baseline)\n";
    return 1;
  }
  if (readers == 0 || rounds == 0 || queries == 0) {
    std::cerr << "--readers, --rounds and --queries must be positive\n";
    return 1;
  }

  if (wantsBanner(flags)) {
    std::cout << "Fleet vs single-service QPS: " << readers
              << " readers x " << rounds << " cycles, " << queries
              << " queries/batch, router " << routerKey << ", grid "
              << grid << "x" << grid
              << "\n(each cycle serves one intra-shard batch per shard + "
                 "one mesh-wide mixed batch;\n qps = total served queries "
                 "/ wall time; shardK rows = that shard's batches)\n\n";
  }

  // Periodic JSONL metrics dump (inert unless --metrics-out AND
  // --metrics-every are set); the final snapshot lands after the table.
  MetricsDumper metricsDumper(
      flags.str("metrics-out"),
      static_cast<std::uint64_t>(flags.integer("metrics-every")));

  Table table({"mesh", "mode", "scope", "readers", "writers", "rthreads",
               "qps", "p50_ms", "p99_ms", "events/s", "delivered",
               "stale_pct", "shed_pct", "deadline_pct", "restarts",
               "col_mb", "evicted"});
  for (std::size_t meshSize : meshes) {
    const Mesh2D mesh = Mesh2D::square(static_cast<Coord>(meshSize));
    const ShardLayout layout(mesh, grid, halo);
    const std::size_t shards = layout.shardCount();
    Rng rng = Rng::forStream(seed, meshSize);
    const auto faultCount = static_cast<std::size_t>(
        static_cast<double>(mesh.nodeCount()) * faultRate);
    const FaultSet faults = injectUniform(mesh, faultCount, rng);

    // Per-shard destination pools (traffic concentrates on popular
    // endpoints inside each region) and per-reader batches: for every
    // shard an intra-shard batch, plus one mesh-wide mixed batch whose
    // cross-shard queries exercise the stitcher.
    std::vector<std::vector<Point>> destPools(shards);
    for (std::size_t k = 0; k < shards; ++k) {
      for (std::size_t i = 0; i < destCount; ++i) {
        destPools[k].push_back(randomOwnedHealthy(layout, k, faults, rng));
      }
    }
    // batches[r][k] is reader r's batch for shard k; batches[r][shards]
    // is its mixed batch.
    std::vector<std::vector<std::vector<Query>>> batches(readers);
    for (std::size_t r = 0; r < readers; ++r) {
      Rng readerRng = Rng::forStream(seed ^ 0xBEEF, meshSize * 131 + r);
      batches[r].resize(shards + 1);
      for (std::size_t k = 0; k < shards; ++k) {
        batches[r][k].reserve(queries);
        for (std::size_t i = 0; i < queries; ++i) {
          batches[r][k].push_back(
              {randomOwnedHealthy(layout, k, faults, readerRng),
               destPools[k][i % destPools[k].size()]});
        }
      }
      batches[r][shards].reserve(queries);
      for (std::size_t i = 0; i < queries; ++i) {
        const std::size_t ks = readerRng.below(shards);
        const std::size_t kd = readerRng.below(shards);
        batches[r][shards].push_back(
            {randomOwnedHealthy(layout, ks, faults, readerRng),
             destPools[kd][i % destPools[kd].size()]});
      }
    }

    // Per-shard toggle cells for the churn writers (owned rects are
    // disjoint, so writers never race on a cell).
    std::vector<std::vector<Point>> toggleCells(shards);
    for (std::size_t k = 0; k < shards; ++k) {
      Rng trng = Rng::forStream(seed ^ 0xC0FFEE, meshSize * 31 + k);
      for (std::size_t i = 0; i < 32; ++i) {
        toggleCells[k].push_back(
            randomOwnedHealthy(layout, k, faults, trng));
      }
    }

    ServiceConfig serviceCfg;
    serviceCfg.routerKey = routerKey;
    serviceCfg.threads = threads;
    serviceCfg.columnBudgetBytes =
        static_cast<std::size_t>(budgetMb * 1024.0 * 1024.0);

    std::vector<bool> fleetModes;
    if (modes == "auto") {
      // A 1024x1024 single service would label ~1M nodes per event and
      // pay full-mesh columns for every destination — the fleet is the
      // only mode that scales there, so auto drops the baseline.
      if (meshSize >= 1024) {
        fleetModes = {true};
      } else {
        fleetModes = {false, true};
      }
    } else {
      for (const std::string& m : splitCommaList(modes)) {
        fleetModes.push_back(m == "fleet");
      }
    }

    for (std::size_t writerMode : writerModes) {
      const std::size_t writerCount = std::min(writerMode, shards);
      for (const bool fleetMode : fleetModes) {
        // Services are constructed lazily per mode row: at --mesh 1024
        // an eagerly built full-mesh baseline would dominate (or
        // exhaust) the run before the fleet rows even start.
        std::unique_ptr<RouteService> singleHolder;
        std::unique_ptr<ServiceFleet> fleetHolder;
        RouteService* single = nullptr;
        ServiceFleet* fleet = nullptr;
        FleetConfig fleetCfg;
        fleetCfg.service = serviceCfg;
        fleetCfg.grid = grid;
        fleetCfg.halo = halo;
        fleetCfg.maxWriterQueue = maxQueue;
        fleetCfg.overload = overloadPolicy;
        fleetCfg.stitchPlan = stitchPlan;
        if (chaos) {
          // Self-healing configuration: bounded queues (retry writers),
          // a tight watchdog, and a fast supervisor so quarantines and
          // rebuilds land inside the measured window.
          fleetCfg.queueCapacity = 16;
          fleetCfg.stallTimeoutMs = 100;
          fleetCfg.supervisorPollMs = 5;
        }
        if (fleetMode) {
          fleetHolder = std::make_unique<ServiceFleet>(faults, fleetCfg);
          fleet = fleetHolder.get();
        } else {
          singleHolder = std::make_unique<RouteService>(faults, serviceCfg);
          single = singleHolder.get();
        }
        // Degraded-mode accounting: queries served stale (quarantine or
        // admission), shed, or expired against the batch deadline.
        std::atomic<std::uint64_t> staleQ{0}, shedQ{0}, deadlineQ{0};
        const auto serveCount =
            [&](const std::vector<Query>& batch) -> std::uint64_t {
          const std::uint64_t deadlineNs =
              deadlineUs == 0 ? 0 : telemetryNowNs() + deadlineUs * 1000;
          std::uint64_t ok = 0, stale = 0, shed = 0, expired = 0;
          if (fleet) {
            const FleetBatchResult result =
                fleet->serve(batch, /*wantPaths=*/false, deadlineNs);
            for (std::size_t i = 0; i < result.size(); ++i) {
              ok += result.delivered(i) ? 1 : 0;
              stale += (result.flags[i] & kFleetFlagStale) ? 1 : 0;
              shed += (result.flags[i] & kFleetFlagShed) ? 1 : 0;
              expired += (result.flags[i] & kFleetFlagDeadline) ? 1 : 0;
            }
          } else {
            const BatchResult result =
                single->serve(batch, /*wantPaths=*/false, deadlineNs);
            for (std::size_t i = 0; i < result.size(); ++i) {
              ok += result.delivered(i) ? 1 : 0;
              expired +=
                  result.status[i] == ServeStatus::Deadline ? 1 : 0;
            }
          }
          if (stale) staleQ.fetch_add(stale, std::memory_order_relaxed);
          if (shed) shedQ.fetch_add(shed, std::memory_order_relaxed);
          if (expired) {
            deadlineQ.fetch_add(expired, std::memory_order_relaxed);
          }
          return ok;
        };

        // Warm-up: serve every reader's batch set once, off the clock.
        // Each reader's mixed batch draws sources from its own shards,
        // so reaching the steady state (all dest-pool AND waypoint
        // columns compiled) needs the full cross product, not just one
        // reader's batches.
        for (std::size_t r = 0; r < readers; ++r) {
          for (std::size_t k = 0; k <= shards; ++k) {
            serveCount(batches[r][k]);
          }
        }

        // Every churn writer applies a fixed event share; the measured
        // window closes only after readers AND writers are done and (in
        // fleet mode) the writer queues have drained — both modes pay
        // for full event application, not just for serving.
        std::atomic<std::uint64_t> events{0};
        std::vector<std::thread> churners;
        std::atomic<std::uint64_t> delivered{0};
        const std::size_t serveThreads =
            readerThreads > 0 ? readerThreads : readers;
        // latencyMs[r][k] collects reader r's serve times for shard k's
        // intra batches; index `shards` is the mixed batch.
        std::vector<std::vector<std::vector<double>>> latencyMs(
            serveThreads);
        const std::uint64_t restartsBefore =
            fleet ? fleet->counters().restarts : 0;
        // Chaos window: armed for the fleet rows only (the failpoints
        // are fleet applier sites), AFTER warm-up so the A/B measures
        // serving-through-failures, not a cold-cache artifact.
        FailpointArmScope chaosScope;
        if (chaos && fleet) {
          FailpointSpec crash;
          crash.probability = 0.05;
          crash.seed = seed;
          FailpointRegistry::global()
              .point("fleet.applier.throw")
              .arm(crash);
          FailpointSpec stall;
          stall.probability = 0.01;
          stall.seed = seed ^ 0x5711;
          stall.payload = 50;  // ms; the 100ms watchdog abandons these
          FailpointRegistry::global()
              .point("fleet.applier.stall")
              .arm(stall);
        }
        const auto start = Clock::now();
        for (std::size_t w = 0; w < writerCount; ++w) {
          churners.emplace_back([&, w] {
            std::size_t next = 0;
            std::vector<bool> added(toggleCells[w].size(), false);
            SubmitRetryPolicy retry;
            retry.seed = seed ^ (w + 1);
            for (std::size_t e = 0; e < eventsPerShard; ++e) {
              const Point p = toggleCells[w][next];
              if (fleet) {
                SubmitResult verdict = SubmitResult::Accepted;
                if (chaos) {
                  // Bounded queues under chaos: the retry helper absorbs
                  // rejection bursts while a shard is quarantined.
                  verdict = added[next]
                                ? fleet->submitRemoveFaultWithRetry(p, retry)
                                : fleet->submitAddFaultWithRetry(p, retry);
                } else if (added[next]) {
                  fleet->submitRemoveFault(p);
                } else {
                  fleet->submitAddFault(p);
                }
                if (verdict != SubmitResult::Accepted) {
                  // Gave up: leave the cell as it was, count nothing.
                  next = (next + 1) % toggleCells[w].size();
                  continue;
                }
              } else {
                if (added[next]) {
                  single->applyRemoveFault(p);
                } else {
                  single->applyAddFault(p);
                }
              }
              added[next] = !added[next];
              next = (next + 1) % toggleCells[w].size();
              events.fetch_add(1, std::memory_order_relaxed);
              std::this_thread::yield();
            }
          });
        }
        std::vector<std::thread> serving;
        for (std::size_t r = 0; r < serveThreads; ++r) {
          serving.emplace_back([&, r] {
            latencyMs[r].resize(shards + 1);
            std::uint64_t ok = 0;
            const auto& myBatches = batches[r % readers];
            if (readerThreads > 0) {
              // Partitioned mode: this thread owns shard r % shards and
              // serves only its intra batches — no mixed batch, no
              // cross-thread snapshot sharing. Per-thread batch count
              // matches a classic reader's (rounds * (shards + 1)).
              const std::size_t k = r % shards;
              const std::size_t cycles = rounds * (shards + 1);
              for (std::size_t round = 0; round < cycles; ++round) {
                const auto batchStart = Clock::now();
                ok += serveCount(myBatches[k]);
                latencyMs[r][k].push_back(
                    secondsSince(batchStart) * 1e3);
              }
            } else {
              for (std::size_t round = 0; round < rounds; ++round) {
                for (std::size_t k = 0; k <= shards; ++k) {
                  // Stagger shard order across readers so one shard's
                  // batches don't all land at once.
                  const std::size_t target = (k + r) % (shards + 1);
                  const auto batchStart = Clock::now();
                  ok += serveCount(myBatches[target]);
                  latencyMs[r][target].push_back(
                      secondsSince(batchStart) * 1e3);
                }
              }
            }
            delivered.fetch_add(ok, std::memory_order_relaxed);
          });
        }
        for (auto& t : serving) t.join();
        for (auto& t : churners) t.join();
        // Disarm BEFORE the drain: the drain is the recovery phase — it
        // must converge (and its time is on the clock, so the fleet pays
        // for healing every quarantine the window injected).
        if (chaos && fleet) FailpointRegistry::global().disarmAll();
        if (fleet) fleet->drainWriters();
        const double seconds = secondsSince(start);
        const std::uint64_t eventsInWindow = events.load();
        const std::uint64_t restartsInWindow =
            fleet ? fleet->counters().restarts - restartsBefore : 0;

        // Column-cache footprint after the measured window: resident
        // bytes across shard snapshots (what the budget bounds) and the
        // row's eviction count (nonzero proves the budget bit).
        std::uint64_t evictedCount = 0;
        double columnBytes = 0.0;
        if (fleet) {
          for (std::size_t k = 0; k < shards; ++k) {
            evictedCount += fleet->shard(k).counters().columnsEvicted;
            columnBytes += static_cast<double>(
                fleet->shard(k).columnFootprint().bytes);
          }
        } else {
          evictedCount = single->counters().columnsEvicted;
          columnBytes = static_cast<double>(single->columnFootprint().bytes);
        }

        const auto emitScope = [&](const std::string& scope,
                                   std::vector<double> samples,
                                   double qps, double deliveredPct,
                                   double stalePct, double shedPct,
                                   double deadlinePct) {
          std::sort(samples.begin(), samples.end());
          Table& row = table.row();
          row.cell(static_cast<std::int64_t>(meshSize));
          row.cell(std::string(fleet ? "fleet" : "single"));
          row.cell(scope);
          row.cell(static_cast<std::int64_t>(serveThreads));
          row.cell(static_cast<std::int64_t>(writerCount));
          row.cell(static_cast<std::int64_t>(readerThreads));
          row.cell(qps, 0);
          row.cell(percentileMs(samples, 50.0), 2);
          row.cell(percentileMs(samples, 99.0), 2);
          row.cell(static_cast<double>(eventsInWindow) / seconds, 1);
          row.cell(deliveredPct, 2);
          row.cell(stalePct, 2);
          row.cell(shedPct, 2);
          row.cell(deadlinePct, 2);
          row.cell(static_cast<std::int64_t>(restartsInWindow));
          row.cell(columnBytes / (1024.0 * 1024.0), 2);
          row.cell(static_cast<std::int64_t>(evictedCount));
        };

        std::vector<double> allMs;
        std::size_t totalBatches = 0;
        for (std::size_t r = 0; r < serveThreads; ++r) {
          for (const auto& perTarget : latencyMs[r]) {
            allMs.insert(allMs.end(), perTarget.begin(), perTarget.end());
            totalBatches += perTarget.size();
          }
        }
        const double total =
            static_cast<double>(totalBatches) * static_cast<double>(queries);
        const auto pct = [&](const std::atomic<std::uint64_t>& n) {
          return 100.0 * static_cast<double>(n.load()) / total;
        };
        emitScope("all", allMs, total / seconds,
                  100.0 * static_cast<double>(delivered.load()) / total,
                  pct(staleQ), pct(shedQ), pct(deadlineQ));
        for (std::size_t k = 0; k < shards; ++k) {
          std::vector<double> shardMs;
          for (std::size_t r = 0; r < serveThreads; ++r) {
            shardMs.insert(shardMs.end(), latencyMs[r][k].begin(),
                           latencyMs[r][k].end());
          }
          const double shardQueries =
              static_cast<double>(shardMs.size()) *
              static_cast<double>(queries);
          emitScope("shard" + std::to_string(k), shardMs,
                    shardQueries / seconds, 0.0, 0.0, 0.0, 0.0);
        }
        if (fleet) {
          // Degraded-mode row: the share of the workload the fleet
          // answered in a degraded way (stale, shed, or expired) and the
          // rate it did so at — the headline of a --chaos run.
          const double degraded = static_cast<double>(
              staleQ.load() + shedQ.load() + deadlineQ.load());
          emitScope("degraded", {}, degraded / seconds,
                    100.0 * degraded / total, pct(staleQ), pct(shedQ),
                    pct(deadlineQ));
        }
      }
    }
  }
  // Peak RSS lands in the final snapshot: the CI fleet-scale smoke
  // asserts a ceiling on it (an unbounded column cache fails the build).
  MetricsRegistry::global()
      .gauge("process.peak_rss_bytes")
      ->set(static_cast<std::int64_t>(processPeakRssBytes()));
  metricsDumper.stop();
  emitResult(table, flags);
  emitMetricsSnapshot(flags);
  return 0;
}
