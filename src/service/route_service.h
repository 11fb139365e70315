// RouteService: the concurrent route-query front end. Compiles the
// configured router into per-destination next-hop columns (sharded across
// a thread pool), serves batched point-to-point queries with O(1) table
// lookups per hop, and stays correct under live fault churn by serving
// every batch from an immutable epoch snapshot while applyAddFault /
// applyRemoveFault build the next epoch from the incremental labeler's
// deltas — recompiling only the columns whose dependency region the delta
// touched. Epoch snapshots are copy-on-write paged end to end (fault set,
// labels, MCC indices, knowledge, column table), so publishing an epoch
// costs O(pages touched by the delta), not O(mesh) — the storage-side
// mirror of the incremental compute. This is the layer that turns the
// reproduction from "runs experiments" into "answers traffic"; see
// DESIGN.md sections 7 and 9.
//
// Threading model:
//   - serve() may be called from any number of reader threads; each batch
//     is answered entirely against one pinned snapshot, sharded over the
//     service's pool on a per-batch TaskGroup, and reduced serially —
//     results are bitwise identical for threads=1 and threads=N.
//   - Overlapping batches and the churn writer share the pool's workers
//     but wait only on their own groups, so they make independent
//     progress (no global idle barrier), and a job exception surfaces
//     only on the caller whose group raised it (DESIGN.md section 8).
//   - applyAddFault/applyRemoveFault are serialized internally (multiple
//     writer threads are safe, though the intended shape is one writer);
//     a failed epoch build keeps its un-published event footprints
//     (pendingChanged_) so the next publish migrates columns against the
//     full delta mask.
//   - Retired snapshots are reclaimed when their last reader drains
//     (common/epoch.h); liveSnapshots() observes that.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/epoch.h"
#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "service/snapshot.h"

namespace meshrt {

/// Which lockstep engine serves batches from the snapshots' 3-bit
/// PackedRouteColumns. Both produce bit-identical serve results (the
/// differential suites in tests/packed_column_test.cpp enforce it, with
/// the dense RouteColumn chase as the oracle); they differ only in
/// throughput.
enum class ColumnEncoding : std::uint8_t {
  /// Batched queries chased in 8-lane lockstep per destination group,
  /// AVX2 gather lanes when the CPU has them (the default).
  Packed,
  /// The SIMD dispatch forced off: the portable scalar-lockstep engine,
  /// for A/Bs and the CI differential jobs.
  PackedScalar,
};

constexpr std::string_view columnEncodingName(ColumnEncoding e) {
  return e == ColumnEncoding::Packed ? "packed" : "packed-scalar";
}

struct ServiceConfig {
  /// Registry key of the router the tables compile ("rb2", "table:..."
  /// keys excluded — the service IS the table layer).
  std::string routerKey = "rb2";
  /// Worker threads for column compiles and batched serves (0 = cores).
  std::size_t threads = 0;
  /// Info models to capture into snapshots (pass {InfoModel::B1} for
  /// rb1, {InfoModel::B3} for the rb3 family); empty skips knowledge
  /// capture entirely, which is right for rb2/ecube/optimal-class keys.
  std::vector<InfoModel> captureKnowledge;
  /// Batch serve engine (benches A/B SIMD vs scalar lockstep).
  ColumnEncoding encoding = ColumnEncoding::Packed;
  /// Resident column byte ceiling for the bounded column cache (0 =
  /// unbounded, the historical behavior). When set, serve tails and
  /// publishes run a CLOCK second-chance sweep over the snapshot column
  /// table (snapshot.h: enforceColumnBudget) — evicted columns recompile
  /// bit-identically on next touch, so every serve result is unchanged;
  /// only footprint and recompile work move. DESIGN.md section 14.
  std::size_t columnBudgetBytes = 0;
  /// Metrics wiring (common/telemetry.h). Counters/gauges are always
  /// live; `telemetry.enabled` gates the serve/publish stage histograms
  /// (the clock-reading part — the MESHRT_TELEMETRY=off A/B axis).
  TelemetryConfig telemetry;
};

struct Query {
  Point s;
  Point d;
};

/// One served batch in SoA form: every result was computed against the
/// same epoch. status and hops are always sized to the batch; paths are
/// produced only when the caller asked for them (wantPaths), so the
/// high-QPS mode never allocates per query — 5 bytes of flat state per
/// result instead of a ServedRoute with a vector slot each.
struct BatchResult {
  std::uint64_t epoch = 0;
  std::vector<ServeStatus> status;
  /// Hop counts, valid where delivered (0 otherwise).
  std::vector<std::int32_t> hops;
  /// Chase paths, index-aligned with status; empty unless wantPaths.
  std::vector<std::vector<Point>> paths;

  std::size_t size() const { return status.size(); }
  bool delivered(std::size_t i) const {
    return status[i] == ServeStatus::Delivered;
  }
};

/// Monotonic counters for tests and benches (thin reads over the
/// service's registry instruments; see counters()).
struct ServiceCounters {
  /// Full column compiles (mesh-many routes each).
  std::uint64_t columnsCompiled = 0;
  /// Columns shared into a new epoch untouched (no chase crossed the
  /// event's footprint).
  std::uint64_t columnsCarried = 0;
  /// Columns copied with only the affected entries recomputed.
  std::uint64_t columnsPatched = 0;
  /// Entries recomputed across all patches (the per-event work unit).
  std::uint64_t entriesPatched = 0;
  /// Columns dropped because their destination became faulty.
  std::uint64_t columnsDropped = 0;
  std::uint64_t snapshotsPublished = 0;
  std::uint64_t queriesServed = 0;
  std::uint64_t chasesDiverged = 0;
  /// Columns evicted by the bounded cache (0 without a budget).
  std::uint64_t columnsEvicted = 0;
  /// Always 0: columns compile packed and are never re-encoded. Kept
  /// because the perfbench driver (perfbench/meshbench.cpp) sums it.
  std::uint64_t columnsDemoted = 0;
  /// Compiles that refilled a previously evicted slot (a subset of
  /// columnsCompiled — the budget's extra work, bit-identical output).
  std::uint64_t columnsRecompiled = 0;
};

/// Resident column footprint of the current snapshot.
struct ColumnFootprint {
  std::size_t bytes = 0;
  std::size_t count = 0;
};

class RouteService {
 public:
  /// Starts at epoch 0 over a copy of `initial`. Throws
  /// std::invalid_argument on an unknown router key.
  explicit RouteService(const FaultSet& initial, ServiceConfig cfg = {});

  const Mesh2D& mesh() const { return model_.mesh(); }
  const ServiceConfig& config() const { return cfg_; }

  /// Epoch of the currently published snapshot.
  std::uint64_t epoch() const;

  /// Pins the current snapshot (tests validate served paths against the
  /// pinned epoch's fault set).
  SnapshotBox<ServiceSnapshot>::Handle snapshot() const {
    return box_.acquire();
  }

  /// Applies one fault event through the incremental labeler and
  /// publishes the next epoch. The new snapshot inherits the previous
  /// epoch's column table by COW page sharing; inherited columns then
  /// migrate by the delta rule: a column stands untouched when no chase
  /// in it crosses the event's label-change footprint, is replaced by an
  /// entry-wise patched successor when some do (chaseUpstream), and is
  /// dropped when its destination died. No-op toggles publish nothing.
  /// Returns the epoch current after the call.
  std::uint64_t applyAddFault(Point p);
  std::uint64_t applyRemoveFault(Point p);

  /// Serves a batch against one pinned snapshot: missing destination
  /// columns compile first (sharded), then queries chase tables in
  /// parallel. With wantPaths=false only status/hops are produced (the
  /// high-QPS mode). Deterministic per (snapshot, batch) regardless of
  /// thread count.
  ///
  /// `deadlineNs` (telemetryNowNs() clock, 0 = none) bounds the serve:
  /// once it passes, queries not yet chased come back as
  /// ServeStatus::Deadline instead of blocking the reader. The check
  /// runs at chase-slice granularity (kChunk lanes on the lockstep path,
  /// one query on the per-query path), so the overshoot past the
  /// deadline is one slice's chase, not one batch's. A missing
  /// column compile that was already in flight runs to completion —
  /// compiles install into the shared snapshot all-or-nothing.
  BatchResult serve(const std::vector<Query>& batch, bool wantPaths = false,
                    std::uint64_t deadlineNs = 0);

  /// serve() against an explicitly pinned snapshot handle (from
  /// snapshot()) instead of the current epoch. The fleet frontend pins
  /// one handle per shard per batch so every segment of a stitched path
  /// is chased — and later validated — against the same epoch.
  BatchResult serveOn(const SnapshotBox<ServiceSnapshot>::Handle& snap,
                      const std::vector<Query>& batch,
                      bool wantPaths = false, std::uint64_t deadlineNs = 0);

  /// Compiles every healthy destination's column in the current snapshot
  /// (bench warm-up / eager mode). With a column budget the compiled set
  /// is immediately swept back under the ceiling — eager warm-up cannot
  /// defeat the bound.
  void precompileAll();

  ServiceCounters counters() const;

  /// Resident column bytes/count of the current snapshot (what the
  /// budget bounds; the fleet exports it per shard as a gauge).
  ColumnFootprint columnFootprint() const;

  /// Snapshots currently alive (current + retired-but-pinned).
  std::uint64_t liveSnapshots() const { return box_.liveCount(); }

 private:
  std::uint64_t applyEvent(const FaultEvent& event);
  /// Shards `count` work items into contiguous chunks across the pool,
  /// builds ONE router per chunk job (construction is not free — rb1/rb3
  /// without captured knowledge rebuild quadrant knowledge) and calls
  /// body(router, index) for each item. Blocks until done.
  void forEachWithChunkRouter(
      const ServiceSnapshot& snap, std::size_t count,
      const std::function<void(Router&, std::size_t)>& body);
  /// Compiles the columns for `dests` (deduplicated NodeIds) into `snap`.
  void compileColumns(const ServiceSnapshot& snap,
                      std::vector<NodeId> dests);
  /// Owning handles for `dests`, compiling missing columns first. With a
  /// column budget this loops (a concurrent sweep can evict a column
  /// between its install and our pin) and falls back to batch-local,
  /// NOT-installed compiles after a few rounds, so progress is
  /// guaranteed; results are bit-identical either way (both flow through
  /// the same packed compile). Also sets the CLOCK ref bits.
  std::vector<std::shared_ptr<const ColumnVariant>> pinOrCompile(
      const ServiceSnapshot& snap, const std::vector<NodeId>& dests);
  /// Runs the eviction sweep when a budget is configured and refreshes
  /// the resident-footprint gauges (always, so unbounded runs export
  /// their footprint too).
  void maybeEnforceBudget(const ServiceSnapshot& snap);

  ServiceConfig cfg_;
  DynamicFaultModel model_;                       // writer-side state
  /// CLOCK state shared by every epoch of this service (snapshot.h).
  ColumnCachePolicy cachePolicy_;
  std::unique_ptr<KnowledgeBundle> knowledge_;    // writer-side, optional
  mutable ThreadPool pool_;
  SnapshotBox<ServiceSnapshot> box_;
  std::mutex writerMutex_;
  /// Label-change footprints of events applied to model_ but not yet
  /// covered by a successful publish (guarded by writerMutex_); cleared
  /// after each publish so an aborted epoch build can never lose a
  /// footprint from the next migration mask.
  std::vector<Point> pendingChanged_;

  // Registry instruments ("service.*"). Each service mints its own
  // instances, so counters() reads exact per-service values while the
  // registry aggregates across services by name. The stage histograms
  // ("serve.*" / "publish.*") are null when cfg_.telemetry.enabled is
  // off — TraceSpan then skips the clock entirely.
  std::shared_ptr<Counter> columnsCompiled_;
  std::shared_ptr<Counter> columnsCarried_;
  std::shared_ptr<Counter> columnsPatched_;
  std::shared_ptr<Counter> entriesPatched_;
  std::shared_ptr<Counter> columnsDropped_;
  std::shared_ptr<Counter> snapshotsPublished_;
  std::shared_ptr<Counter> queriesServed_;
  std::shared_ptr<Counter> chasesDiverged_;
  /// Chaseable queries answered from their source's minimal bit with no
  /// walk at all (packed columns, status/hops serves).
  std::shared_ptr<Counter> chasesRetiredMinimal_;
  std::shared_ptr<Counter> columnsEvicted_;
  std::shared_ptr<Counter> columnsRecompiled_;
  /// Resident columns / bytes of the current snapshot (set-style gauges,
  /// refreshed by maybeEnforceBudget).
  std::shared_ptr<Gauge> columnsResident_;
  std::shared_ptr<Gauge> columnBytes_;
  std::shared_ptr<Histogram> serveClassifyNs_;
  std::shared_ptr<Histogram> serveCompileNs_;
  std::shared_ptr<Histogram> serveChaseNs_;
  std::shared_ptr<Histogram> publishLabelPatchNs_;
  std::shared_ptr<Histogram> publishColumnPatchNs_;
  std::shared_ptr<Histogram> publishEpochSwapNs_;

  // Injection sites (common/failpoint.h), cached once at construction so
  // the hot paths never touch the registry map. Disarmed cost per check:
  // one relaxed load.
  Failpoint* fpServe_;    ///< "service.serve.fail": serveOn entry
  Failpoint* fpCompile_;  ///< "service.compile.fail": per chunk-router job
  Failpoint* fpPublish_;  ///< "service.publish.fail": post-footprint-fold
};

}  // namespace meshrt
