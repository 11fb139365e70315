#include "service/route_service.h"

#include <algorithm>
#include <stdexcept>
#include <variant>

#include "route/batch_chase.h"

namespace meshrt {

namespace {

/// Pool instruments for one service's worker pool (the pool is built in
/// the member-init list, so this runs before the ctor body).
PoolTelemetry servicePoolTelemetry(const TelemetryConfig& telemetry) {
  MetricsRegistry& reg = telemetry.resolve();
  PoolTelemetry pt;
  pt.jobsExecuted = reg.counter("pool.jobs_executed");
  pt.queueDepth = reg.gauge("pool.queue_depth");
  pt.waitStall = telemetry.stageHistogram("pool.wait_stall_ns");
  return pt;
}

/// The one service compile: `dest`'s packed column over `snap`'s faults
/// (the dense byte array is compile scratch only).
std::shared_ptr<const ColumnVariant> compileSlot(Router& router,
                                                 const ServiceSnapshot& snap,
                                                 NodeId dest) {
  return std::make_shared<const ColumnVariant>(compilePackedRouteColumn(
      router, snap.faults(), snap.mesh().point(dest)));
}

}  // namespace

RouteService::RouteService(const FaultSet& initial, ServiceConfig cfg)
    : cfg_(std::move(cfg)),
      model_(initial),
      cachePolicy_(cfg_.columnBudgetBytes, model_.mesh().nodeCount()),
      pool_(cfg_.threads, servicePoolTelemetry(cfg_.telemetry)) {
  if (cfg_.routerKey.starts_with("table:")) {
    throw std::invalid_argument(
        "RouteService compiles tables itself; pass the inner key instead "
        "of '" +
        cfg_.routerKey + "'");
  }
  RouterRegistry::global().at(cfg_.routerKey);  // throws on unknown key
  MetricsRegistry& reg = cfg_.telemetry.resolve();
  columnsCompiled_ = reg.counter("service.columns_compiled");
  columnsCarried_ = reg.counter("service.columns_carried");
  columnsPatched_ = reg.counter("service.columns_patched");
  entriesPatched_ = reg.counter("service.entries_patched");
  columnsDropped_ = reg.counter("service.columns_dropped");
  snapshotsPublished_ = reg.counter("service.snapshots_published");
  queriesServed_ = reg.counter("service.queries_served");
  chasesDiverged_ = reg.counter("service.chases_diverged");
  chasesRetiredMinimal_ = reg.counter("service.chases_retired_minimal");
  columnsEvicted_ = reg.counter("service.columns.evicted");
  columnsRecompiled_ = reg.counter("service.columns.recompiled");
  columnsResident_ = reg.gauge("service.columns.resident");
  columnBytes_ = reg.gauge("service.column_bytes");
  serveClassifyNs_ = cfg_.telemetry.stageHistogram("serve.classify_ns");
  serveCompileNs_ = cfg_.telemetry.stageHistogram("serve.compile_ns");
  serveChaseNs_ = cfg_.telemetry.stageHistogram("serve.chase_ns");
  publishLabelPatchNs_ =
      cfg_.telemetry.stageHistogram("publish.label_patch_ns");
  publishColumnPatchNs_ =
      cfg_.telemetry.stageHistogram("publish.column_patch_ns");
  publishEpochSwapNs_ =
      cfg_.telemetry.stageHistogram("publish.epoch_swap_ns");
  FailpointRegistry& failpoints = FailpointRegistry::global();
  fpServe_ = &failpoints.point("service.serve.fail");
  fpCompile_ = &failpoints.point("service.compile.fail");
  fpPublish_ = &failpoints.point("service.publish.fail");
  model_.setTelemetry(LabelerTelemetry{reg.counter("labeler.cells_relabeled"),
                                       reg.counter("labeler.mccs_retired"),
                                       reg.counter("labeler.mccs_built")});
  // Warm-up: materialize every quadrant now so epoch clones share fully
  // built analyses (cloneFor would otherwise label absent quadrants from
  // scratch) and no sharded compile pays first-touch latency.
  model_.analysis().materializeAll();
  if (!cfg_.captureKnowledge.empty()) {
    knowledge_ = std::make_unique<KnowledgeBundle>(model_.analysis(),
                                                   cfg_.captureKnowledge);
  }
  box_.publish(std::make_unique<const ServiceSnapshot>(0, model_,
                                                       knowledge_.get()));
  snapshotsPublished_->add(1);
}

std::uint64_t RouteService::epoch() const {
  const auto snap = box_.acquire();
  return snap->epoch();
}

std::uint64_t RouteService::applyAddFault(Point p) {
  std::lock_guard<std::mutex> lock(writerMutex_);
  TraceSpan span(publishLabelPatchNs_.get());
  const FaultEvent event = model_.addFaultEvent(p);
  span.stop();
  return applyEvent(event);
}

std::uint64_t RouteService::applyRemoveFault(Point p) {
  std::lock_guard<std::mutex> lock(writerMutex_);
  TraceSpan span(publishLabelPatchNs_.get());
  const FaultEvent event = model_.removeFaultEvent(p);
  span.stop();
  return applyEvent(event);
}

std::uint64_t RouteService::applyEvent(const FaultEvent& event) {
  const auto current = box_.acquire();
  if (!event.applied) return current->epoch();
  // Fold this event's footprint into the pending set BEFORE anything can
  // throw: if the epoch build below aborts (a patch job of OUR task group
  // can fail — other callers' errors stay in their own groups), model_ is
  // already ahead of the published snapshot, and the next successful
  // publish must migrate columns against the union of every unpublished
  // footprint or carried columns could keep routing through the lost
  // event's fault.
  pendingChanged_.insert(pendingChanged_.end(), event.changedWorld.begin(),
                         event.changedWorld.end());
  pendingChanged_.push_back(event.fault);
  // "service.publish.fail" fires after the fold on purpose: the injected
  // abort exercises exactly the footprint-retention path above (the next
  // successful publish must migrate against this event's mask).
  failpointMaybeThrow(fpPublish_);

  if (knowledge_) knowledge_->sync();
  // epoch_swap covers the two non-contiguous capture/publish segments, so
  // it accumulates manually instead of through a TraceSpan.
  const bool timeSwap = publishEpochSwapNs_ != nullptr;
  std::uint64_t swapNs = 0;
  std::uint64_t swapT0 = timeSwap ? telemetryNowNs() : 0;
  // The capture shares COW pages with the writer's state AND inherits the
  // previous epoch's column table (another page-table copy), so building
  // the snapshot is O(pages), not O(mesh).
  auto next = std::make_unique<ServiceSnapshot>(
      current->epoch() + 1, model_, knowledge_.get(), current.get());
  if (timeSwap) swapNs += telemetryNowNs() - swapT0;

  TraceSpan columnPatchSpan(publishColumnPatchNs_.get());
  // Migrate inherited columns under the delta rule (see header). The
  // masked set holds every label-changed cell of every event since the
  // last publish (which always includes the toggled nodes): an entry
  // whose chase trajectory misses it cannot route into any new fault, so
  // its bytes stay correct verbatim and the inherited column stands.
  std::vector<NodeId> masked;
  masked.reserve(pendingChanged_.size());
  for (Point p : pendingChanged_) masked.push_back(mesh().id(p));
  std::sort(masked.begin(), masked.end());
  masked.erase(std::unique(masked.begin(), masked.end()), masked.end());

  const std::vector<NodeId> present = next->presentColumns();
  std::atomic<std::uint64_t> carried{0};
  std::atomic<std::uint64_t> entries{0};
  ServiceSnapshot& snap = *next;

  // Phase 1 (router-free): classify every inherited column — stand (no
  // chase crosses the masked set), drop (destination died), or collect
  // its upstream patch set. chaseUpstream is reverse BFS from the masked
  // cells, so the phase costs O(present x delta), not O(present x mesh).
  struct PatchWork {
    NodeId id = kInvalidNode;
    bool drop = false;
    std::vector<NodeId> cells;
  };
  std::vector<PatchWork> work(present.size());
  {
    // Owning pins, released before the budget sweep below (which skips
    // pinned slots).
    const auto oldColumns = snap.pinColumns(present);
    parallelFor(pool_, present.size(), [&](std::size_t k) {
      const NodeId id = present[k];
      if (snap.faults().isFaulty(snap.mesh().point(id))) {
        work[k].id = id;
        work[k].drop = true;
        return;
      }
      auto cells = chaseUpstream(std::get<PackedRouteColumn>(*oldColumns[k]),
                                 snap.mesh(), masked);
      if (cells.empty()) {
        carried.fetch_add(1);  // the inherited column stands as-is
        return;
      }
      entries.fetch_add(cells.size());
      work[k] = PatchWork{id, false, std::move(cells)};
    });
  }

  std::uint64_t dropped = 0;
  for (const PatchWork& w : work) {
    if (w.drop) {
      snap.dropColumn(w.id);
      ++dropped;
    }
  }
  std::erase_if(work, [](const PatchWork& w) {
    return w.id == kInvalidNode || w.drop;
  });

  // Phase 2: patch the affected columns, one router per chunk job. The
  // patched successor REPLACES the inherited column.
  forEachWithChunkRouter(snap, work.size(), [&](Router& router,
                                                std::size_t i) {
    // The successor re-derives its hop bound and minimal bits, so its
    // bytes equal a fresh compile's.
    const auto old = snap.column(work[i].id);
    snap.replaceColumn(work[i].id,
                       std::make_shared<const ColumnVariant>(
                           std::get<PackedRouteColumn>(*old).patched(
                               router, snap.faults(), work[i].cells)));
  });
  columnPatchSpan.stop();
  if (carried.load() != 0) columnsCarried_->add(carried.load());
  if (!work.empty()) columnsPatched_->add(work.size());
  if (entries.load() != 0) entriesPatched_->add(entries.load());
  if (dropped != 0) columnsDropped_->add(dropped);

  // Budget the successor BEFORE it publishes: patched columns are brand
  // new bytes (their pages detached from the predecessor), so an epoch
  // under churn is exactly where an unbounded table would creep.
  maybeEnforceBudget(*next);

  const std::uint64_t epoch = next->epoch();
  if (timeSwap) swapT0 = telemetryNowNs();
  box_.publish(std::unique_ptr<const ServiceSnapshot>(std::move(next)));
  if (timeSwap) {
    publishEpochSwapNs_->record(swapNs + (telemetryNowNs() - swapT0));
  }
  pendingChanged_.clear();
  snapshotsPublished_->add(1);
  return epoch;
}

void RouteService::forEachWithChunkRouter(
    const ServiceSnapshot& snap, std::size_t count,
    const std::function<void(Router&, std::size_t)>& body) {
  if (count == 0) return;
  // A handful of items per job: enough to amortize router construction,
  // small enough to load-balance. The group scopes both the wait and any
  // exception to THIS caller: concurrent batches and the writer neither
  // throttle us nor see our errors.
  TaskGroup group(pool_);
  const std::size_t jobs =
      std::min(count, std::max<std::size_t>(1, pool_.threadCount()) * 4);
  const std::size_t chunk = (count + jobs - 1) / jobs;
  for (std::size_t j = 0; j < jobs; ++j) {
    const std::size_t begin = j * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    group.submit([this, &snap, &body, begin, end] {
      // "service.compile.fail" fires before the router exists, modeling a
      // registry factory that blows up mid-compile; the error belongs to
      // THIS caller's group only (concurrent batches are unaffected).
      failpointMaybeThrow(fpCompile_);
      const auto router =
          RouterRegistry::global().create(cfg_.routerKey, snap.context());
      for (std::size_t i = begin; i < end; ++i) body(*router, i);
    });
  }
  group.wait();
}

void RouteService::compileColumns(const ServiceSnapshot& snap,
                                  std::vector<NodeId> dests) {
  forEachWithChunkRouter(snap, dests.size(), [&](Router& router,
                                                 std::size_t i) {
    snap.installColumn(dests[i], compileSlot(router, snap, dests[i]));
    columnsCompiled_->add(1);
    // A compile that refills an evicted slot is the budget's extra work;
    // fetch_and hands the bit to exactly one concurrent compiler.
    const auto prev =
        cachePolicy_.state[static_cast<std::size_t>(dests[i])].fetch_and(
            static_cast<std::uint8_t>(~ColumnCachePolicy::kEvictedBit),
            std::memory_order_relaxed);
    if (prev & ColumnCachePolicy::kEvictedBit) columnsRecompiled_->add(1);
  });
}

std::vector<std::shared_ptr<const ColumnVariant>> RouteService::pinOrCompile(
    const ServiceSnapshot& snap, const std::vector<NodeId>& dests) {
  auto pins = snap.pinColumns(dests);
  const bool budget = cachePolicy_.active();
  for (int attempt = 0; attempt < 4; ++attempt) {
    std::vector<NodeId> missing;
    for (std::size_t i = 0; i < dests.size(); ++i) {
      if (!pins[i]) missing.push_back(dests[i]);
    }
    if (missing.empty()) break;
    compileColumns(snap, std::move(missing));
    pins = snap.pinColumns(dests);
    // Without a budget nothing evicts between install and pin, so one
    // compile round always lands; with one, a concurrent sweep can win
    // the race and we go again.
    if (!budget) break;
  }
  std::vector<std::size_t> stragglers;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    if (!pins[i]) stragglers.push_back(i);
  }
  if (!stragglers.empty()) {
    // Terminal fallback: compile batch-local columns WITHOUT installing
    // them — nothing can evict what the table never held, so the batch
    // makes progress no matter how hot the sweep runs. Identical bytes
    // to an installed compile (the same compileSlot).
    std::vector<std::shared_ptr<const ColumnVariant>> local(
        stragglers.size());
    forEachWithChunkRouter(
        snap, stragglers.size(), [&](Router& router, std::size_t i) {
          local[i] = compileSlot(router, snap, dests[stragglers[i]]);
        });
    for (std::size_t i = 0; i < stragglers.size(); ++i) {
      pins[stragglers[i]] = std::move(local[i]);
    }
  }
  if (budget) {
    for (NodeId d : dests) cachePolicy_.touch(d);
  }
  return pins;
}

void RouteService::maybeEnforceBudget(const ServiceSnapshot& snap) {
  const ColumnEvictStats stats = snap.enforceColumnBudget(cachePolicy_);
  if (stats.evicted != 0) columnsEvicted_->add(stats.evicted);
  columnsResident_->set(static_cast<std::int64_t>(stats.residentCount));
  columnBytes_->set(static_cast<std::int64_t>(stats.residentBytes));
}

BatchResult RouteService::serve(const std::vector<Query>& batch,
                                bool wantPaths, std::uint64_t deadlineNs) {
  return serveOn(box_.acquire(), batch, wantPaths, deadlineNs);
}

BatchResult RouteService::serveOn(
    const SnapshotBox<ServiceSnapshot>::Handle& snap,
    const std::vector<Query>& batch, bool wantPaths,
    std::uint64_t deadlineNs) {
  failpointMaybeThrow(fpServe_);
  const Mesh2D& m = snap->mesh();
  const FaultSet& faults = snap->faults();
  // Deadline probe: free when no deadline was given (no clock read).
  const auto pastDeadline = [deadlineNs] {
    return deadlineNs != 0 && telemetryNowNs() >= deadlineNs;
  };

  BatchResult out;
  out.epoch = snap->epoch();
  out.status.assign(batch.size(), ServeStatus::NoRoute);
  out.hops.assign(batch.size(), 0);
  if (wantPaths) out.paths.resize(batch.size());

  // Status-only batches chase in lockstep (the only status-only engine),
  // except tiny ones. Tiny batches — the fleet stitcher's per-segment
  // serves are 1-query calls — and path serves go query by query: tiny
  // batches skip the O(nodeCount) classification scratch and the pool
  // dispatch, where zeroing nodeCount-sized vectors and a parallelFor
  // round-trip would cost hundreds of microseconds per call. Outcomes
  // are identical either way (scalar-vs-lockstep chase parity is pinned
  // by the packed-column tests).
  constexpr std::size_t kInlineBatch = 8;
  const bool tiny = batch.size() <= kInlineBatch;
  const bool lockstep = !tiny && !wantPaths;

  // One classification pass: dedup the destinations that need a column
  // (healthy endpoints, non-self). On the lockstep path it also retires
  // the specials into `out` right away while caching every chaseable
  // query's (source, dest) ids and the per-destination counts, so no
  // later pass repeats the fault lookups; countByDest doubles as the
  // dedup mask. Per-query serves dedup by sort + unique instead.
  constexpr std::uint32_t kSkipQuery = 0xFFFFFFFFu;
  TraceSpan classifySpan(serveClassifyNs_.get());
  std::vector<std::uint32_t> countByDest;
  std::vector<std::uint32_t> destOf;
  std::vector<NodeId> srcOf;
  std::size_t chaseable = 0;
  std::vector<NodeId> dests;
  if (lockstep) {
    countByDest.assign(static_cast<std::size_t>(m.nodeCount()), 0);
    destOf.resize(batch.size());
    srcOf.resize(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      if (faults.isFaulty(q.s) || faults.isFaulty(q.d)) {
        out.status[i] = ServeStatus::EndpointFaulty;
        destOf[i] = kSkipQuery;
        continue;
      }
      if (q.s == q.d) {
        out.status[i] = ServeStatus::Delivered;
        destOf[i] = kSkipQuery;
        continue;
      }
      const NodeId id = m.id(q.d);
      if (countByDest[static_cast<std::size_t>(id)]++ == 0) {
        dests.push_back(id);
      }
      destOf[i] = static_cast<std::uint32_t>(id);
      srcOf[i] = m.id(q.s);
      ++chaseable;
    }
  } else {
    for (const Query& q : batch) {
      if (q.s == q.d || faults.isFaulty(q.s) || faults.isFaulty(q.d)) {
        continue;
      }
      dests.push_back(m.id(q.d));
    }
  }
  // Deterministic compile order (k entries, not batch-many).
  std::sort(dests.begin(), dests.end());
  if (!lockstep) {
    dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  }
  classifySpan.stop();
  // Deadline gate ahead of the compile (the serve stage with unbounded
  // single-step cost). Queries already retired by the lockstep classify
  // keep their verdicts; everything unchased reports Deadline.
  if (pastDeadline()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!lockstep || destOf[i] != kSkipQuery) {
        out.status[i] = ServeStatus::Deadline;
      }
    }
    queriesServed_->add(batch.size());
    return out;
  }
  // Owning pins, taken once, instead of raw pointers: under a column
  // budget a sweep can null a slot mid-batch, but it can never reclaim a
  // column this batch holds a handle to. pinOrCompile waits on OUR task
  // group only, and its exceptions are ours alone — after it returns,
  // every requested column is pinned (an installed one, or a batch-local
  // fallback compile under a hot eviction sweep), so a chase can never
  // see a null column.
  std::vector<std::shared_ptr<const ColumnVariant>> pinned;
  {
    TraceSpan compileSpan(serveCompileNs_.get());
    pinned = pinOrCompile(*snap, dests);
  }
  std::atomic<std::uint64_t> diverged{0};
  std::atomic<std::uint64_t> retiredMinimal{0};
  TraceSpan chaseSpan(serveChaseNs_.get());

  if (!lockstep) {
    // The per-query chase. Status-only chases stop at the column's hop
    // bound, like the lockstep lanes, and answer a minimal source from
    // its bit at step 0 (a source is minimal exactly when it delivers in
    // Manhattan hops); path chases walk up to nodeCount steps so a
    // Diverged chase reports its whole attempted prefix.
    const auto serveQuery = [&](std::size_t i) {
      const Query& q = batch[i];
      if (pastDeadline()) {
        out.status[i] = ServeStatus::Deadline;
        return;
      }
      if (faults.isFaulty(q.s) || faults.isFaulty(q.d)) {
        out.status[i] = ServeStatus::EndpointFaulty;
        if (wantPaths) out.paths[i].push_back(q.s);
        return;
      }
      if (q.s == q.d) {
        out.status[i] = ServeStatus::Delivered;
        if (wantPaths) out.paths[i].push_back(q.s);
        return;
      }
      const auto at =
          std::lower_bound(dests.begin(), dests.end(), m.id(q.d)) -
          dests.begin();
      const auto& column = std::get<PackedRouteColumn>(
          *pinned[static_cast<std::size_t>(at)]);
      const std::size_t steps = wantPaths
                                    ? static_cast<std::size_t>(m.nodeCount())
                                    : column.hopBound();
      ServedRoute res = chaseColumn(column, m, q.s, steps, wantPaths);
      out.status[i] = res.status;
      if (res.status == ServeStatus::Delivered) {
        out.hops[i] = static_cast<std::int32_t>(res.hops);
        if (!wantPaths && res.hops == manhattan(q.s, q.d)) {
          retiredMinimal.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (wantPaths) out.paths[i] = std::move(res.path);
      if (res.status == ServeStatus::Diverged) {
        diverged.fetch_add(1, std::memory_order_relaxed);
      }
    };
    if (tiny) {
      for (std::size_t i = 0; i < batch.size(); ++i) serveQuery(i);
    } else {
      parallelFor(pool_, batch.size(), serveQuery);
    }
  } else {
    // Lockstep path: bucket chaseable queries by destination (counting
    // sort over the dedup'd dest list), so each group chases ONE packed
    // column — one gather base, L1-resident at serving meshes — in 8-wide
    // lanes. Specials (faulty endpoints, s == d) already retired in the
    // classification pass above; the fill pass reuses its cached ids so
    // the batch sees no second round of fault lookups.
    std::vector<const PackedRouteColumn*> packedOf(
        static_cast<std::size_t>(m.nodeCount()), nullptr);
    std::vector<std::uint32_t> groupStart(
        static_cast<std::size_t>(m.nodeCount()), 0);
    {
      std::uint32_t cursor = 0;
      for (std::size_t i = 0; i < dests.size(); ++i) {
        const auto di = static_cast<std::size_t>(dests[i]);
        packedOf[di] = &std::get<PackedRouteColumn>(*pinned[i]);
        groupStart[di] = cursor;
        cursor += countByDest[di];
        countByDest[di] = 0;  // reused as the per-group fill cursor
      }
    }
    // The fill pass answers every source whose own chase is Manhattan-
    // minimal straight from its column bit and the query's Points (exact:
    // that chase delivers in manhattan(s, d) <= hopBound() hops, the
    // lanes' cap), so only the rest enter lanes; each group fills a
    // prefix of its range.
    std::vector<std::uint32_t> queryOf(chaseable);  // grouped -> batch index
    std::vector<NodeId> srcIds(chaseable);          // grouped source ids
    std::uint64_t minimalCount = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (destOf[i] == kSkipQuery) continue;
      const auto di = static_cast<std::size_t>(destOf[i]);
      if (packedOf[di]->minimal(srcOf[i])) {
        out.status[i] = ServeStatus::Delivered;
        out.hops[i] =
            static_cast<std::int32_t>(manhattan(batch[i].s, batch[i].d));
        ++minimalCount;
        continue;
      }
      const std::uint32_t pos = groupStart[di] + countByDest[di]++;
      queryOf[pos] = static_cast<std::uint32_t>(i);
      srcIds[pos] = srcOf[i];
    }
    retiredMinimal.store(minimalCount, std::memory_order_relaxed);

    // Slice the grouped layout into jobs that never split a destination
    // mid-chunk beyond kChunk lanes; each job chases, then scatters its
    // own disjoint result range — deterministic for any thread count.
    struct ChaseJob {
      const PackedRouteColumn* column;
      std::uint32_t begin;
      std::uint32_t end;
    };
    constexpr std::uint32_t kChunk = 4096;
    std::vector<ChaseJob> jobs;
    for (const NodeId d : dests) {
      const auto di = static_cast<std::size_t>(d);
      const std::uint32_t begin = groupStart[di];
      const std::uint32_t end = begin + countByDest[di];
      if (begin == end) continue;
      const PackedRouteColumn* column = packedOf[di];
      for (std::uint32_t b = begin; b < end; b += kChunk) {
        jobs.push_back(ChaseJob{column, b, std::min(end, b + kChunk)});
      }
    }
    const bool allowSimd = cfg_.encoding == ColumnEncoding::Packed;
    std::vector<ServeStatus> groupStatus(chaseable);
    std::vector<std::int32_t> groupHops(chaseable, 0);
    parallelFor(pool_, jobs.size(), [&](std::size_t j) {
      const ChaseJob& job = jobs[j];
      // Deadline at chase-slice granularity: an expired job retires its
      // whole slice as Deadline without touching the column; the
      // overshoot past the deadline is bounded by one kChunk slice's
      // chase.
      if (pastDeadline()) {
        for (std::uint32_t p = job.begin; p < job.end; ++p) {
          out.status[queryOf[p]] = ServeStatus::Deadline;
        }
        return;
      }
      chaseBatch(*job.column, srcIds.data() + job.begin, job.end - job.begin,
                 job.column->hopBound(), groupStatus.data() + job.begin,
                 groupHops.data() + job.begin, allowSimd);
      std::uint64_t localDiverged = 0;
      for (std::uint32_t p = job.begin; p < job.end; ++p) {
        const std::uint32_t qi = queryOf[p];
        out.status[qi] = groupStatus[p];
        out.hops[qi] = groupHops[p];
        if (groupStatus[p] == ServeStatus::Diverged) ++localDiverged;
      }
      if (localDiverged != 0) diverged.fetch_add(localDiverged);
    });
  }
  chaseSpan.stop();
  queriesServed_->add(batch.size());
  if (diverged.load() != 0) chasesDiverged_->add(diverged.load());
  if (retiredMinimal.load() != 0) {
    chasesRetiredMinimal_->add(retiredMinimal.load());
  }
  pinned.clear();  // release the pins, or the sweep must skip them
  maybeEnforceBudget(*snap);
  return out;
}

void RouteService::precompileAll() {
  const auto snap = box_.acquire();
  std::vector<NodeId> missing;
  for (NodeId id = 0; id < snap->mesh().nodeCount(); ++id) {
    if (snap->faults().isHealthy(snap->mesh().point(id)) &&
        snap->column(id) == nullptr) {
      missing.push_back(id);
    }
  }
  compileColumns(*snap, std::move(missing));
  maybeEnforceBudget(*snap);
}

ServiceCounters RouteService::counters() const {
  ServiceCounters c;
  c.columnsCompiled = columnsCompiled_->value();
  c.columnsCarried = columnsCarried_->value();
  c.columnsPatched = columnsPatched_->value();
  c.entriesPatched = entriesPatched_->value();
  c.columnsDropped = columnsDropped_->value();
  c.snapshotsPublished = snapshotsPublished_->value();
  c.queriesServed = queriesServed_->value();
  c.chasesDiverged = chasesDiverged_->value();
  c.columnsEvicted = columnsEvicted_->value();
  c.columnsRecompiled = columnsRecompiled_->value();
  return c;
}

ColumnFootprint RouteService::columnFootprint() const {
  const auto snap = box_.acquire();
  return ColumnFootprint{snap->residentColumnBytes(),
                         snap->residentColumnCount()};
}

}  // namespace meshrt
