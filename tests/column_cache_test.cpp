// Differential suite for the bounded column cache (snapshot.h:
// ColumnCachePolicy + enforceColumnBudget, wired through RouteService's
// pin-or-compile serve path). The budget is a pure footprint knob: every
// test here asserts that a tightly budgeted service serves bit-identical
// results to an unbounded one — across registry keys, serve engines, and
// live churn — while its eviction/recompile counters prove the budget
// actually did something. DESIGN.md section 14.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "route/packed_column.h"
#include "service/route_service.h"
#include "test_util.h"

namespace meshrt {
namespace {

using testutil::expectServedMatchesDenseChase;

ServiceConfig cacheConfig(const std::string& key, ColumnEncoding encoding,
                          std::size_t budgetBytes) {
  ServiceConfig cfg;
  cfg.routerKey = key;
  cfg.threads = 2;
  cfg.encoding = encoding;
  cfg.columnBudgetBytes = budgetBytes;
  return cfg;
}

/// Random sources against a pooled destination set (eviction pressure
/// needs repeated destinations more than it needs coverage).
std::vector<Query> pooledBatch(const Mesh2D& mesh, const FaultSet& faults,
                               std::size_t count, std::size_t poolSize,
                               std::uint64_t seed) {
  Rng rng(seed);
  const auto cell = [&] {
    while (true) {
      const Point p{
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))};
      if (faults.isHealthy(p)) return p;
    }
  };
  std::vector<Point> pool;
  for (std::size_t i = 0; i < poolSize; ++i) pool.push_back(cell());
  std::vector<Query> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back({cell(), pool[i % pool.size()]});
  }
  return batch;
}

void expectIdenticalResults(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    EXPECT_EQ(a.status[i], b.status[i]);
    EXPECT_EQ(a.hops[i], b.hops[i]);
    EXPECT_EQ(a.paths[i], b.paths[i]);
  }
}

/// Byte-level image of one compiled column: next() over every node. Two
/// columns with equal images serve identically by construction
/// (chaseColumn reads nothing else per hop).
std::vector<std::uint8_t> columnImage(const ColumnVariant& column,
                                      NodeId nodeCount) {
  std::vector<std::uint8_t> image;
  image.reserve(static_cast<std::size_t>(nodeCount));
  for (NodeId id = 0; id < nodeCount; ++id) {
    image.push_back(std::get<PackedRouteColumn>(column).next(id));
  }
  return image;
}

// The tight budgets below are a handful of columns at 64x64 (a packed
// column is 2051 B): small enough that a pooled workload must evict,
// large enough that single columns fit.
constexpr std::size_t kTightBudget = 8 * 1024;

TEST(ColumnCacheTest, EvictionDifferentialAcrossKeysAndEncodings) {
  const Mesh2D mesh = Mesh2D::square(64);
  Rng rng(7001);
  const FaultSet faults = injectUniform(mesh, 80, rng);
  for (const std::string key : {"ecube", "rb2"}) {
    for (const ColumnEncoding encoding :
         {ColumnEncoding::Packed, ColumnEncoding::PackedScalar}) {
      SCOPED_TRACE(key + "/" + std::string(columnEncodingName(encoding)));
      RouteService unbounded(faults, cacheConfig(key, encoding, 0));
      RouteService bounded(faults,
                           cacheConfig(key, encoding, kTightBudget));
      // Churn cells toggle on both services in the same order, so every
      // compared round runs on identical fault state.
      const std::vector<Query> probe =
          pooledBatch(mesh, faults, 160, 12, 7002);
      std::vector<Point> toggles;
      Rng trng(7003);
      while (toggles.size() < 6) {
        const Point p{static_cast<Coord>(trng.below(64)),
                      static_cast<Coord>(trng.below(64))};
        if (faults.isHealthy(p)) toggles.push_back(p);
      }
      for (std::size_t round = 0; round < 4; ++round) {
        // The unbounded service never evicts, so its pinned epoch still
        // holds every column it chased: the dense-chase oracle's input.
        const auto snap = unbounded.snapshot();
        const BatchResult a =
            unbounded.serveOn(snap, probe, /*wantPaths=*/true);
        const BatchResult b = bounded.serve(probe, /*wantPaths=*/true);
        expectServedMatchesDenseChase(*snap, probe, a);
        expectIdenticalResults(a, b);
        const BatchResult flatA = unbounded.serveOn(snap, probe);
        const BatchResult flatB = bounded.serve(probe);
        expectServedMatchesDenseChase(*snap, probe, flatA);
        EXPECT_EQ(flatA.status, flatB.status);
        EXPECT_EQ(flatA.hops, flatB.hops);
        const Point p = toggles[round % toggles.size()];
        if (round % 2 == 0) {
          unbounded.applyAddFault(p);
          bounded.applyAddFault(p);
        } else {
          unbounded.applyRemoveFault(p);
          bounded.applyRemoveFault(p);
        }
      }
      EXPECT_EQ(unbounded.counters().columnsEvicted, 0u);
      EXPECT_GT(bounded.counters().columnsEvicted, 0u);
      EXPECT_LE(bounded.columnFootprint().bytes, kTightBudget);
    }
  }
}

TEST(ColumnCacheTest, RecompileAfterEvictBitIdentical) {
  const Mesh2D mesh = Mesh2D::square(64);
  Rng rng(7101);
  const FaultSet faults = injectUniform(mesh, 60, rng);
  RouteService service(faults,
                       cacheConfig("ecube", ColumnEncoding::Packed,
                                   kTightBudget));
  const Point dest{5, 9};
  ASSERT_TRUE(faults.isHealthy(dest));
  const NodeId destId = mesh.id(dest);
  service.serve({{Point{40, 40}, dest}});
  std::vector<std::uint8_t> original;
  std::size_t originalBytes = 0;
  std::uint32_t originalHopBound = 0;
  std::size_t originalRouted = 0;
  {
    const auto snap = service.snapshot();
    const auto column = snap->column(destId);
    ASSERT_NE(column, nullptr);
    original = columnImage(*column, mesh.nodeCount());
    originalBytes = columnSizeBytes(*column);
    const auto& packed = std::get<PackedRouteColumn>(*column);
    originalHopBound = packed.hopBound();
    originalRouted = packed.routedSources();
  }
  // Flood the cache with other destinations until the slot is gone.
  std::size_t flood = 0;
  while (service.snapshot()->column(destId) != nullptr && flood < 64) {
    service.serve(pooledBatch(mesh, faults, 40, 10, 7102 + flood));
    ++flood;
  }
  ASSERT_EQ(service.snapshot()->column(destId), nullptr)
      << "budget never evicted the probe column";
  EXPECT_GT(service.counters().columnsEvicted, 0u);
  const std::uint64_t recompiledBefore =
      service.counters().columnsRecompiled;
  // Next touch recompiles; the refilled column must be byte-for-byte
  // the evicted one (same epoch, same faults — eviction is invisible).
  service.serve({{Point{40, 40}, dest}});
  const auto snap = service.snapshot();
  const auto column = snap->column(destId);
  ASSERT_NE(column, nullptr);
  EXPECT_EQ(columnImage(*column, mesh.nodeCount()), original);
  EXPECT_EQ(columnSizeBytes(*column), originalBytes);
  const auto& packed = std::get<PackedRouteColumn>(*column);
  EXPECT_EQ(packed.hopBound(), originalHopBound);
  EXPECT_EQ(packed.routedSources(), originalRouted);
  EXPECT_GT(service.counters().columnsRecompiled, recompiledBefore);
}

TEST(ColumnCacheTest, PinnedColumnNeverEvictedMidBatch) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(7201);
  const FaultSet faults = injectUniform(mesh, 20, rng);
  RouteService service(faults,
                       cacheConfig("ecube", ColumnEncoding::Packed, 0));
  // Compile a handful of columns, then run the sweep directly (the same
  // call the serve tail makes) with an impossible budget while holding
  // batch pins on two of them: the pinned slots must survive.
  std::vector<NodeId> dests;
  std::vector<Query> warm;
  for (Coord x = 2; x < 12; ++x) {
    const Point d{x, 3};
    if (faults.isFaulty(d)) continue;
    dests.push_back(mesh.id(d));
    warm.push_back({Point{20, 20}, d});
  }
  ASSERT_GE(dests.size(), 4u);
  service.serve(warm);
  const auto snap = service.snapshot();
  const std::vector<NodeId> pinnedDests{dests[0], dests[1]};
  const auto pins = snap->pinColumns(pinnedDests);
  ASSERT_NE(pins[0], nullptr);
  ASSERT_NE(pins[1], nullptr);
  ColumnCachePolicy policy(1, mesh.nodeCount());  // evict everything
  const ColumnEvictStats stats = snap->enforceColumnBudget(policy);
  EXPECT_GT(stats.evicted, 0u);
  // Pinned slots skipped (use_count > 1); unpinned ones are fair game.
  EXPECT_NE(snap->column(pinnedDests[0]), nullptr);
  EXPECT_NE(snap->column(pinnedDests[1]), nullptr);
  // And the pins themselves stay chaseable images of the original.
  EXPECT_EQ(columnImage(*pins[0], mesh.nodeCount()),
            columnImage(*snap->column(pinnedDests[0]), mesh.nodeCount()));
}

TEST(ColumnCacheTest, BudgetHoldsUnderChurn) {
  const Mesh2D mesh = Mesh2D::square(64);
  Rng rng(7401);
  const FaultSet faults = injectUniform(mesh, 80, rng);
  RouteService service(faults,
                       cacheConfig("rb2", ColumnEncoding::Packed,
                                   kTightBudget));
  std::vector<Point> toggles;
  while (toggles.size() < 8) {
    const Point p{static_cast<Coord>(rng.below(64)),
                  static_cast<Coord>(rng.below(64))};
    if (faults.isHealthy(p)) toggles.push_back(p);
  }
  bool added = false;
  for (std::size_t round = 0; round < 6; ++round) {
    service.serve(pooledBatch(mesh, faults, 80, 16, 7402 + round));
    // The serve tail sweeps after releasing its pins, so a drained
    // service sits at or under budget every round, across epochs.
    EXPECT_LE(service.columnFootprint().bytes, kTightBudget)
        << "round " << round;
    const Point p = toggles[round % toggles.size()];
    if (added) {
      service.applyRemoveFault(p);
    } else {
      service.applyAddFault(p);
    }
    added = !added;
  }
  EXPECT_GT(service.counters().columnsEvicted, 0u);
}

}  // namespace
}  // namespace meshrt
