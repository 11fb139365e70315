// Differential suite for hierarchical stitch planning
// (src/service/stitch_planner.h). The contract: Hierarchical mode —
// epoch-cached border supergraph, lazy waypoint materialization, and the
// (shard pair, border-epoch vector) plan cache — serves every cross-shard
// batch bit-identically to Flat mode's per-batch full-graph rebuild on
// the same pinned views, across live churn. The planner counters prove
// the caches are doing work (reuse, hits) and that border-touching
// events — and only those — invalidate them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injectors.h"
#include "fleet_test_util.h"
#include "service/fleet.h"

namespace meshrt {
namespace {

using fleettest::injectInterior;
using fleettest::pooledBatch;
using fleettest::validateAgainstPinnedEpochs;

FleetConfig planConfig(StitchPlanMode mode) {
  FleetConfig cfg = fleettest::fleetConfig("rb2", 2);
  cfg.stitchPlan = mode;
  return cfg;
}

TEST(StitchPlanTest, HierarchicalVsFlatDifferential) {
  const Mesh2D mesh = Mesh2D::square(64);
  Rng rng(9001);
  const FaultSet faults = injectUniform(mesh, 60, rng);
  ServiceFleet hier(faults, planConfig(StitchPlanMode::Hierarchical));
  ServiceFleet flat(faults, planConfig(StitchPlanMode::Flat));
  // Waves of identical batches with identical synchronous churn between
  // them: both planners always see the same pinned views, so results
  // must be bit-identical — status, hops, full stitched paths.
  std::vector<Point> toggles;
  Rng trng(9002);
  while (toggles.size() < 6) {
    const Point p{static_cast<Coord>(trng.below(64)),
                  static_cast<Coord>(trng.below(64))};
    if (faults.isHealthy(p)) toggles.push_back(p);
  }
  bool added = false;
  for (std::size_t wave = 0; wave < 4; ++wave) {
    SCOPED_TRACE("wave " + std::to_string(wave));
    const std::vector<Query> batch = pooledBatch(mesh, 120, 10, 9003 + wave);
    const FleetBatchResult hr = hier.serve(batch, /*wantPaths=*/true);
    const FleetBatchResult fr = flat.serve(batch, /*wantPaths=*/true);
    ASSERT_EQ(hr.size(), fr.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                   "->" + batch[i].d.str());
      EXPECT_EQ(hr.status[i], fr.status[i]);
      EXPECT_EQ(hr.hops[i], fr.hops[i]);
      EXPECT_EQ(hr.paths[i], fr.paths[i]);
    }
    validateAgainstPinnedEpochs(hier.layout(), batch, hr);
    const Point p = toggles[wave % toggles.size()];
    if (added) {
      hier.applyRemoveFault(p);
      flat.applyRemoveFault(p);
    } else {
      hier.applyAddFault(p);
      flat.applyAddFault(p);
    }
    added = !added;
  }
  const FleetCounters hc = hier.counters();
  const FleetCounters fc = flat.counters();
  EXPECT_GT(hc.crossQueries, 0u);
  EXPECT_EQ(hc.crossQueries, fc.crossQueries);
  // Flat rescans every border on every cross batch; hierarchical only
  // scans what its shard paths cross, once per border-epoch pair.
  EXPECT_LT(hc.borderBuilds, fc.borderBuilds);
  EXPECT_GT(hc.borderReuses, 0u);
}

TEST(StitchPlanTest, PlanCacheInvalidationOnBorderFault) {
  const Mesh2D mesh = Mesh2D::square(64);
  const ShardLayout probe(mesh, 2, 2);
  Rng rng(9101);
  const FaultSet faults = injectInterior(probe, 40, 3, rng);
  ServiceFleet fleet(faults, planConfig(StitchPlanMode::Hierarchical));
  const std::vector<Query> batch = pooledBatch(mesh, 100, 8, 9102);
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters warm = fleet.counters();
  ASSERT_GT(warm.crossQueries, 0u);
  // Same epochs, same shard pairs: the second serve answers its shard
  // paths from the plan cache.
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters repeat = fleet.counters();
  EXPECT_GT(repeat.planCacheHits, warm.planCacheHits);
  EXPECT_EQ(repeat.planInvalidations, warm.planInvalidations);
  // A fault ON shard 0's owned border ring bumps its border epoch: the
  // next batch's epoch vector no longer matches, the plan cache clears,
  // and the crossed borders rescan under the new epoch pair.
  const Point borderCell{31, 16};
  ASSERT_TRUE(faults.isHealthy(borderCell));
  fleet.applyAddFault(borderCell);
  const FleetBatchResult after = fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters invalidated = fleet.counters();
  EXPECT_GT(invalidated.planInvalidations, repeat.planInvalidations);
  EXPECT_GT(invalidated.borderBuilds, repeat.borderBuilds);
  // Rerouted results still hold every pinned-epoch invariant, and no
  // delivered path steps on the new fault.
  validateAgainstPinnedEpochs(fleet.layout(), batch, after);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!after.delivered(i)) continue;
    for (const Point c : after.paths[i]) EXPECT_NE(c, borderCell);
  }
}

TEST(StitchPlanTest, BorderEpochBumpsOnlyOnRingEvents) {
  const Mesh2D mesh = Mesh2D::square(64);
  const ShardLayout probe(mesh, 2, 2);
  Rng rng(9201);
  const FaultSet faults = injectInterior(probe, 40, 3, rng);
  ServiceFleet fleet(faults, planConfig(StitchPlanMode::Hierarchical));
  const std::vector<Query> batch = pooledBatch(mesh, 100, 8, 9202);
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters warm = fleet.counters();
  ASSERT_GT(warm.crossQueries, 0u);
  // A deep-interior event (margin clear of every owned ring and every
  // halo replica) advances snapshot epochs but not border epochs: the
  // border cache and the plan cache both stay valid.
  const Point interior{10, 10};
  ASSERT_TRUE(faults.isHealthy(interior));
  ASSERT_TRUE(fleettest::interiorCell(probe, interior, 3));
  fleet.applyAddFault(interior);
  fleet.serve(batch, /*wantPaths=*/true);
  const FleetCounters after = fleet.counters();
  EXPECT_EQ(after.borderBuilds, warm.borderBuilds);
  EXPECT_GT(after.borderReuses, warm.borderReuses);
  EXPECT_GT(after.planCacheHits, warm.planCacheHits);
  EXPECT_EQ(after.planInvalidations, warm.planInvalidations);
}

// The batched stitcher ranks a border's candidates by one integer key
// and a partial sort; on random candidate lists (distance ties,
// portalSpacing 0 and > 0, fewer candidates than waypointRetries) its
// selection must be the prefix of a full sort with the comparator
// (fleettest::referenceWaypointOrder).
TEST(StitchPlanTest, WaypointOrderIsTheFullSortPrefix) {
  Rng rng(9301);
  std::size_t ties = 0;
  for (int trial = 0; trial < 400; ++trial) {
    // Crossings of a vertical border x = 15 | 16 between shards 0 and 1,
    // a random subset of rows, so positions (and distance ties) vary.
    std::vector<StitchPlanner::Waypoint> candidates;
    for (Coord y = 0; y < 32; ++y) {
      if (rng.below(3) == 0) continue;
      candidates.push_back({{15, y}, {16, y}, 0, 1});
    }
    const std::size_t keep = rng.below(candidates.size() + 1);
    candidates.resize(keep);
    const std::size_t k = rng.below(2);
    const Point d{static_cast<Coord>(rng.below(32)),
                  static_cast<Coord>(rng.below(32))};
    const Coord spacing = static_cast<Coord>(rng.below(6));
    const std::size_t retries = 1 + rng.below(6);
    std::vector<std::uint32_t> got;
    stitchWaypointOrder(candidates, k, d, spacing, retries, &got);
    const std::vector<std::size_t> want = fleettest::referenceWaypointOrder(
        candidates, k, d, spacing, retries);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "trial " << trial << " rank " << i;
    }
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      if (manhattan(candidates[i].b, d) == manhattan(candidates[i - 1].b, d)) {
        ++ties;
      }
    }
  }
  EXPECT_GT(ties, 0u);
}

}  // namespace
}  // namespace meshrt
