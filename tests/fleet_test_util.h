// Shared helpers for the fleet differential suites (tests/fleet_test.cpp
// and the slow full-matrix suite in tests/slow/): batch generators, the
// interior-fault injector whose configurations certify every shard
// border-clear, per-key service configs, and the fleet-vs-single
// differential assertion.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "route/validate.h"
#include "service/fleet.h"
#include "test_util.h"

namespace meshrt {
namespace fleettest {

inline std::vector<Query> randomBatch(const Mesh2D& mesh, std::size_t count,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(
        {{static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))},
         {static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))}});
  }
  return batch;
}

/// Random sources against a small destination pool: differential
/// coverage without compiling a column per query (column compiles are
/// the cost that dwarfs everything else at 64x64).
inline std::vector<Query> pooledBatch(const Mesh2D& mesh, std::size_t count,
                                      std::size_t poolSize,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pool;
  for (std::size_t i = 0; i < poolSize; ++i) {
    pool.push_back({static_cast<Coord>(
                        rng.below(static_cast<std::uint64_t>(mesh.width()))),
                    static_cast<Coord>(rng.below(
                        static_cast<std::uint64_t>(mesh.height())))});
  }
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(
        {{static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))},
         pool[rng.below(pool.size())]});
  }
  return batch;
}

/// True when a fault at p keeps EVERY covering shard border-clear with
/// the given margin (p is at least `margin` cells from every artificial
/// wall of every local rectangle containing it).
inline bool interiorCell(const ShardLayout& layout, Point p, Coord margin) {
  for (const std::size_t k : layout.covering(p)) {
    const Rect& l = layout.local(k);
    const Point q = layout.toLocal(k, p);
    if (layout.artificialWall(k, 0) && q.x < margin) return false;
    if (layout.artificialWall(k, 1) && q.x > l.width() - 1 - margin) {
      return false;
    }
    if (layout.artificialWall(k, 2) && q.y < margin) return false;
    if (layout.artificialWall(k, 3) && q.y > l.height() - 1 - margin) {
      return false;
    }
  }
  return true;
}

/// `count` uniform faults restricted to interior cells: every shard of
/// `layout` is border-clear by construction.
inline FaultSet injectInterior(const ShardLayout& layout, std::size_t count,
                               Coord margin, Rng& rng) {
  const Mesh2D& mesh = layout.mesh();
  FaultSet faults(mesh);
  std::size_t placed = 0;
  while (placed < count) {
    const Point p{static_cast<Coord>(
                      rng.below(static_cast<std::uint64_t>(mesh.width()))),
                  static_cast<Coord>(
                      rng.below(static_cast<std::uint64_t>(mesh.height())))};
    if (faults.isFaulty(p) || !interiorCell(layout, p, margin)) continue;
    faults.add(p);
    ++placed;
  }
  return faults;
}

/// Knowledge models the key's routers consume (capturing everything for
/// every key makes snapshot capture the dominant cost at 64x64).
inline std::vector<InfoModel> captureFor(const std::string& key) {
  if (key == "rb1") return {InfoModel::B1};
  if (key.starts_with("rb3")) return {InfoModel::B3};
  return {};
}

/// Keys whose labels are NOT functions of the local fault window: the
/// safety-level relaxation propagates across the whole mesh, so a
/// shard's labels legitimately differ from the full-mesh labels near
/// artificial walls (the fleet can even deliver in fewer hops, and
/// deliver where the full-mesh heuristic diverges). For these the
/// differential asserts path validity, never bit-equality.
inline bool nonLocalKey(const std::string& key) { return key == "safety"; }

inline FleetConfig fleetConfig(const std::string& key, std::size_t grid) {
  FleetConfig cfg;
  cfg.service.routerKey = key;
  cfg.service.threads = 2;
  cfg.service.captureKnowledge = captureFor(key);
  cfg.grid = grid;
  return cfg;
}

inline ServiceConfig singleConfig(const std::string& key) {
  ServiceConfig cfg;
  cfg.routerKey = key;
  cfg.threads = 2;
  cfg.captureKnowledge = captureFor(key);
  return cfg;
}

/// Differential check of one served fleet batch against the single
/// full-mesh service: intra-shard queries bit-for-bit when the key is
/// local AND the owning shard is certified border-clear (`allCertified`
/// short-circuits the certificate in the interior-fault regime); every
/// delivered path globally valid and exactly hop-accounted.
inline void expectFleetMatchesSingle(ServiceFleet& fleet,
                                     RouteService& single,
                                     const FaultSet& faults,
                                     const std::vector<Query>& batch,
                                     bool allCertified) {
  const FleetBatchResult fr = fleet.serve(batch, /*wantPaths=*/true);
  const BatchResult sr = single.serve(batch, /*wantPaths=*/true);
  const ShardLayout& layout = fleet.layout();
  const bool localKey = !nonLocalKey(fleet.config().service.routerKey);
  ASSERT_EQ(fr.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                 "->" + batch[i].d.str());
    const std::size_t ks = layout.owner(batch[i].s);
    const std::size_t kd = layout.owner(batch[i].d);
    if (fr.delivered(i)) {
      ASSERT_FALSE(fr.paths[i].empty());
      EXPECT_TRUE(isValidPath(faults, batch[i].s, batch[i].d, fr.paths[i]));
      EXPECT_EQ(fr.hops[i],
                static_cast<std::int32_t>(fr.paths[i].size()) - 1);
    }
    if (ks == kd) {
      const bool certified =
          localKey &&
          (allCertified ||
           shardBorderClear(layout, ks, fr.pinned[ks]->faults()));
      if (certified) {
        EXPECT_EQ(fr.status[i], sr.status[i]);
        if (fr.delivered(i)) {
          EXPECT_EQ(fr.hops[i], sr.hops[i]);
        }
      }
    } else {
      // Endpoint faultiness is owner-epoch state == global state here.
      EXPECT_EQ(fr.status[i] == ServeStatus::EndpointFaulty,
                sr.status[i] == ServeStatus::EndpointFaulty);
    }
  }
}

/// The dense-chase oracle (testutil::denseChase) for one fleet batch
/// served with paths: every intra-shard query equals the dense chase on
/// its owner shard's pinned epoch (status, hops and path), and every
/// segment of every delivered stitched path equals the dense chase
/// toward the segment's last cell over the pinned column of the shard
/// that served it. The fleet's services must run without a column
/// budget, so every chased column is still resident.
inline void expectFleetMatchesDenseChase(const ShardLayout& layout,
                                         const std::vector<Query>& batch,
                                         const FleetBatchResult& r) {
  ASSERT_EQ(r.size(), batch.size());
  const auto toGlobal = [&](std::size_t k, std::vector<Point> path) {
    for (Point& p : path) p = layout.toGlobal(k, p);
    return path;
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                 "->" + batch[i].d.str());
    const std::size_t ks = layout.owner(batch[i].s);
    if (ks == layout.owner(batch[i].d)) {
      const ServedRoute want = testutil::denseChase(
          *r.pinned[ks],
          {layout.toLocal(ks, batch[i].s), layout.toLocal(ks, batch[i].d)},
          /*wantPath=*/true);
      EXPECT_EQ(r.status[i], want.status);
      EXPECT_EQ(r.hops[i],
                want.delivered() ? static_cast<std::int32_t>(want.hops) : 0);
      EXPECT_EQ(r.paths[i], toGlobal(ks, want.path));
      continue;
    }
    if (!r.delivered(i)) continue;
    const auto& path = r.paths[i];
    const auto& segs = r.segments[i];
    ASSERT_FALSE(segs.empty());
    for (std::size_t j = 0; j < segs.size(); ++j) {
      const std::size_t k = segs[j].shard;
      const std::size_t first = segs[j].begin;
      const std::size_t last =
          j + 1 < segs.size() ? segs[j + 1].begin - 1 : path.size() - 1;
      ASSERT_LE(first, last);
      const ServedRoute want = testutil::denseChase(
          *r.pinned[k],
          {layout.toLocal(k, path[first]), layout.toLocal(k, path[last])},
          /*wantPath=*/true);
      EXPECT_EQ(want.status, ServeStatus::Delivered) << "segment " << j;
      const std::vector<Point> chased(
          path.begin() + static_cast<std::ptrdiff_t>(first),
          path.begin() + static_cast<std::ptrdiff_t>(last) + 1);
      EXPECT_EQ(toGlobal(k, want.path), chased) << "segment " << j;
    }
  }
}

/// Validates one served fleet batch purely against its own pinned
/// epochs: structural path invariants, plus — via the stitch-segment
/// records — every path cell healthy in the pinned snapshot of the
/// shard that chased it, and every crossing healthy on both sides.
/// Shared by the churn and chaos suites: it needs no ground truth, so it
/// holds even while writers (or the supervisor) are mutating the fleet.
inline void validateAgainstPinnedEpochs(const ShardLayout& layout,
                                        const std::vector<Query>& batch,
                                        const FleetBatchResult& r) {
  ASSERT_EQ(r.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i) + " " + batch[i].s.str() +
                 "->" + batch[i].d.str());
    if (!r.delivered(i)) continue;
    const auto& path = r.paths[i];
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), batch[i].s);
    EXPECT_EQ(path.back(), batch[i].d);
    EXPECT_EQ(r.hops[i], static_cast<std::int32_t>(path.size()) - 1);
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      EXPECT_EQ(manhattan(path[j], path[j + 1]), 1);
    }
    const auto& segs = r.segments[i];
    ASSERT_FALSE(segs.empty());
    ASSERT_EQ(segs.front().begin, 0u);
    for (std::size_t j = 0; j < segs.size(); ++j) {
      const std::size_t k = segs[j].shard;
      const std::size_t begin = segs[j].begin;
      const std::size_t end =
          j + 1 < segs.size() ? segs[j + 1].begin : path.size();
      ASSERT_LT(begin, end);
      const FaultSet& pinnedFaults = r.pinned[k]->faults();
      for (std::size_t c = begin; c < end; ++c) {
        ASSERT_TRUE(layout.local(k).contains(path[c]));
        EXPECT_TRUE(pinnedFaults.isHealthy(layout.toLocal(k, path[c])))
            << "cell " << path[c].str() << " faulty in shard " << k
            << " pinned epoch " << r.shardEpochs[k];
      }
      // The crossing into this segment is healthy on BOTH sides it
      // joins (the previous shard sees the entry cell in its halo).
      if (j > 0) {
        const std::size_t prev = segs[j - 1].shard;
        EXPECT_TRUE(layout.local(prev).contains(path[begin]));
        EXPECT_TRUE(r.pinned[prev]->faults().isHealthy(
            layout.toLocal(prev, path[begin])));
        EXPECT_TRUE(pinnedFaults.isHealthy(
            layout.toLocal(k, path[begin - 1])));
      }
    }
  }
}

}  // namespace fleettest
}  // namespace meshrt
