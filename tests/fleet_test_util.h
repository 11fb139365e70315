// Shared helpers for the fleet differential suites (tests/fleet_test.cpp
// and the slow full-matrix suite in tests/slow/): batch generators, the
// interior-fault injector whose configurations certify every shard
// border-clear, per-key service configs, the fleet-vs-single
// differential assertion, and the per-query reference stitcher.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
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


/// The stitcher's waypoint order at one border, by the definition: the
/// full candidate list sorted with this comparator, cut to `retries`.
/// Candidates rank by their far cell's distance to `d` in bands of
/// 2 * portalSpacing, portal anchors first within a band, then by exact
/// distance, then by list position.
inline std::vector<std::size_t> referenceWaypointOrder(
    const std::vector<StitchPlanner::Waypoint>& candidates, std::size_t k,
    Point d, Coord portalSpacing, std::size_t retries) {
  const auto cellIn = [&](std::size_t wi) {
    return k == candidates[wi].shardA ? candidates[wi].a : candidates[wi].b;
  };
  const auto cellAcross = [&](std::size_t wi) {
    return k == candidates[wi].shardA ? candidates[wi].b : candidates[wi].a;
  };
  const auto nonAnchor = [&](std::size_t wi) {
    if (portalSpacing <= 0) return false;
    const Point p = cellIn(wi);
    return (p.x + p.y) % portalSpacing != 0;
  };
  const Distance band =
      portalSpacing > 0 ? static_cast<Distance>(2 * portalSpacing) : 1;
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Distance sa = manhattan(cellAcross(a), d);
    const Distance sb = manhattan(cellAcross(b), d);
    if (sa / band != sb / band) return sa / band < sb / band;
    const bool na = nonAnchor(a);
    const bool nb = nonAnchor(b);
    if (na != nb) return nb;
    return sa != sb ? sa < sb : a < b;
  });
  if (order.size() > retries) order.resize(retries);
  return order;
}

/// What the per-query reference stitcher answers for one batch, in
/// FleetBatchResult's conventions, plus the counter deltas the fleet
/// would report for it and every (shard, shard-local destination
/// NodeId) column its serves needed.
struct ReferenceStitch {
  std::vector<ServeStatus> status;
  std::vector<std::int32_t> hops;
  std::vector<std::vector<Point>> paths;
  std::vector<std::vector<FleetSegment>> segments;
  std::vector<std::uint8_t> flags;
  std::uint64_t stitchRetries = 0;
  std::uint64_t replans = 0;
  std::uint64_t stitchSegments = 0;
  std::set<std::pair<std::size_t, NodeId>> columns;
};

/// The per-query stitcher, built only from public APIs: a fresh
/// StitchPlanner over `layout`, and one RouteService::serveOn call per
/// intra-shard sub-batch and per segment chase, against the services
/// and snapshots `pins` (a served FleetBatchResult) pinned. Each cross
/// query plans its own shard path and sorts each border's full
/// candidate list with the comparator below; failed chases are
/// memoized per batch. No admission control and no deadline: flags stay
/// 0, and a throwing serve propagates. This is the semantics the
/// fleet's batched stitcher must reproduce bit for bit.
inline ReferenceStitch referenceStitch(const ShardLayout& layout,
                                       const FleetConfig& cfg,
                                       const std::vector<Query>& batch,
                                       const FleetBatchResult& pins,
                                       bool wantPaths) {
  using Waypoint = StitchPlanner::Waypoint;
  const std::size_t count = layout.shardCount();
  ReferenceStitch out;
  out.status.assign(batch.size(), ServeStatus::NoRoute);
  out.hops.assign(batch.size(), 0);
  out.flags.assign(batch.size(), 0);
  if (wantPaths) {
    out.paths.resize(batch.size());
    out.segments.resize(batch.size());
  }
  const auto faultyIn = [&](std::size_t k, Point p) {
    return pins.pinned[k]->faults().isFaulty(layout.toLocal(k, p));
  };
  // One serveOn of shard-local queries, recording the columns it needs.
  const auto serveLocal = [&](std::size_t k, const std::vector<Query>& sub) {
    const Mesh2D& m = pins.pinned[k]->mesh();
    for (const Query& q : sub) {
      const FaultSet& f = pins.pinned[k]->faults();
      if (q.s != q.d && f.isHealthy(q.s) && f.isHealthy(q.d)) {
        out.columns.emplace(k, m.id(q.d));
      }
    }
    return pins.services[k]->serveOn(pins.pinned[k], sub, wantPaths);
  };

  std::vector<std::vector<std::size_t>> intra(count);
  std::vector<std::size_t> cross;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t ks = layout.owner(batch[i].s);
    if (ks == layout.owner(batch[i].d)) {
      intra[ks].push_back(i);
    } else {
      cross.push_back(i);
    }
  }
  for (std::size_t k = 0; k < count; ++k) {
    if (intra[k].empty()) continue;
    std::vector<Query> sub;
    for (const std::size_t i : intra[k]) {
      sub.push_back(
          {layout.toLocal(k, batch[i].s), layout.toLocal(k, batch[i].d)});
    }
    BatchResult r = serveLocal(k, sub);
    for (std::size_t j = 0; j < sub.size(); ++j) {
      const std::size_t i = intra[k][j];
      out.status[i] = r.status[j];
      out.hops[i] = r.hops[j];
      if (!wantPaths) continue;
      for (Point& p : r.paths[j]) p = layout.toGlobal(k, p);
      out.paths[i] = std::move(r.paths[j]);
      if (out.status[i] == ServeStatus::Delivered) {
        out.segments[i] = {{static_cast<std::uint32_t>(k), 0}};
      }
    }
  }

  StitchPlanner planner(layout, cfg.stitchPlan, StitchPlannerCounters{});
  StitchPlanner::Session session = planner.session(
      [&](Point p) { return !faultyIn(layout.owner(p), p); },
      std::vector<std::uint64_t>(count, 0));
  std::set<std::tuple<std::size_t, Point, Point>> failed;
  const auto chase = [&](std::size_t k, Point u, Point v, BatchResult& r) {
    if (failed.contains({k, u, v})) return false;
    r = serveLocal(k, {{layout.toLocal(k, u), layout.toLocal(k, v)}});
    if (r.status[0] == ServeStatus::Delivered) return true;
    failed.insert({k, u, v});
    return false;
  };
  const auto append = [&](std::vector<Point>& path, std::size_t k,
                          const std::vector<Point>& segment) {
    for (std::size_t i = path.empty() ? 0 : 1; i < segment.size(); ++i) {
      path.push_back(layout.toGlobal(k, segment[i]));
    }
  };

  for (const std::size_t qi : cross) {
    const Query& q = batch[qi];
    const std::size_t ks = layout.owner(q.s);
    const std::size_t kd = layout.owner(q.d);
    if (faultyIn(ks, q.s) || faultyIn(kd, q.d)) {
      out.status[qi] = ServeStatus::EndpointFaulty;
      if (wantPaths) out.paths[qi] = {q.s};
      continue;
    }
    std::vector<std::pair<std::size_t, std::size_t>> blocked;
    const std::size_t maxPlans = 1 + 2 * count;
    for (std::size_t attempt = 0; attempt < maxPlans; ++attempt) {
      if (attempt > 0) ++out.replans;
      const std::vector<std::size_t> plan =
          session.shardPath(ks, kd, blocked.empty() ? nullptr : &blocked);
      if (plan.empty()) break;
      Point cur = q.s;
      std::int32_t hops = 0;
      std::vector<Point> path;
      std::vector<FleetSegment> segs;
      const auto start = [&] {
        return static_cast<std::uint32_t>(path.empty() ? 0 : path.size() - 1);
      };
      std::pair<std::size_t, std::size_t> failedBorder{count, count};
      for (std::size_t leg = 0; leg < plan.size(); ++leg) {
        const std::size_t k = plan[leg];
        BatchResult r;
        if (leg + 1 == plan.size()) {
          if (!chase(k, cur, q.d, r)) {
            failedBorder = {std::min(plan[leg - 1], k),
                            std::max(plan[leg - 1], k)};
            break;
          }
          hops += r.hops[0];
          if (wantPaths) {
            segs.push_back({static_cast<std::uint32_t>(k), start()});
            append(path, k, r.paths[0]);
          }
          break;
        }
        const std::size_t kn = plan[leg + 1];
        const std::vector<Waypoint>& candidates = session.crossings(k, kn);
        const auto cellIn = [&](const Waypoint& w) {
          return k == w.shardA ? w.a : w.b;
        };
        const auto cellAcross = [&](const Waypoint& w) {
          return k == w.shardA ? w.b : w.a;
        };
        const std::vector<std::size_t> order = referenceWaypointOrder(
            candidates, k, q.d, cfg.portalSpacing, cfg.waypointRetries);
        bool crossed = false;
        for (const std::size_t wi : order) {
          const Waypoint& w = candidates[wi];
          if (faultyIn(k, cellAcross(w)) || faultyIn(kn, cellIn(w))) continue;
          if (!chase(k, cur, cellIn(w), r)) {
            ++out.stitchRetries;
            continue;
          }
          hops += r.hops[0] + 1;
          if (wantPaths) {
            segs.push_back({static_cast<std::uint32_t>(k), start()});
            append(path, k, r.paths[0]);
            path.push_back(cellAcross(w));
          }
          cur = cellAcross(w);
          crossed = true;
          break;
        }
        if (!crossed) {
          failedBorder = {std::min(k, kn), std::max(k, kn)};
          break;
        }
      }
      if (failedBorder.first == count) {
        out.status[qi] = ServeStatus::Delivered;
        out.hops[qi] = hops;
        out.stitchSegments += plan.size();
        if (wantPaths) {
          out.paths[qi] = std::move(path);
          out.segments[qi] = std::move(segs);
        }
        break;
      }
      blocked.push_back(failedBorder);
    }
  }
  return out;
}

}  // namespace fleettest
}  // namespace meshrt
