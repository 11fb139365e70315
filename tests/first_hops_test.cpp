// Differential tests for the batched first-hop extension point
// (Router::firstHops) and RB2's first-plan override of it.
//
// The contracts under test:
//  - firstHops over every source equals firstHopByte (one route() per
//    source) byte for byte, for every registry key on the default path
//    and for Rb2Router under both PathOrders on its override, across
//    sparse and dense layouts — including layouts dense enough that the
//    exact fallback fires;
//  - plans over shared DestFields equal plans without them, field for
//    field;
//  - the invariant the override rests on (route/rb2.h): with the exact
//    fallback, the first plan succeeds exactly when route() delivers, and
//    the route stays under its phase bound. rb2-literal, which the
//    argument does not cover, keeps the default path;
//  - patched() after add and remove toggles recomputes every patched cell
//    to its per-cell firstHopByte, in both column encodings.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "fault/analysis.h"
#include "fault/injectors.h"
#include "route/packed_column.h"
#include "route/planner.h"
#include "route/rb2.h"
#include "route/registry.h"
#include "route/route_table.h"

namespace meshrt {
namespace {

struct Layout {
  Coord size;
  int faultPct;
  std::uint64_t seed;
};

FaultSet makeLayout(const Layout& layout) {
  Rng rng(layout.seed);
  const Mesh2D mesh = Mesh2D::square(layout.size);
  return injectUniform(
      mesh,
      static_cast<std::size_t>(mesh.nodeCount()) *
          static_cast<std::size_t>(layout.faultPct) / 100,
      rng);
}

std::vector<NodeId> allNodes(const Mesh2D& mesh) {
  std::vector<NodeId> ids(static_cast<std::size_t>(mesh.nodeCount()));
  std::iota(ids.begin(), ids.end(), NodeId{0});
  return ids;
}

/// `count` healthy destinations plus one faulty one (when any node is).
std::vector<Point> pickDests(const FaultSet& faults, std::size_t count,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> dests;
  for (std::size_t i = 0; i < count; ++i) {
    dests.push_back(randomHealthy(faults, rng));
  }
  const Mesh2D& mesh = faults.mesh();
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    if (faults.isFaulty(mesh.point(id))) {
      dests.push_back(mesh.point(id));
      break;
    }
  }
  return dests;
}

/// Up to `count` healthy destinations toward which some source's plan
/// takes the exact fallback (rare: about 1 plan in 200 at 30% faults).
std::vector<Point> fallbackDests(const FaultAnalysis& fa, std::size_t count) {
  const FaultSet& faults = fa.faults();
  const Mesh2D& mesh = faults.mesh();
  std::vector<Point> dests;
  for (NodeId did = 0; did < mesh.nodeCount() && dests.size() < count;
       ++did) {
    const Point dest = mesh.point(did);
    if (faults.isFaulty(dest)) continue;
    for (int q = 0; q < 4; ++q) {
      const QuadrantAnalysis& qa = fa.quadrant(static_cast<Quadrant>(q));
      const Point dL = qa.frame().toLocal(dest);
      if (!qa.isSafeLocal(dL)) continue;
      const DestFields fields(qa, dL);
      DetourPlanner planner(qa);
      for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
        const Point u = qa.localMesh().point(id);
        // Pairs this labeling serves: d north-east of u, locally.
        if (u == dL || u.x > dL.x || u.y > dL.y || !qa.isSafeLocal(u)) {
          continue;
        }
        planner.plan(u, dL, nullptr, PathOrder::Balanced, &fields);
        if (planner.fallbacksTaken() != 0) break;
      }
      if (planner.fallbacksTaken() != 0) {
        dests.push_back(dest);
        break;
      }
    }
  }
  return dests;
}

void expectFirstHopsMatchRoute(Router& router, const FaultSet& faults,
                               Point dest) {
  const Mesh2D& mesh = faults.mesh();
  const std::vector<NodeId> sources = allNodes(mesh);
  std::vector<std::uint8_t> batched(sources.size(), 0xAB);
  router.firstHops(faults, dest, sources, batched.data());
  for (NodeId id : sources) {
    ASSERT_EQ(batched[static_cast<std::size_t>(id)],
              firstHopByte(router, faults, mesh.point(id), dest))
        << router.name() << " source " << mesh.point(id).str() << " dest "
        << dest.str();
  }
}

const std::vector<Layout>& sweepLayouts() {
  static const std::vector<Layout> layouts = {
      {12, 5, 101}, {12, 10, 102}, {12, 30, 103},
      {20, 5, 201}, {20, 10, 202}, {20, 30, 203},
      {32, 5, 301}, {32, 10, 302}, {32, 30, 303},
  };
  return layouts;
}

TEST(FirstHopsTest, EveryRegistryKeyMatchesPerSourceRoute) {
  for (const Layout& layout : sweepLayouts()) {
    if (layout.size > 20) continue;  // the per-key sweep stays small
    SCOPED_TRACE(testing::Message() << layout.size << "x" << layout.size
                                    << " " << layout.faultPct << "%");
    const FaultSet faults = makeLayout(layout);
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto dests = pickDests(faults, 2, layout.seed + 7);
    for (const std::string& key : RouterRegistry::global().keys()) {
      SCOPED_TRACE(key);
      const auto router = RouterRegistry::global().create(key, ctx);
      for (Point dest : dests) {
        expectFirstHopsMatchRoute(*router, faults, dest);
      }
    }
  }
}

TEST(FirstHopsTest, Rb2OverrideMatchesPerSourceRouteInBothOrders) {
  std::size_t fallbackColumns = 0;
  for (const Layout& layout : sweepLayouts()) {
    SCOPED_TRACE(testing::Message() << layout.size << "x" << layout.size
                                    << " " << layout.faultPct << "%");
    const FaultSet faults = makeLayout(layout);
    const FaultAnalysis fa(faults);
    auto dests = pickDests(faults, 4, layout.seed + 11);
    if (layout.faultPct >= 30) {
      // Columns whose compile takes the override's forward-BFS branch.
      const auto extra = fallbackDests(fa, 2);
      fallbackColumns += extra.size();
      dests.insert(dests.end(), extra.begin(), extra.end());
    }
    for (PathOrder order : {PathOrder::Balanced, PathOrder::XFirst}) {
      Rb2Router rb2(fa, order);
      for (Point dest : dests) expectFirstHopsMatchRoute(rb2, faults, dest);
    }
  }
  // The 30% layouts must really fire the exact fallback.
  EXPECT_GE(fallbackColumns, 4u);
}

TEST(FirstHopsTest, PlansOverDestFieldsEqualPlainPlans) {
  std::size_t fallbacks = 0;
  for (const Layout& layout : sweepLayouts()) {
    SCOPED_TRACE(testing::Message() << layout.size << "x" << layout.size
                                    << " " << layout.faultPct << "%");
    const FaultSet faults = makeLayout(layout);
    const FaultAnalysis fa(faults);
    const Mesh2D& mesh = faults.mesh();
    auto dests = pickDests(faults, 3, layout.seed + 13);
    if (layout.faultPct >= 30) {
      const auto extra = fallbackDests(fa, 2);
      dests.insert(dests.end(), extra.begin(), extra.end());
    }
    for (Point dest : dests) {
      if (faults.isFaulty(dest)) continue;
      for (int q = 0; q < 4; ++q) {
        const QuadrantAnalysis& qa = fa.quadrant(static_cast<Quadrant>(q));
        const Point dL = qa.frame().toLocal(dest);
        if (!qa.isSafeLocal(dL)) continue;
        const DestFields fields(qa, dL);
        DetourPlanner plain(qa);
        DetourPlanner shared(qa);
        for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
          const Point u = qa.localMesh().point(id);
          if (u == dL || !qa.isSafeLocal(u)) continue;
          const auto a = plain.plan(u, dL, nullptr);
          const auto b = shared.plan(u, dL, nullptr, PathOrder::Balanced,
                                     &fields);
          ASSERT_EQ(a.has_value(), b.has_value()) << u.str();
          if (!a) continue;
          EXPECT_EQ(a->dist, b->dist) << u.str();
          EXPECT_EQ(a->target, b->target) << u.str();
          EXPECT_EQ(a->direct, b->direct) << u.str();
          EXPECT_EQ(a->viaExactFallback, b->viaExactFallback) << u.str();
          EXPECT_EQ(a->legPath, b->legPath) << u.str();
        }
        EXPECT_EQ(plain.fallbacksTaken(), shared.fallbacksTaken());
        if (layout.faultPct >= 30) fallbacks += shared.fallbacksTaken();
      }
    }
  }
  // The dense layouts must really exercise the exact fallback, or the
  // sweep never compares the two plans' forward-BFS branches.
  EXPECT_GT(fallbacks, 0u);
}

TEST(FirstHopsTest, FirstPlanSucceedsExactlyWhenRouteDelivers) {
  // Dense layouts, every safe (s, d) pair of a few destinations: the
  // invariant stated in route/rb2.h. Also checks its phase bound.
  std::size_t delivered = 0;
  std::size_t failed = 0;
  for (const Layout& layout : {Layout{24, 20, 401}, Layout{24, 30, 402},
                               Layout{24, 40, 403}, Layout{32, 30, 404}}) {
    SCOPED_TRACE(testing::Message() << layout.size << "x" << layout.size
                                    << " " << layout.faultPct << "%");
    const FaultSet faults = makeLayout(layout);
    const FaultAnalysis fa(faults);
    const Mesh2D& mesh = faults.mesh();
    Rb2Router rb2(fa);
    Rb2Router literal(fa, PathOrder::Balanced, /*exactFallback=*/false);
    for (Point dest : pickDests(faults, 4, layout.seed + 17)) {
      if (faults.isFaulty(dest)) continue;
      for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
        const Point s = mesh.point(id);
        if (s == dest || faults.isFaulty(s)) continue;
        const QuadrantAnalysis& qa = fa.forPair(s, dest);
        const Point u = qa.frame().toLocal(s);
        const Point dL = qa.frame().toLocal(dest);
        if (!qa.isSafeLocal(u) || !qa.isSafeLocal(dL)) continue;

        DetourPlanner planner(qa);
        const auto first = planner.plan(u, dL, nullptr);
        const bool firstOk = first && first->legPath.size() >= 2;
        const RouteResult route = rb2.route(s, dest);
        ASSERT_EQ(firstOk, route.delivered) << s.str() << "->" << dest.str();
        if (route.delivered) {
          ++delivered;
          EXPECT_EQ(qa.frame().toWorld(first->legPath[1]), route.path[1]);
          EXPECT_LE(route.phases, qa.mccs().size() * 4 + 1);
        } else {
          ++failed;
        }

      }
      // rb2-literal keeps the default path (the argument above needs the
      // fallback): its batch is the per-source route() on these layouts.
      expectFirstHopsMatchRoute(literal, faults, dest);
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(failed, 0u);  // dense layouts cut some sources off
}

void expectPatchedCellsEqualPerCellFirstHop(PathOrder order) {
  const Layout layout{20, 10, 501};
  DynamicFaultModel model(makeLayout(layout));
  const Mesh2D& mesh = model.mesh();
  Rb2Router rb2(model.analysis(), order);
  const auto dests = pickDests(model.faults(), 4, 502);

  std::vector<RouteColumn> dense;
  std::vector<PackedRouteColumn> packed;
  std::vector<Point> live;
  for (Point dest : dests) {
    if (model.faults().isFaulty(dest)) continue;
    live.push_back(dest);
    dense.push_back(compileRouteColumn(rb2, model.faults(), dest));
    packed.emplace_back(dense.back(), mesh);
  }

  Rng churn(503);
  std::vector<Point> added;
  std::size_t patchedCells = 0;
  for (int round = 0; round < 16; ++round) {
    SCOPED_TRACE(round);
    FaultEvent event;
    if (round % 3 == 2 && !added.empty()) {
      event = model.removeFaultEvent(added.back());
      added.pop_back();
    } else {
      Point p = live.front();
      while (std::find(live.begin(), live.end(), p) != live.end() ||
             model.faults().isFaulty(p)) {
        p = {static_cast<Coord>(churn.below(20)),
             static_cast<Coord>(churn.below(20))};
      }
      event = model.addFaultEvent(p);
      added.push_back(p);
    }
    ASSERT_TRUE(event.applied);
    std::vector<NodeId> masked;
    for (Point c : event.changedWorld) masked.push_back(mesh.id(c));

    for (std::size_t k = 0; k < live.size(); ++k) {
      const std::vector<NodeId> cells =
          chaseUpstream(dense[k], mesh, masked);
      patchedCells += cells.size();
      dense[k] = dense[k].patched(rb2, model.faults(), cells);
      packed[k] = packed[k].patched(rb2, model.faults(), cells);
      for (NodeId id : cells) {
        const std::uint8_t want =
            firstHopByte(rb2, model.faults(), mesh.point(id), live[k]);
        ASSERT_EQ(dense[k].next(id), want) << mesh.point(id).str();
        ASSERT_EQ(packed[k].next(id), want) << mesh.point(id).str();
      }
      ASSERT_EQ(dense[k].routedSources(), packed[k].routedSources());
    }
  }
  EXPECT_GT(patchedCells, 0u);
}

TEST(FirstHopsTest, PatchedCellsEqualPerCellFirstHop) {
  expectPatchedCellsEqualPerCellFirstHop(PathOrder::Balanced);
  expectPatchedCellsEqualPerCellFirstHop(PathOrder::XFirst);
}

}  // namespace
}  // namespace meshrt
