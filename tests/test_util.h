// Shared helpers for the meshrt test suites.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "fault/fault_set.h"
#include "fault/injectors.h"
#include "mesh/mesh.h"
#include "route/registry.h"
#include "route/packed_column.h"
#include "route/route_table.h"
#include "service/route_service.h"

namespace meshrt::testutil {

// ------------------------------------------------- poison-router seam
//
// A registry key ("poison-when-armed") that is exactly rb2 while
// disarmed but whose router construction throws while armed: the seam
// the exception-scoping suites (service- and fleet-level) use to make a
// writer's patch jobs fail on demand without touching any failpoint.

/// Armed => the poison factory throws instead of building a router.
inline std::atomic<bool>& poisonArmed() {
  static std::atomic<bool> armed{false};
  return armed;
}

/// RAII arm/disarm so a failing assertion can never leave the registry
/// poisoned for later tests.
struct PoisonScope {
  PoisonScope() { poisonArmed().store(true); }
  ~PoisonScope() { poisonArmed().store(false); }
};

/// Registers "poison-when-armed" (plus its table: wrapper, so the
/// iterate-every-key differential tests keep working): exactly rb2 while
/// disarmed, throws from the factory while armed.
inline void ensurePoisonRouterRegistered() {
  static const bool once = [] {
    auto factory = [](const RouterContext& ctx) -> std::unique_ptr<Router> {
      if (poisonArmed().load()) {
        throw std::runtime_error("poison-when-armed: armed");
      }
      return RouterRegistry::global().create("rb2", ctx);
    };
    auto& registry = RouterRegistry::global();
    registry.add("poison-when-armed", "RB2(poison)",
                 "rb2 whose construction throws while armed (test-only)",
                 factory);
    registry.add("table:poison-when-armed", "RB2(poison)·tbl",
                 "compiled table over poison-when-armed (test-only)",
                 [factory](const RouterContext& ctx)
                     -> std::unique_ptr<Router> {
                   return std::make_unique<TableizedRouter>(factory(ctx),
                                                            *ctx.faults);
                 });
    return true;
  }();
  (void)once;
}

/// Fault set from an explicit cell list.
inline FaultSet faultsAt(const Mesh2D& mesh,
                         const std::vector<Point>& cells) {
  FaultSet f(mesh);
  for (Point p : cells) f.add(p);
  return f;
}

/// Brute-force monotone reachability: BFS from a toward b restricted to
/// sign(b-a) moves over `passable`. Ground truth for MonotoneField.
template <typename Passable>
bool bruteMonotoneReachable(const Mesh2D& mesh, Point a, Point b,
                            Passable&& passable) {
  if (!passable(a)) return false;
  const Coord sx = b.x > a.x ? 1 : (b.x < a.x ? -1 : 0);
  const Coord sy = b.y > a.y ? 1 : (b.y < a.y ? -1 : 0);
  NodeMap<bool> seen(mesh, false);
  std::vector<Point> stack{a};
  seen[a] = true;
  while (!stack.empty()) {
    const Point p = stack.back();
    stack.pop_back();
    if (p == b) return true;
    for (Point step : {Point{sx, 0}, Point{0, sy}}) {
      if (step == Point{0, 0}) continue;
      const Point q = p + step;
      const bool inside = q.x >= std::min(a.x, b.x) &&
                          q.x <= std::max(a.x, b.x) &&
                          q.y >= std::min(a.y, b.y) &&
                          q.y <= std::max(a.y, b.y);
      if (inside && mesh.contains(q) && !seen[q] && passable(q)) {
        seen[q] = true;
        stack.push_back(q);
      }
    }
  }
  return false;
}

// ------------------------------------------------ dense-chase oracle
//
// The service serves from packed columns through the lockstep engines
// (status-only batches) and the packed chaseColumn (tiny batches, path
// serves), both of which answer minimal sources from the column's
// minimal bit and cap chases at its hop bound. The oracle re-answers
// every query the plain way: a hop-by-hop dense chase over the entries
// of the very column the serve used, capped at nodeCount.

/// A packed column read only through next()/dest(): chaseColumn over
/// this view is the dense RouteColumn chase (no minimal-bit shortcut).
struct DenseEntries {
  const PackedRouteColumn& column;
  Point dest() const { return column.dest(); }
  std::uint8_t next(NodeId id) const { return column.next(id); }
};

/// One query answered on `snap` by the service's endpoint rules and a
/// dense chase over the column `snap` holds for q.d. Throws when that
/// column is not resident: call it after the serve, on a service
/// without a column budget, so the slot holds the column the serve
/// chased.
inline ServedRoute denseChase(const ServiceSnapshot& snap, const Query& q,
                              bool wantPath) {
  const Mesh2D& mesh = snap.mesh();
  ServedRoute out;
  if (snap.faults().isFaulty(q.s) || snap.faults().isFaulty(q.d)) {
    out.status = ServeStatus::EndpointFaulty;
  } else if (q.s == q.d) {
    out.status = ServeStatus::Delivered;
  } else {
    const auto column = snap.column(mesh.id(q.d));
    if (column == nullptr) {
      throw std::logic_error("denseChase: no resident column for " +
                             q.d.str());
    }
    return chaseColumn(DenseEntries{std::get<PackedRouteColumn>(*column)},
                       mesh, q.s, static_cast<std::size_t>(mesh.nodeCount()),
                       wantPath);
  }
  if (wantPath) out.path.push_back(q.s);
  return out;
}

/// denseChase over a batch, in the serve's BatchResult form.
inline BatchResult denseChaseBatch(const ServiceSnapshot& snap,
                                   const std::vector<Query>& batch,
                                   bool wantPaths) {
  BatchResult out;
  out.epoch = snap.epoch();
  if (wantPaths) out.paths.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ServedRoute r = denseChase(snap, batch[i], wantPaths);
    out.status.push_back(r.status);
    out.hops.push_back(r.delivered() ? static_cast<std::int32_t>(r.hops) : 0);
    if (wantPaths) out.paths[i] = std::move(r.path);
  }
  return out;
}

/// A batch served on `snap` equals its dense-chase oracle: status, hops
/// and (when served) paths.
inline void expectServedMatchesDenseChase(const ServiceSnapshot& snap,
                                          const std::vector<Query>& batch,
                                          const BatchResult& served) {
  const bool wantPaths = !served.paths.empty();
  const BatchResult want = denseChaseBatch(snap, batch, wantPaths);
  ASSERT_EQ(served.epoch, want.epoch);
  ASSERT_EQ(served.size(), want.size());
  EXPECT_EQ(served.status, want.status);
  EXPECT_EQ(served.hops, want.hops);
  EXPECT_EQ(served.paths, want.paths);
}

}  // namespace meshrt::testutil
