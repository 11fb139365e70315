// Router interface and route results. All routers operate in world
// coordinates; information-based routers internally normalize through the
// quadrant frame of each source/destination pair, exactly as the paper
// normalizes s to the origin with d in the first quadrant.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "mesh/point.h"

namespace meshrt {

class FaultSet;

struct RouteResult {
  bool delivered = false;
  /// Visited nodes s..d inclusive (when delivered); the attempted prefix
  /// otherwise.
  std::vector<Point> path;
  /// Number of multi-phase planning decisions (RB2/RB3) or detour events
  /// (RB1/E-cube).
  std::size_t phases = 0;

  Distance hops() const {
    return path.empty() ? 0
                        : static_cast<Distance>(path.size()) - 1;
  }
};

class Router {
 public:
  virtual ~Router() = default;
  virtual std::string_view name() const = 0;
  virtual RouteResult route(Point s, Point d) = 0;

  /// Batched first hops toward one destination: out[i] =
  /// firstHopByte(*this, faults, point(sources[i]), dest), the stored hop
  /// byte a compiled column keeps (route/route_table.h). Column compiles
  /// and patches go through here. The default loops firstHopByte, i.e.
  /// one route() per source; a router may override it with anything
  /// byte-identical that shares work across the batch (Rb2Router does).
  virtual void firstHops(const FaultSet& faults, Point dest,
                         std::span<const NodeId> sources, std::uint8_t* out);
};

}  // namespace meshrt
