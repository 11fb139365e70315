// RB2 (Algorithm 5): multi-phase shortest-path routing under the full
// information model B2. At each phase the current node detects the closest
// blocking sequence, prices the detour options with the recursive distance
// function (Eq. 2), Manhattan-routes to the chosen intermediate destination,
// and repeats. Theorem 1: the delivered path is a shortest path.
//
// Column compiles need only the first hop of each route, and with the exact
// fallback on that is the first plan's legPath[1]: a successful first plan
// implies route() delivers. Every phase strictly lowers the exact safe
// distance E(u) = BFS distance u..d over safe nodes:
//  - a direct plan (or the fallback) ends at d, E = 0;
//  - otherwise the plan's distance D(u) passed the verification, so
//    D(u) <= E(u), and D(u) = M(u,q) + D(q) is the length of a real walk
//    over safe nodes through the target q, so D(u) >= M(u,q) + E(q) >=
//    E(u). Hence E(q) = E(u) - M(u,q) < E(u): q lies on a shortest path.
// The next phase starts at a safe node with E finite, so its plan
// succeeds again (the fallback covers any recursion shortfall). Targets
// never repeat, and each non-final target is one of the at most 4 corners
// per MCC slot, so a route takes at most mccs().size()*4 + 1 phases and
// the mccs().size()*4 + 8 cap never binds. Without the fallback
// ("rb2-literal") nothing guarantees that a later phase succeeds, so that
// mode keeps the default per-source route().
#pragma once

#include "info/reachability.h"
#include "fault/analysis.h"
#include "route/planner.h"
#include "route/router.h"

namespace meshrt {

class Rb2Router : public Router {
 public:
  /// `order` shapes the Manhattan legs: Balanced for the paper's fully
  /// adaptive selection; XFirst for dimension-ordered legs (same length)
  /// when feeding the wormhole network layer.
  /// `exactFallback=false` runs the paper-literal Eq. 2-3 recursion only
  /// (the ablation bench measures where that falls short).
  explicit Rb2Router(const FaultAnalysis& analysis,
                     PathOrder order = PathOrder::Balanced,
                     bool exactFallback = true)
      : analysis_(&analysis), order_(order), exactFallback_(exactFallback) {}

  std::string_view name() const override { return "RB2"; }

  RouteResult route(Point s, Point d) override;

  /// With the exact fallback: one first plan per source, over per-quadrant
  /// DestFields toward `dest` built on first touch (see the invariant
  /// above). Without it: the default per-source route().
  void firstHops(const FaultSet& faults, Point dest,
                 std::span<const NodeId> sources,
                 std::uint8_t* out) override;

 private:
  const FaultAnalysis* analysis_;
  PathOrder order_;
  bool exactFallback_;
};

}  // namespace meshrt
