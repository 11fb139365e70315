// The multi-phase detour planner: Equations 1-3 of the paper, generalized.
//
// Blocking sequences are not detected by pattern-matching the geometric
// conditions of Eq. 1 directly; instead the planner computes the exact
// monotone-reachability field toward the target and, when blocked, reads the
// blocking sequence off the frontier of the reachable set (the MCCs owning
// the cells that cut u from d — the same chain Eq. 1 describes, but exact in
// every border/nesting corner case). Detour candidates are the corners of
// the chain members (Eq. 3's P_0, P_i, P_n), priced recursively by Eq. 2
// with memoization.
//
// Knowledge-parameterized: RB2 plans against every MCC (full information,
// model B2); RB3 plans against the subset its current node has triples for
// (model B3) and replans when the message bumps into an unknown MCC.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "fault/analysis.h"
#include "info/reachability.h"

namespace meshrt {

/// Full-knowledge fields toward one destination d in one quadrant's local
/// frame, shared by every plan toward d that labeling serves (a column
/// compile plans once per source toward the same d). Each is O(N) to
/// build and answers in O(1) what a lone plan derives per call:
///  - passability (no MCC owns the cell), flat instead of the paged id map;
///  - whether a monotone (Manhattan-length) path p..d exists — the base
///    case of Eq. 2, for sources and corner candidates alike;
///  - the exact safe-node distance p..d (a reverse BFS from d), which
///    replaces the exact fallback's per-plan verification BFS.
/// The distance field builds on first use: plans that meet the Manhattan
/// bound never read it. The planner also memoizes each blocked cell's
/// clear detour candidates here, a pure function of the cell under full
/// knowledge. One batch's scratch: not for concurrent plans.
class DestFields {
 public:
  DestFields(const QuadrantAnalysis& qa, Point d);

  Point dest() const { return d_; }
  bool passable(Point p) const { return passable_[index(p)] != 0; }
  bool monotoneToDest(Point p) const { return reach_[index(p)] != 0; }
  /// Exact distance p..d over passable cells; kUnreachable when cut off.
  Distance distanceToDest(Point p) const;

 private:
  std::size_t index(Point p) const {
    return static_cast<std::size_t>(p.y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(p.x);
  }

  friend class DetourPlanner;

  Point d_;
  Coord width_;
  std::vector<std::uint8_t> passable_;
  std::vector<std::uint8_t> reach_;
  mutable std::vector<Distance> dist_;  // empty until first read
  mutable std::unordered_map<Point, std::vector<Point>, PointHash>
      candidates_;
};

class DetourPlanner {
 public:
  /// `exactFallback`: verify the Eq. 2-3 result against the exact distance
  /// field the knowledge supports, and fall back to it when the recursion's
  /// clear-Manhattan-leg assumption fails (dense fault fields). The
  /// paper-literal mode (false) is kept for the ablation bench.
  explicit DetourPlanner(const QuadrantAnalysis& qa,
                         bool exactFallback = true);

  struct Plan {
    /// Planned distance from u to d under the planner's knowledge.
    Distance dist = kUnreachable;
    /// Next intermediate destination: d itself when a Manhattan path
    /// exists, otherwise the chosen detour corner.
    Point target;
    bool direct = false;
    /// True when the Eq. 2-3 machinery was bypassed by the exact field.
    bool viaExactFallback = false;
    /// The leg u..target inclusive (Manhattan leg, or the exact-field path
    /// in fallback plans).
    std::vector<Point> legPath;
  };

  /// Plans from u to d (both in the quadrant's local frame, both safe).
  /// `known` lists the MCC ids the decision may treat as obstacles;
  /// nullptr means full knowledge. Returns nullopt when no candidate
  /// detour reaches d under this knowledge. `order` shapes the leg path.
  /// `fields` (built for this quadrant and d) only speeds the plan up —
  /// the result is identical without it; it is read only under full
  /// knowledge (`known == nullptr`).
  std::optional<Plan> plan(Point u, Point d, const std::vector<int>* known,
                           PathOrder order = PathOrder::Balanced,
                           const DestFields* fields = nullptr);

  /// The distance function D(u, d) of Eq. 2 (kUnreachable when no safe
  /// detour is found). Exposed for tests and the ablation benches.
  Distance distance(Point u, Point d, const std::vector<int>* known);

  /// Evaluations of the recursive distance function in the last plan()
  /// call; the recursion budget bounds pathological configurations.
  std::size_t lastEvaluations() const { return evaluations_; }

 private:
  struct Ctx {
    Point d;
    const std::vector<int>* known;  // sorted ids, or nullptr for full
    const DestFields* fields;       // only with known == nullptr
    std::unordered_map<Point, Distance, PointHash> memo;
    std::unordered_map<Point, bool, PointHash> inProgress;
    std::size_t budget = 0;
  };

  bool passable(Point p, const std::vector<int>* known) const;
  bool passable(const Ctx& ctx, Point p) const {
    return ctx.fields ? ctx.fields->passable(p) : passable(p, ctx.known);
  }
  Distance eval(Ctx& ctx, Point a, Point* chosenTarget);
  /// The detour candidates of a blocked `a` (Eq. 3 generalized) whose
  /// Manhattan leg from a is clear, in pricing order. `toDest` is the
  /// monotone field a..d.
  std::vector<Point> clearCandidates(const Ctx& ctx, Point a,
                                     const MonotoneField& toDest) const;

  const QuadrantAnalysis* qa_;
  bool exactFallback_;
  std::size_t evaluations_ = 0;
  std::size_t fallbacksTaken_ = 0;

 public:
  /// Number of plans (since construction) that needed the exact fallback.
  std::size_t fallbacksTaken() const { return fallbacksTaken_; }
};

}  // namespace meshrt
