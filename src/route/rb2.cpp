#include "route/rb2.h"

#include <array>
#include <optional>

#include "info/reachability.h"
#include "route/route_table.h"

namespace meshrt {

RouteResult Rb2Router::route(Point s, Point d) {
  RouteResult result;
  result.path.push_back(s);
  if (s == d) {
    result.delivered = true;
    return result;
  }

  const QuadrantAnalysis& qa = analysis_->forPair(s, d);
  const Frame& frame = qa.frame();
  const LabelGrid& labels = qa.labels();
  const Point dL = frame.toLocal(d);
  Point u = frame.toLocal(s);
  if (!labels.isSafe(u) || !labels.isSafe(dL)) return result;

  DetourPlanner planner(qa, exactFallback_);
  const std::size_t maxPhases = qa.mccs().size() * 4 + 8;

  while (u != dL && result.phases < maxPhases) {
    const auto plan = planner.plan(u, dL, /*known=*/nullptr, order_);
    if (!plan || plan->legPath.empty()) return result;  // no safe detour
    for (std::size_t i = 1; i < plan->legPath.size(); ++i) {
      result.path.push_back(frame.toWorld(plan->legPath[i]));
    }
    u = plan->target;
    ++result.phases;
  }
  result.delivered = (u == dL);
  return result;
}

void Rb2Router::firstHops(const FaultSet& faults, Point dest,
                          std::span<const NodeId> sources, std::uint8_t* out) {
  if (!exactFallback_) {
    Router::firstHops(faults, dest, sources, out);
    return;
  }
  struct QuadrantWork {
    DestFields fields;
    DetourPlanner planner;
  };
  std::array<std::optional<QuadrantWork>, 4> work;
  const Mesh2D& mesh = faults.mesh();
  const bool destFaulty = faults.isFaulty(dest);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    out[i] = RouteColumn::kNoRoute;
    const Point s = mesh.point(sources[i]);
    if (destFaulty || s == dest || faults.isFaulty(s)) continue;
    const Quadrant quad = quadrantOf(s, dest);
    const QuadrantAnalysis& qa = analysis_->quadrant(quad);
    const Frame& frame = qa.frame();
    const Point u = frame.toLocal(s);
    const Point dL = frame.toLocal(dest);
    if (!qa.labels().isSafe(u) || !qa.labels().isSafe(dL)) continue;
    auto& w = work[static_cast<std::size_t>(quad)];
    if (!w) w.emplace(DestFields(qa, dL), DetourPlanner(qa));
    const auto plan = w->planner.plan(u, dL, /*known=*/nullptr, order_,
                                      &w->fields);
    if (!plan || plan->legPath.size() < 2) continue;
    out[i] = hopByte(s, frame.toWorld(plan->legPath[1]));
  }
}

}  // namespace meshrt
