#include "info/reachability.h"

#include <algorithm>
#include <cassert>

namespace meshrt {

namespace {
constexpr Coord sign(Coord v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }
}  // namespace

MonotoneField::MonotoneField(const Mesh2D& mesh, Point a, Point b)
    : a_(a),
      b_(b),
      rect_(Rect::between(a, b)),
      stepX_(sign(b.x - a.x)),
      stepY_(sign(b.y - a.y)),
      cells_(static_cast<std::size_t>(rect_.area()), 0) {
  assert(mesh.contains(a) && mesh.contains(b));
  (void)mesh;
}

void MonotoneField::sweep() {
  // Sweep in dependency order: predecessors of p are p - stepX and
  // p - stepY. Rows and columns run from a's corner of the rectangle
  // outward, so both are visited first. a sits at column/row 0 of the
  // sweep; a zero step leaves a one-wide rectangle.
  const std::ptrdiff_t w = rect_.width();
  const std::ptrdiff_t h = rect_.height();
  const std::ptrdiff_t xInc = stepX_ >= 0 ? 1 : -1;
  const std::ptrdiff_t yInc = stepY_ >= 0 ? 1 : -1;
  std::uint8_t* const base = cells_.data();
  for (std::ptrdiff_t row = 0; row < h; ++row) {
    std::uint8_t* const cur = base + (yInc > 0 ? row : h - 1 - row) * w;
    const std::uint8_t* const prev = row > 0 ? cur - yInc * w : cur;
    for (std::ptrdiff_t col = 0; col < w; ++col) {
      const std::ptrdiff_t x = xInc > 0 ? col : w - 1 - col;
      if (!(cur[x] & kPassable)) continue;
      const bool r = (row == 0 && col == 0) ||
                     (col > 0 && (cur[x - xInc] & kReach)) ||
                     (row > 0 && (prev[x] & kReach));
      if (r) cur[x] |= kReach;
    }
  }
}

std::vector<Point> MonotoneField::extractPath(PathOrder order) const {
  if (!targetReachable()) return {};
  // A monotone path has exactly manhattan(a, b) steps: fill it from b.
  std::vector<Point> path(static_cast<std::size_t>(manhattan(a_, b_)) + 1);
  std::size_t at = path.size() - 1;
  Point p = b_;
  path[at] = p;
  while (p != a_) {
    // Walk backward from b choosing a reachable predecessor. Balanced:
    // undo the dimension with the larger remaining delta — the "fully
    // adaptive" selection of Algorithm 2, which keeps both dimensions open
    // and paths central. XFirst: undo Y first (so the forward path runs
    // X-then-Y), yielding dimension-ordered legs.
    const Point px{p.x - stepX_, p.y};
    const Point py{p.x, p.y - stepY_};
    const bool canX = stepX_ != 0 && p.x != a_.x && reachable(px);
    const bool canY = stepY_ != 0 && p.y != a_.y && reachable(py);
    bool pickX;
    if (order == PathOrder::XFirst) {
      pickX = canX && !canY;
      if (canX && canY) pickX = false;  // undo Y while possible
    } else {
      const auto dx = static_cast<Distance>(p.x > a_.x ? p.x - a_.x
                                                       : a_.x - p.x);
      const auto dy = static_cast<Distance>(p.y > a_.y ? p.y - a_.y
                                                       : a_.y - p.y);
      pickX = canX && (!canY || dx >= dy);
    }
    if (pickX) {
      p = px;
    } else if (canY) {
      p = py;
    } else if (canX) {
      p = px;
    } else {
      assert(false && "extractPath: no reachable predecessor");
      return {};
    }
    path[--at] = p;
  }
  return path;
}

std::vector<Point> MonotoneField::blockingFrontier() const {
  std::vector<Point> frontier;
  if (targetReachable()) return frontier;
  for (Coord y = rect_.y0; y <= rect_.y1; ++y) {
    for (Coord x = rect_.x0; x <= rect_.x1; ++x) {
      const Point p{x, y};
      if (cells_[index(p)] & kPassable) continue;
      bool adjacentToReach = false;
      const Point fromX{p.x - stepX_, p.y};
      const Point fromY{p.x, p.y - stepY_};
      if (stepX_ != 0 && reachable(fromX)) adjacentToReach = true;
      if (stepY_ != 0 && reachable(fromY)) adjacentToReach = true;
      if (adjacentToReach) frontier.push_back(p);
    }
  }
  return frontier;
}

}  // namespace meshrt
