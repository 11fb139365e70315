// The set of faulty nodes in a mesh. Link faults are handled per the paper
// by disabling the adjacent nodes, so a node-fault set is the only fault
// representation the library needs. Mutable both ways (add/remove) so the
// dynamic-fault machinery can model online arrival and repair; see
// DESIGN.md section 6.
//
// Storage is copy-on-write paged (mesh/paged_grid.h): the route service
// copies the fault set into every epoch snapshot, and a copy costs
// O(pages) while a fault toggle detaches one tile (DESIGN.md section 9).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "mesh/mesh.h"
#include "mesh/paged_grid.h"
#include "mesh/point.h"

namespace meshrt {

class FaultSet {
 public:
  explicit FaultSet(const Mesh2D& mesh)
      : mesh_(mesh), faulty_(mesh, 0) {}

  FaultSet(const Mesh2D& mesh, std::span<const Point> faults)
      : FaultSet(mesh) {
    for (Point p : faults) add(p);
  }

  const Mesh2D& mesh() const { return mesh_; }

  void add(Point p) {
    if (std::as_const(faulty_)[p] == 0) {
      faulty_[p] = 1;
      ++count_;
    }
  }

  /// Repairs a node (online repair events in the dynamic sweeps).
  void remove(Point p) {
    if (std::as_const(faulty_)[p] != 0) {
      faulty_[p] = 0;
      --count_;
    }
  }

  bool isFaulty(Point p) const { return faulty_[p] != 0; }
  bool isHealthy(Point p) const { return faulty_[p] == 0; }
  std::size_t count() const { return count_; }

  std::vector<Point> toVector() const {
    std::vector<Point> out;
    out.reserve(count_);
    for (Coord y = 0; y < mesh_.height(); ++y) {
      for (Coord x = 0; x < mesh_.width(); ++x) {
        if (isFaulty({x, y})) out.push_back({x, y});
      }
    }
    return out;
  }

  /// The underlying paged storage (page-sharing stats in tests/benches).
  const PagedGrid<std::uint8_t>& pages() const { return faulty_; }

 private:
  Mesh2D mesh_;
  PagedGrid<std::uint8_t> faulty_;
  std::size_t count_ = 0;
};

}  // namespace meshrt
