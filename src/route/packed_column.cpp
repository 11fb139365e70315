#include "route/packed_column.h"

#include <algorithm>

namespace meshrt {

namespace {

/// Padding past the last packed byte so a 4-byte SIMD gather load at any
/// valid entry offset stays inside the allocation.
constexpr std::size_t kGatherPad = 3;

/// Chase-length sentinel for entries whose chase never terminates.
constexpr std::int64_t kCycle = -2;
constexpr std::int64_t kUnvisited = -1;

}  // namespace

PackedRouteColumn::PackedRouteColumn(const RouteColumn& dense,
                                     const Mesh2D& mesh)
    : dest_(dense.dest()),
      destId_(mesh.id(dense.dest())),
      width_(mesh.width()),
      nodeCount_(mesh.nodeCount()),
      nibbles_((static_cast<std::size_t>(mesh.nodeCount()) + 1) / 2 +
                   kGatherPad,
               static_cast<std::uint8_t>(kNoRouteNibble | (kNoRouteNibble
                                                           << 4))),
      routedSources_(dense.routedSources()) {
  // Reciprocal of the width for distanceToDest: with 2^(L-1) < width <=
  // 2^L and magic = ceil(2^(31+L) / width), (id * magic) >> (31+L) is
  // id / width for every 0 <= id < 2^31, and the product fits 64 bits.
  int log2Width = 0;
  while ((NodeId{1} << log2Width) < width_) ++log2Width;
  rowShift_ = 31 + log2Width;
  const auto width = static_cast<std::uint64_t>(width_);
  rowMagic_ = ((std::uint64_t{1} << rowShift_) + width - 1) / width;
  for (NodeId id = 0; id < nodeCount_; ++id) {
    const std::uint8_t hop = dense.next(id);
    setNibble(id, hop == RouteColumn::kNoRoute ? kNoRouteNibble : hop);
  }
  resolveChases();
}

void PackedRouteColumn::setNibble(NodeId id, std::uint8_t value) {
  const auto i = static_cast<std::size_t>(id);
  auto& byte = nibbles_[i >> 1];
  const int shift = static_cast<int>(i & 1) * 4;
  byte = static_cast<std::uint8_t>((byte & (0xF0 >> shift)) |
                                   ((value & 0x7) << shift));
}

PackedRouteColumn PackedRouteColumn::patched(
    Router& router, const FaultSet& faults,
    const std::vector<NodeId>& cells) const {
  PackedRouteColumn out = *this;
  std::vector<std::uint8_t> hops(cells.size());
  router.firstHops(faults, dest_, cells, hops.data());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const NodeId id = cells[i];
    const std::uint8_t was = out.nibble(id);
    if (was != kNoRouteNibble) --out.routedSources_;
    const std::uint8_t hop = hops[i];
    if (hop == RouteColumn::kNoRoute) {
      out.setNibble(id, kNoRouteNibble);
    } else {
      out.setNibble(id, hop);
      ++out.routedSources_;
    }
  }
  out.resolveChases();
  return out;
}

void PackedRouteColumn::resolveChases() {
  // Chase length per node over the functional hop graph, resolved with
  // one memoized walk per unresolved node: follow hops until reaching
  // the destination (0 steps there), a no-route entry (its chase
  // terminates on the spot, 0 steps), an already-resolved node, or a
  // node on the current walk (a cycle: everything on the walk feeds the
  // cycle and never terminates). A terminating chase never revisits a
  // node, so every finite length — and hence the bound — is <=
  // nodeCount. O(nodeCount) total: each node is walked exactly once.
  //
  // The minimal bits ride the same unwinding. A node is minimal iff its
  // successor is minimal and its own length equals its Manhattan
  // distance (each hop moves the distance by exactly one, so that holds
  // iff the hop closes in on the destination). No-route and cycle
  // suffixes are never minimal; the destination is (0 hops, distance 0).
  for (std::uint8_t& byte : nibbles_) byte &= 0x77;  // patches re-derive
  const auto setMinimal = [this](NodeId id) {
    const auto i = static_cast<std::size_t>(id);
    nibbles_[i >> 1] |=
        static_cast<std::uint8_t>(kMinimalBit << ((i & 1) * 4));
  };
  setMinimal(destId_);

  const auto n = static_cast<std::size_t>(nodeCount_);
  std::vector<std::int64_t> length(n, kUnvisited);
  constexpr std::int64_t kOnWalk = -3;
  const NodeId idStep[4] = {1, -1, width_, -width_};
  std::vector<NodeId> walk;
  std::int64_t bound = 0;
  for (NodeId start = 0; start < nodeCount_; ++start) {
    if (length[static_cast<std::size_t>(start)] != kUnvisited) continue;
    walk.clear();
    NodeId u = start;
    std::int64_t base = 0;
    bool cycle = false;
    bool minimalSuffix = false;
    while (true) {
      if (u == destId_) {  // delivered in 0 further steps
        minimalSuffix = true;
        break;
      }
      auto& mark = length[static_cast<std::size_t>(u)];
      if (mark == kOnWalk) {
        cycle = true;
        break;
      }
      if (mark == kCycle) {
        cycle = true;
        break;
      }
      if (mark != kUnvisited) {
        base = mark;
        minimalSuffix = minimal(u);
        break;
      }
      const std::uint8_t raw = nibble(u);
      if (raw & 0x4) {
        mark = 0;  // NoRoute is decided at u without advancing
        break;
      }
      mark = kOnWalk;
      walk.push_back(u);
      u += idStep[raw];
    }
    for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
      auto& mark = length[static_cast<std::size_t>(*it)];
      if (cycle) {
        mark = kCycle;
      } else {
        mark = ++base;
        bound = std::max(bound, base);
        minimalSuffix = minimalSuffix && base == distanceToDest(*it);
        if (minimalSuffix) setMinimal(*it);
      }
    }
  }
  hopBound_ = static_cast<std::uint32_t>(
      std::min<std::int64_t>(bound, nodeCount_));
}

PackedRouteColumn compilePackedRouteColumn(Router& router,
                                           const FaultSet& faults,
                                           Point dest) {
  return PackedRouteColumn(compileRouteColumn(router, faults, dest),
                           faults.mesh());
}

}  // namespace meshrt
