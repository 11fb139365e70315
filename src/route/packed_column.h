// 3-bit packed next-hop columns: the route service's only column
// encoding.
//
// A RouteColumn entry has exactly five states (four Dir values plus
// kNoRoute), which fit in 3 bits; PackedRouteColumn stores two entries
// per byte (low and high nibble, 3 payload bits each), halving the cache
// footprint of every column an epoch carries — a 64x64 column drops from
// 4 KiB to 2 KiB, so a whole destination group's chases run out of L1.
// The packed column compiles FROM a RouteColumn (the dense byte array is
// compile scratch) and patches through the same Router::firstHops batch
// RouteColumn::patched uses, so its entries are bit-identical to the
// dense column's by construction (and by differential test:
// tests/packed_column_test.cpp). The dense RouteColumn stays as the
// tests' oracle and as the table behind "table:<key>" routers.
//
// The 4th bit of every nibble (kMinimalBit) marks the nodes whose chase
// delivers in exactly manhattan(u, dest) hops — the Theorem 1 common
// case for rb2. A chase that reaches such a node after k steps delivers
// in k + manhattan(u, dest) hops, so every chase engine retires it there
// without walking the rest (see chaseColumn and route/batch_chase.h).
//
// Each column also carries its chase hop bound: the longest terminating
// chase (delivered or no-route) over the column. One memoized pass over
// the functional hop graph (resolveChases) derives both the bound and
// the minimal bits, at compile and on every patch. A terminating chase
// never revisits a node (revisiting would cycle forever), so bound <=
// nodeCount, and a lockstep batch loop can run exactly `bound` steps
// with NO per-lane step bookkeeping: every lane still active afterwards
// would also still be active after nodeCount steps, i.e. it diverged.
// That hoists the livelock guard out of the hot loop and turns Diverged
// detection into an end-of-chase mask check. The minimal shortcut needs
// no bound of its own: a chase at minimal node u after k steps delivers
// at exactly k + manhattan(u, dest), so under any step cap it is
// Delivered when that fits and Diverged otherwise. See DESIGN.md
// section 10.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <variant>
#include <vector>

#include "fault/fault_set.h"
#include "route/route_table.h"

namespace meshrt {

/// Compiled next hops toward one destination, two 3-bit entries per
/// byte. Immutable once handed to readers; patched() produces the
/// successor version for a fault delta — the same contract as
/// RouteColumn (chaseUpstream works on it unchanged, the service's COW
/// column page table never sees the difference).
class PackedRouteColumn {
 public:
  /// Raw nibble value standing for RouteColumn::kNoRoute (Dir values
  /// occupy 0..3; anything with bit 2 set is "no route", and compiles
  /// write exactly 7 so the SIMD lanes can test one constant).
  static constexpr std::uint8_t kNoRouteNibble = 0x7;
  /// Spare 4th nibble bit: set on u exactly when the chase from u
  /// delivers in manhattan(u, dest) hops (the destination included).
  static constexpr std::uint8_t kMinimalBit = 0x8;

  /// Packs `dense` (compiled or patched by the usual route_table path).
  /// The hop bound and the minimal bits are derived here: one memoized
  /// pass over the hop graph, O(nodeCount).
  PackedRouteColumn(const RouteColumn& dense, const Mesh2D& mesh);

  Point dest() const { return dest_; }
  Coord width() const { return width_; }
  NodeId nodeCount() const { return nodeCount_; }

  /// Stored hop for node id in the RouteColumn byte convention: a Dir
  /// cast, or RouteColumn::kNoRoute — so the generic chaseColumn /
  /// chaseUpstream templates run on either encoding.
  std::uint8_t next(NodeId id) const {
    const std::uint8_t raw = nibble(id);
    return (raw & 0x4) ? RouteColumn::kNoRoute : raw;
  }

  /// Raw 3-bit entry (a Dir value or kNoRouteNibble), minimal bit
  /// stripped.
  std::uint8_t nibble(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return static_cast<std::uint8_t>(
        (nibbles_[i >> 1] >> ((i & 1) * 4)) & 0x7);
  }

  /// True when the chase from node id delivers in exactly
  /// distanceToDest(id) hops (kMinimalBit).
  bool minimal(NodeId id) const {
    const auto i = static_cast<std::size_t>(id);
    return (nibbles_[i >> 1] >> ((i & 1) * 4)) & kMinimalBit;
  }

  /// Manhattan distance from node id to the destination. The row comes
  /// from a multiply by the width's precomputed reciprocal, not a
  /// hardware divide (exact for every id < 2^31: Granlund-Montgomery).
  std::int32_t distanceToDest(NodeId id) const {
    const auto row = static_cast<NodeId>(
        (static_cast<std::uint64_t>(id) * rowMagic_) >> rowShift_);
    const NodeId col = id - row * width_;
    return std::abs(col - dest_.x) + std::abs(row - dest_.y);
  }

  /// Base of the packed bytes for the batch-chase kernels. Padded with
  /// 3 trailing bytes so a 4-byte gather load at the last entry's byte
  /// offset stays in bounds.
  const std::uint8_t* nibbleBytes() const { return nibbles_.data(); }

  /// Number of sources with a stored hop (serving coverage).
  std::size_t routedSources() const { return routedSources_; }

  /// Resident payload bytes (two 4-bit entries per byte plus the gather
  /// padding) — the bounded column cache's accounting unit.
  std::size_t sizeBytes() const { return nibbles_.size(); }

  /// Steps after which every still-running chase is Diverged: the
  /// longest terminating chase over live entries, <= nodeCount.
  std::uint32_t hopBound() const { return hopBound_; }

  /// Copy with the entries of `cells` recomputed as fresh first hops of
  /// `router` (which must read the post-delta analysis); every other
  /// entry is carried verbatim, the hop bound and minimal bits are
  /// re-derived (so the bytes equal a fresh compile's). Mirrors
  /// RouteColumn::patched entry for entry (same firstHops batch).
  PackedRouteColumn patched(Router& router, const FaultSet& faults,
                            const std::vector<NodeId>& cells) const;

 private:
  void setNibble(NodeId id, std::uint8_t value);
  /// Resolves the functional hop graph: sets hopBound_ to the max finite
  /// chase length and kMinimalBit on exactly the minimal nodes.
  void resolveChases();

  Point dest_;
  NodeId destId_;
  Coord width_;
  NodeId nodeCount_;
  std::vector<std::uint8_t> nibbles_;
  std::size_t routedSources_ = 0;
  std::uint32_t hopBound_ = 0;
  /// row(id) = (id * rowMagic_) >> rowShift_ (see distanceToDest).
  std::uint64_t rowMagic_ = 0;
  int rowShift_ = 0;
};

/// Compiles the packed column for `dest` by packing the dense compile —
/// identical entries to compileRouteColumn by construction.
PackedRouteColumn compilePackedRouteColumn(Router& router,
                                           const FaultSet& faults,
                                           Point dest);

/// One slot of the service's COW column page table. Service columns are
/// always packed, so the variant has one alternative; it stays a variant
/// because the perfbench driver (perfbench/meshbench.cpp) reads pinned
/// slots through std::get_if<PackedRouteColumn>.
using ColumnVariant = std::variant<PackedRouteColumn>;

/// Resident bytes of a column slot.
inline std::size_t columnSizeBytes(const ColumnVariant& column) {
  return std::get<PackedRouteColumn>(column).sizeBytes();
}

}  // namespace meshrt
