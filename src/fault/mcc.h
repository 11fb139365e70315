// Extraction of Minimal Connected Components from a labeled grid: the
// 4-connected components of unsafe nodes, each carrying its staircase shape
// F(c), its initialization corner c, and its opposite corner c'.
// extractMccs is the bulk path; fault/incremental.h patches an existing
// extraction in place under fault arrival/repair (DESIGN.md section 6).
// Corner validity follows DESIGN.md section 3 (off-mesh or unsafe corners
// are absent).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/labeling.h"
#include "mesh/mesh.h"
#include "mesh/paged_grid.h"
#include "mesh/rect.h"
#include "mesh/staircase.h"

namespace meshrt {

/// Per-node MCC id storage (-1 for safe nodes), on the same copy-on-write
/// paged pages as the labels so epoch clones share untouched tiles.
using MccIndexGrid = PagedGrid<int>;

struct Mcc {
  int id = -1;
  /// Shape in the local (normalized, non-transposed) frame. Always a valid
  /// staircase: the labeling fixpoint fills every SW/NE pocket.
  Staircase shape;
  /// Same component expressed in the transposed frame (x and y swapped),
  /// used by the type-II (blocked-in-+X) analyses.
  Staircase shapeTransposed;
  /// Initialization corner c = (xmin-1, ymin-1), present only when it lies
  /// inside the mesh and is itself safe; absent corners make the detour
  /// through them infeasible (e.g. MCCs glued to the mesh border).
  std::optional<Point> cornerC;
  /// Opposite corner c' = (xmax+1, ymax+1) with the same caveats.
  std::optional<Point> cornerCPrime;
  /// Secondary rounding extremes used by detour legs whose movement
  /// signature is NW/SE (the paper only needs c and c' because its chains
  /// stay inside the s-d band; multi-phase legs between corners can travel
  /// in any direction). NW = (xmin-1, hi(xmin)+1), SE = (xmax+1, lo(xmax)-1).
  std::optional<Point> cornerNW;
  std::optional<Point> cornerSE;
  std::size_t cellCount = 0;
  std::size_t faultyCells = 0;

  /// Bounding box helper in the local frame.
  Rect bounds() const;
};

/// Id-indexed component records behind copy-on-write chunks of shared
/// immutable slots: the incremental labeler's component storage. Records
/// never mutate in place — a patch retires or replaces whole slots — so
/// copying the container (epoch clones) copies one pointer per CHUNK of
/// 64 slots and shares everything beneath, including the Staircase heap
/// data: a clone of 4k components costs ~64 refcount bumps and zero
/// allocations instead of O(total MCC cells), and a delta detaches only
/// the chunks holding the ids it rebuilt (DESIGN.md section 9). Retired
/// slots read as a shared tombstone record (id == -1), keeping plain
/// indexed reads valid everywhere.
class MccSlots {
  static constexpr std::size_t kChunkBits = 6;
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;
  static constexpr std::size_t kChunkMask = kChunkSlots - 1;
  struct Chunk {
    std::array<std::shared_ptr<const Mcc>, kChunkSlots> slots;
  };

 public:
  MccSlots() = default;
  /// Takes over a bulk extraction's records.
  explicit MccSlots(std::vector<Mcc> bulk) {
    for (Mcc& mcc : bulk) {
      const int id = append();
      set(static_cast<std::size_t>(id), std::move(mcc));
    }
  }

  /// Copies share every chunk. Member-wise copy is correct because the
  /// embedded CowOwnership's copy IS the ownership-epoch protocol (the
  /// same one as PagedGrid — never use_count, see mesh/paged_grid.h):
  /// it bumps the source's epoch, so both sides detach the touched
  /// chunk before their next mutation.
  MccSlots(const MccSlots&) = default;
  MccSlots& operator=(const MccSlots&) = default;
  MccSlots(MccSlots&&) noexcept = default;
  MccSlots& operator=(MccSlots&&) noexcept = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Indexed read; retired slots yield the shared tombstone (id == -1).
  const Mcc& operator[](std::size_t i) const {
    const auto& slot = chunks_[i >> kChunkBits]->slots[i & kChunkMask];
    return slot ? *slot : *tombstone();
  }
  const Mcc& front() const { return (*this)[0]; }

  /// Whole-sequence iteration, tombstones included (id == -1 slots).
  class const_iterator {
   public:
    const_iterator(const MccSlots* owner, std::size_t i)
        : owner_(owner), i_(i) {}
    const Mcc& operator*() const { return (*owner_)[i_]; }
    const Mcc* operator->() const { return &(*owner_)[i_]; }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return i_ == o.i_; }
    bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

   private:
    const MccSlots* owner_;
    std::size_t i_;
  };
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  /// The live records only (tombstones skipped).
  class LiveRange {
   public:
    class iterator {
     public:
      iterator(const MccSlots* owner, std::size_t i) : owner_(owner), i_(i) {
        skipRetired();
      }
      const Mcc& operator*() const { return (*owner_)[i_]; }
      const Mcc* operator->() const { return &(*owner_)[i_]; }
      iterator& operator++() {
        ++i_;
        skipRetired();
        return *this;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      void skipRetired() {
        while (i_ < owner_->size() && (*owner_)[i_].id < 0) ++i_;
      }
      const MccSlots* owner_;
      std::size_t i_;
    };
    explicit LiveRange(const MccSlots* owner) : owner_(owner) {}
    iterator begin() const { return iterator(owner_, 0); }
    iterator end() const { return iterator(owner_, owner_->size()); }

   private:
    const MccSlots* owner_;
  };
  LiveRange live() const { return LiveRange(this); }

  /// Appends a tombstone slot and returns its id.
  int append() {
    const std::size_t i = size_++;
    if ((i >> kChunkBits) == chunks_.size()) {
      chunks_.push_back(std::make_shared<Chunk>());
      own_.appendOwned();
    } else {
      ensureUnique(i >> kChunkBits);
    }
    return static_cast<int>(i);
  }
  /// Replaces slot i with a fresh immutable record.
  void set(std::size_t i, Mcc mcc) {
    ensureUnique(i >> kChunkBits).slots[i & kChunkMask] =
        std::make_shared<const Mcc>(std::move(mcc));
  }
  /// Tombstones slot i (the record stays alive for sharing clones).
  void retire(std::size_t i) {
    ensureUnique(i >> kChunkBits).slots[i & kChunkMask] = nullptr;
  }

 private:
  Chunk& ensureUnique(std::size_t c) {
    auto& chunk = chunks_[c];
    if (!own_.owned(c)) {
      chunk = std::make_shared<Chunk>(*chunk);
      own_.markOwned(c);
    }
    return *chunk;
  }

  /// One process-wide retired record (id == -1), so indexed reads of
  /// retired slots stay valid without per-tombstone allocation.
  static const std::shared_ptr<const Mcc>& tombstone();

  std::vector<std::shared_ptr<Chunk>> chunks_;
  detail::CowOwnership own_;
  std::size_t size_ = 0;
};

struct MccExtraction {
  std::vector<Mcc> mccs;
  /// Per-node MCC id (-1 for safe nodes), local frame.
  MccIndexGrid mccIndex;
};

/// Splits the unsafe nodes of `labels` into MCCs. Aborts (assert) if any
/// component violates the staircase invariant, which the labeling fixpoint
/// provably prevents.
MccExtraction extractMccs(const Mesh2D& localMesh, const LabelGrid& labels);

/// Builds the full Mcc record (shape, transposed shape, corners, counts)
/// for one component's cells under `id`. Shared by extractMccs and the
/// incremental patcher (fault/incremental.h), so both produce identical
/// records. Throws std::logic_error when the cells violate the staircase
/// invariant.
Mcc buildMcc(const Mesh2D& localMesh, const LabelGrid& labels,
             const std::vector<Point>& cells, int id);

/// Collects the 4-connected unsafe component containing `seed` into
/// `cells` (cleared first), stamping `id` into `index`. Precondition:
/// `seed` is unsafe with index[seed] == -1. One traversal shared by
/// extractMccs and the incremental patcher — cell order feeds Staircase
/// construction, so both sides must walk identically for the differential
/// bit-identity contract to hold.
void floodComponent(const Mesh2D& localMesh, const LabelGrid& labels,
                    MccIndexGrid& index, Point seed, int id,
                    std::vector<Point>& cells);

}  // namespace meshrt
