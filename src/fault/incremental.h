// Incremental maintenance of the MCC labeling fixpoint and component index
// under online fault arrival and repair.
//
// Both label rules have acyclic dependencies (useless reads +X/+Y only,
// can't-reach reads -X/-Y only), so the fixpoint is unique and any chaotic
// re-evaluation order converges to it. addFault/removeFault therefore run a
// worklist that re-derives a node's label from its neighbors and enqueues
// the node's dependents only when the label actually flipped: the work is
// proportional to the changed wavefront, not the mesh. The MCC index is
// patched by retiring every component that contains or borders a changed
// cell and re-extracting components inside that region only — the region is
// closed under unsafe 4-connectivity, so the localized flood fill cannot
// leak into (or miss) untouched components. removeFault handles component
// splits the same way: the retired component's remaining cells re-extract
// into one component per surviving piece. See DESIGN.md section 6 for the
// wavefront and closure arguments.
//
// Differentially tested against computeLabels + extractMccs: random
// add/remove sequences produce bit-identical LabelGrids and identical MCC
// sets (tests/incremental_test.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fault/fault_set.h"
#include "fault/labeling.h"
#include "fault/mcc.h"
#include "mesh/mesh.h"

namespace meshrt {

/// What one addFault/removeFault changed. Points are in the labeler's
/// (local) frame. Consumers that cache label-derived state (knowledge
/// bases, routers) use deltas to update instead of rebuilding; see
/// QuadrantInfo::refresh.
struct LabelDelta {
  /// Labeler version after applying this delta (0 = never mutated). A
  /// no-op toggle (adding an already-faulty node, removing a healthy one)
  /// keeps the version and reports empty vectors.
  std::uint64_t version = 0;
  /// The toggled node.
  Point fault{};
  bool added = false;
  /// Every node whose label byte differs from before the delta (includes
  /// `fault` itself unless the toggle was a no-op).
  std::vector<Point> changed;
  /// Component ids retired by this delta. Retired slots in mccs() keep
  /// their position with id == -1 and may be reused by later deltas.
  std::vector<int> removedMccs;
  /// Component ids created by this delta (ascending).
  std::vector<int> addedMccs;

  bool empty() const { return changed.empty(); }
};

/// Tag selecting the read-only clone path: epoch snapshots share COW
/// pages and MCC records with the writer but drop the delta-replay log
/// and per-delta scratch lists — clones are pre-synced by contract
/// (KnowledgeBundle::cloneFor), so the log would only be dead weight
/// copied on every publish.
struct SnapshotCloneTag {};

class IncrementalLabeler {
 public:
  /// Fault-free mesh.
  explicit IncrementalLabeler(const Mesh2D& localMesh);
  /// Bulk initialization: runs the full computeLabels + extractMccs, so
  /// the starting state is exactly the static pipeline's.
  IncrementalLabeler(const Mesh2D& localMesh, const FaultSet& localFaults);
  /// Read-only clone for epoch snapshots: label/index/scratch pages and
  /// MCC records are shared COW; deltaLog() comes back empty (a clone at
  /// version v with an empty log rebuilds-from-scratch if anyone ever
  /// asks it to sync knowledge, but pre-synced consumers no-op).
  IncrementalLabeler(const IncrementalLabeler& other, SnapshotCloneTag);

  const Mesh2D& mesh() const { return mesh_; }
  const LabelGrid& labels() const { return labels_; }

  /// Id-indexed component storage (shared immutable records; see
  /// MccSlots). Retired slots have id == -1; live slots satisfy
  /// mccs()[id].id == id. Iterate via liveMccs() unless you need the raw
  /// id-indexed slots.
  const MccSlots& mccs() const { return mccs_; }
  /// The live components only (retired tombstones skipped).
  MccSlots::LiveRange liveMccs() const { return mccs_.live(); }
  /// Per-node component id (-1 for safe nodes).
  const MccIndexGrid& mccIndex() const { return mccIndex_; }
  /// Number of live components (mccs() minus retired slots).
  std::size_t mccCount() const { return liveMccs_; }

  std::size_t unsafeCount() const { return unsafeCount_; }
  std::size_t faultCount() const { return faultCount_; }
  bool isFaulty(Point p) const { return labels_.isFaulty(p); }

  /// Bumped once per effective addFault/removeFault.
  std::uint64_t version() const { return version_; }

  /// Marks p faulty and restores the labeling fixpoint over the affected
  /// wavefront. Returns the (possibly empty) delta; effective deltas are
  /// also appended to deltaLog().
  LabelDelta addFault(Point p);
  /// Repairs p; handles component shrink and split via localized
  /// re-extraction.
  LabelDelta removeFault(Point p);

  /// Recent effective deltas, oldest first, trimmed to kDeltaLogCapacity.
  /// A consumer at version v catches up by applying the log entries with
  /// version > v; when the log no longer reaches back to v + 1 it must
  /// rebuild from scratch instead (see QuadrantInfo::sync).
  const std::deque<LabelDelta>& deltaLog() const { return log_; }
  static constexpr std::size_t kDeltaLogCapacity = 64;

 private:
  bool blockedForward(Point p) const;
  bool blockedBackward(Point p) const;
  /// Records p as touched (first time per delta) so the final changed set
  /// can be derived by comparing against the pre-delta byte.
  void touch(Point p);
  /// Overwrites p's label byte, keeping unsafeCount_ in step.
  void setRaw(Point p, std::uint8_t bits);
  /// Re-derives one label bit of q from its neighbors; on a flip, enqueues
  /// the nodes whose own label reads q.
  void recheckUseless(Point q, std::vector<Point>& worklist);
  void recheckCantReach(Point q, std::vector<Point>& worklist);
  void drainWavefront(std::vector<Point>& uselessWl,
                      std::vector<Point>& cantWl);
  /// Collects the final changed set into `delta` and patches the MCC
  /// storage around it.
  void finalizeDelta(LabelDelta& delta);
  void patchMccs(LabelDelta& delta);
  int allocateId();

  Mesh2D mesh_;
  LabelGrid labels_;
  MccSlots mccs_;
  MccIndexGrid mccIndex_;
  /// Retired ids available for reuse, kept sorted ascending (smallest id
  /// is reused first, deterministically).
  std::vector<int> freeIds_;
  std::size_t liveMccs_ = 0;
  std::size_t unsafeCount_ = 0;
  std::size_t faultCount_ = 0;
  std::uint64_t version_ = 0;
  std::deque<LabelDelta> log_;

  // Per-delta scratch, epoch-stamped so deltas never pay an O(mesh) clear.
  // Paged like the real state: the scratch rides along in epoch clones
  // (QuadrantAnalysis copies), so its copy must be O(pages) too.
  std::uint32_t epoch_ = 0;
  PagedGrid<std::uint32_t> touchEpoch_;
  PagedGrid<std::uint8_t> beforeRaw_;
  std::vector<Point> touched_;
};

}  // namespace meshrt
