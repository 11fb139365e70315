// Per-quadrant fault analysis: the labeling and MCC extraction for one
// normalized frame, plus the four-quadrant bundle a routing session uses.
// Labels and MCC cells are invariant under transpose, so type-II analyses
// reuse the same QuadrantAnalysis through transposed views.
//
// The labeling state lives in an IncrementalLabeler, so an analysis can be
// patched in place when faults arrive or are repaired while the network
// runs (DESIGN.md section 6). Static sweeps never call the mutators and
// behave exactly as a bulk computeLabels + extractMccs. DynamicFaultModel
// below is the front door for the online path: it owns the FaultSet and
// keeps every materialized quadrant in step.
#pragma once

#include <array>
#include <memory>
#include <mutex>

#include "common/telemetry.h"
#include "fault/fault_set.h"
#include "fault/incremental.h"
#include "fault/labeling.h"
#include "fault/mcc.h"
#include "mesh/frame.h"

namespace meshrt {

/// Optional labeler instrumentation, fed per LabelDelta as dynamic fault
/// toggles patch the materialized quadrants. Null members are skipped; a
/// default-constructed value is inert.
struct LabelerTelemetry {
  std::shared_ptr<Counter> cellsRelabeled;  ///< label bytes changed
  std::shared_ptr<Counter> mccsRetired;     ///< component slots retired
  std::shared_ptr<Counter> mccsBuilt;       ///< components created
};

class QuadrantAnalysis {
 public:
  QuadrantAnalysis(const FaultSet& faults, Quadrant q);
  /// Read-only clone for epoch snapshots (see SnapshotCloneTag).
  QuadrantAnalysis(const QuadrantAnalysis& other, SnapshotCloneTag tag)
      : quadrant_(other.quadrant_),
        frame_(other.frame_),
        localMesh_(other.localMesh_),
        labeler_(other.labeler_, tag) {}

  Quadrant quadrant() const { return quadrant_; }
  /// Non-transposed local frame of this quadrant.
  const Frame& frame() const { return frame_; }
  const Mesh2D& localMesh() const { return localMesh_; }
  const LabelGrid& labels() const { return labeler_.labels(); }

  /// Id-indexed component storage. After dynamic deltas, retired slots
  /// (id == -1) appear; iterate via liveMccs() unless you need the raw
  /// id-indexed slots. mccCount() counts live components.
  const MccSlots& mccs() const { return labeler_.mccs(); }
  /// The live components only (retired tombstones skipped).
  MccSlots::LiveRange liveMccs() const { return labeler_.liveMccs(); }
  std::size_t mccCount() const { return labeler_.mccCount(); }

  /// MCC id at a local-frame point, or -1.
  int mccIndexAt(Point local) const { return labeler_.mccIndex()[local]; }

  /// The full id map (local frame).
  const MccIndexGrid& mccIndex() const { return labeler_.mccIndex(); }

  bool isSafeLocal(Point local) const { return labels().isSafe(local); }
  bool isSafeWorld(Point world) const {
    return labels().isSafe(frame_.toLocal(world));
  }

  std::size_t unsafeCount() const { return labeler_.unsafeCount(); }

  /// The labeling engine: version() and deltaLog() let knowledge bases
  /// follow dynamic updates (QuadrantInfo::sync).
  const IncrementalLabeler& labeler() const { return labeler_; }
  std::uint64_t version() const { return labeler_.version(); }

  /// Online fault arrival/repair in world coordinates. The returned delta
  /// is in this quadrant's local frame. Callers normally go through
  /// DynamicFaultModel, which also keeps the FaultSet in step.
  LabelDelta addFault(Point world) {
    return labeler_.addFault(frame_.toLocal(world));
  }
  LabelDelta removeFault(Point world) {
    return labeler_.removeFault(frame_.toLocal(world));
  }

 private:
  Quadrant quadrant_;
  Frame frame_;
  Mesh2D localMesh_;
  IncrementalLabeler labeler_;
};

/// Lazily materializes the four quadrant analyses of one fault set.
///
/// Lazy materialization is thread-safe: concurrent first touch of a
/// quadrant is serialized through a per-quadrant once_flag, so sharing an
/// analysis across reader threads needs no ceremony. materializeAll() is
/// merely a warm-up hint that front-loads the labeling work while the
/// caller is still single-threaded (sharded column compiles would
/// otherwise pay the first-touch latency inside one unlucky job).
class FaultAnalysis {
 public:
  explicit FaultAnalysis(const FaultSet& faults) : faults_(&faults) {}

  const QuadrantAnalysis& quadrant(Quadrant q) const;

  /// Analysis for routing from s to d (quadrant chosen per the paper's
  /// normalization; ties toward NE).
  const QuadrantAnalysis& forPair(Point s, Point d) const {
    return quadrant(quadrantOf(s, d));
  }

  const FaultSet& faults() const { return *faults_; }

  /// Warm-up hint: forces all four quadrants now, so later quadrant()
  /// calls never pay first-touch labeling. Safe to skip.
  void materializeAll() const;

  /// Copy over `faults`, which must hold exactly the node set this
  /// analysis reflects (the service snapshots a FaultSet copy and clones
  /// the incrementally patched analysis onto it — no relabeling happens).
  /// Quadrants are materialized in the clone; the copy shares label/index
  /// pages with this analysis until either side writes (COW).
  std::unique_ptr<FaultAnalysis> cloneFor(const FaultSet& faults) const;

  /// Patches every materialized quadrant after the underlying FaultSet
  /// gained/lost `world`. The caller must mutate the FaultSet first so
  /// quadrants materialized later agree with the patched ones (see
  /// DynamicFaultModel, which owns that ordering). Returns the union of
  /// label-changed cells across the patched quadrants, mapped to world
  /// coordinates (sorted, deduplicated) — what the route service
  /// intersects against table-column regions to invalidate columns.
  std::vector<Point> applyAddFault(Point world);
  std::vector<Point> applyRemoveFault(Point world);

  /// Binds per-delta instruments (counted once per quadrant delta on the
  /// apply path — the single-writer side, so plain increments suffice).
  void setTelemetry(LabelerTelemetry telemetry) {
    telemetry_ = std::move(telemetry);
  }

 private:
  void recordDelta(const LabelDelta& delta);

  LabelerTelemetry telemetry_;
  const FaultSet* faults_;
  mutable std::array<std::unique_ptr<QuadrantAnalysis>, 4> cache_;
  /// Serializes concurrent first touch per quadrant. cloneFor fills
  /// cache_ slots directly without firing these; the first quadrant()
  /// call then runs an empty once-lambda and reads the slot.
  mutable std::array<std::once_flag, 4> once_;
};

/// One effective fault toggle as seen by the route service: which node
/// flipped, which way, and every world-coordinate cell whose label byte
/// changed in any materialized quadrant (always includes `fault` when
/// applied). A no-op toggle reports applied == false and empty cells.
struct FaultEvent {
  bool applied = false;
  Point fault{};
  bool added = false;
  std::vector<Point> changedWorld;
};

/// Owns a FaultSet and its FaultAnalysis, keeping both in step under
/// online fault arrival and repair — the object a dynamic routing session
/// (DynamicSweep, NoC scenarios) holds instead of a frozen FaultSet.
class DynamicFaultModel {
 public:
  explicit DynamicFaultModel(const Mesh2D& mesh)
      : faults_(mesh), analysis_(faults_) {}
  explicit DynamicFaultModel(const FaultSet& initial)
      : faults_(initial), analysis_(faults_) {}

  // The analysis points into faults_; pinning the object keeps
  // RouterContext{&faults(), &analysis()} valid for the session.
  DynamicFaultModel(const DynamicFaultModel&) = delete;
  DynamicFaultModel& operator=(const DynamicFaultModel&) = delete;

  const Mesh2D& mesh() const { return faults_.mesh(); }
  const FaultSet& faults() const { return faults_; }
  const FaultAnalysis& analysis() const { return analysis_; }

  /// Number of effective add/remove events so far.
  std::uint64_t version() const { return version_; }

  /// Returns false when the toggle was a no-op (already faulty/healthy).
  bool addFault(Point p) { return addFaultEvent(p).applied; }
  bool removeFault(Point p) { return removeFaultEvent(p).applied; }

  /// Like addFault/removeFault but also reports the world-coordinate
  /// label-change footprint (see FaultEvent) for delta consumers.
  FaultEvent addFaultEvent(Point p);
  FaultEvent removeFaultEvent(Point p);

  /// Binds per-delta labeler instruments (see FaultAnalysis::setTelemetry).
  void setTelemetry(LabelerTelemetry telemetry) {
    analysis_.setTelemetry(std::move(telemetry));
  }

 private:
  FaultSet faults_;
  FaultAnalysis analysis_;
  std::uint64_t version_ = 0;
};

}  // namespace meshrt
