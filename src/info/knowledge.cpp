#include "info/knowledge.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <utility>

#include "info/boundary_walker.h"
#include "info/transpose.h"

namespace meshrt {

namespace {

constexpr std::uint8_t kModeEast = 1;   // travelling +X from the -X boundary
constexpr std::uint8_t kModeWest = 2;   // travelling -X from the +X boundary
constexpr std::uint8_t kModeNorth = 4;  // the +Y chains

/// Chebyshev dilation radius used to decide which surviving MCCs a label
/// delta can affect. Boundary walks and floods take node-local decisions
/// from the 3x3 neighborhood of the nodes they visit, so any label change
/// that can redirect a propagation lies within Chebyshev distance 2 of its
/// recorded footprint (DESIGN.md section 6).
constexpr Coord kTouchRadius = 2;

}  // namespace

void QuadrantInfo::markInvolved(Point p, int mccId,
                                std::vector<Point>& footprint) {
  if (std::as_const(involveStamp_)[p] == involveEpoch_) return;  // counted
  involveStamp_[p] = involveEpoch_;
  footprint.push_back(p);
  ++perMccInvolved_[static_cast<std::size_t>(mccId)];
  if (involvedRefs_[p]++ == 0) ++involvedCount_;
}

void QuadrantInfo::addKnown(PagedGrid<std::vector<int>>& table,
                            std::vector<Point>& nodes, Point p, int id) {
  auto& list = table[p];
  const auto it = std::lower_bound(list.begin(), list.end(), id);
  if (it != list.end() && *it == id) return;
  list.insert(it, id);
  nodes.push_back(p);
}

QuadrantInfo::TransposedView QuadrantInfo::makeView() const {
  const Mesh2D& mesh = analysis_->localMesh();
  return TransposedView{
      meshT_, transposeLabels(mesh, analysis_->labels(), meshT_),
      transposeIndex(mesh, analysis_->mccIndex(), meshT_)};
}

QuadrantInfo::QuadrantInfo(const QuadrantAnalysis& qa, InfoModel model)
    : analysis_(&qa),
      model_(model),
      meshT_(qa.localMesh().height(), qa.localMesh().width()),
      knownI_(qa.localMesh()),
      knownII_(qa.localMesh()),
      involvedRefs_(qa.localMesh(), 0),
      involveStamp_(qa.localMesh(), 0),
      stamp_(qa.localMesh(), 0),
      floodStamp_(qa.localMesh(), 0),
      floodStampT_(meshT_, 0),
      modeStamp_(qa.localMesh(), 0),
      modes_(qa.localMesh(), 0),
      modeStampT_(meshT_, 0),
      modesT_(meshT_, 0) {
  buildAll();
}

void QuadrantInfo::growTo(std::size_t mccSlots) {
  if (nodesI_.size() >= mccSlots) return;
  nodesI_.resize(mccSlots);
  nodesII_.resize(mccSlots);
  footprint_.resize(mccSlots);
  perMccInvolved_.resize(mccSlots, 0);
}

void QuadrantInfo::buildAll() {
  growTo(analysis_->mccs().size());
  const TransposedView view = makeView();
  for (const Mcc& mcc : analysis_->liveMccs()) buildFor(mcc.id, view);
  version_ = analysis_->version();
}

void QuadrantInfo::buildFor(int id, const TransposedView& view) {
  const Mesh2D& mesh = analysis_->localMesh();
  const LabelGrid& labels = analysis_->labels();
  const auto& mccs = analysis_->mccs();
  const Mcc& mcc = mccs[static_cast<std::size_t>(id)];
  // Accumulated locally and installed wholesale below, so clones sharing
  // the previous build's reverse maps never see a partial mutation.
  std::vector<Point> nodesI;
  std::vector<Point> nodesII;
  std::vector<Point> footprint;

  ++involveEpoch_;  // involvement dedup scope = this (id, pass)

  // Corner accessors per frame (validity is frame-invariant).
  auto cornerCIn = [&](int g, bool transposed) -> std::optional<Point> {
    const auto& c = mccs[static_cast<std::size_t>(g)].cornerC;
    if (!c) return std::nullopt;
    return transposed ? transposePoint(*c) : *c;
  };
  auto cornerCpIn = [&](int g, bool transposed) -> std::optional<Point> {
    const auto& c = mccs[static_cast<std::size_t>(g)].cornerCPrime;
    if (!c) return std::nullopt;
    return transposed ? transposePoint(*c) : *c;
  };

  // Boundary spreading for this MCC in one frame. B1 builds only the -X
  // boundary (Algorithm 1); B2/B3 add the +X boundary (Algorithm 4/6); B3
  // additionally forks at every intersected MCC: the split propagations
  // merge into the intersected MCC's own boundaries and carry the triple
  // onward (Algorithm 6 steps 3-4).
  auto spread = [&](const Mesh2D& m, const LabelGrid& lg,
                    const MccIndexGrid& idx, bool transposed,
                    std::vector<Point>* outL, std::vector<Point>* outR,
                    auto&& record) {
    const bool wantPlusX = model_ != InfoModel::B1;
    const bool fork = model_ == InfoModel::B3;
    struct Task {
      Point start;
      WalkHand hand;
    };
    std::vector<Task> tasks;
    std::vector<std::pair<Point, int>> done;
    auto enqueue = [&](std::optional<Point> p, WalkHand h) {
      if (!p) return;
      if (!m.contains(*p) || lg.isUnsafe(*p)) return;
      tasks.push_back({*p, h});
    };
    enqueue(cornerCIn(id, transposed), WalkHand::Left);
    if (wantPlusX) enqueue(cornerCpIn(id, transposed), WalkHand::Right);

    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const Task task = tasks[i];
      const auto key = std::pair<Point, int>{task.start,
                                             static_cast<int>(task.hand)};
      if (std::find(done.begin(), done.end(), key) != done.end()) continue;
      done.push_back(key);

      std::vector<int> hits;
      const auto nodes =
          walkBoundary(m, lg, task.start, task.hand, fork ? &idx : nullptr,
                       fork ? &hits : nullptr);
      for (Point p : nodes) record(p);
      if (task.hand == WalkHand::Left && outL && i == 0) *outL = nodes;
      if (task.hand == WalkHand::Right && outR && i <= 1) *outR = nodes;
      for (int g : hits) {
        enqueue(cornerCIn(g, transposed), WalkHand::Left);
        enqueue(cornerCpIn(g, transposed), WalkHand::Right);
      }
    }
  };

  // Identification ring (Algorithm 1 step 1): the ring nodes relay the
  // shape both ways, so they hold the triple under every model.
  for (Point p : ringNodes(mesh, labels, mcc)) {
    markInvolved(p, id, footprint);
    addKnown(knownI_, nodesI, p, id);
    addKnown(knownII_, nodesII, p, id);
  }

  // Type-I boundaries in the normal frame.
  std::vector<Point> walkL;
  std::vector<Point> walkR;
  spread(mesh, labels, analysis_->mccIndex(), /*transposed=*/false, &walkL,
         &walkR, [&](Point p) {
           markInvolved(p, id, footprint);
           addKnown(knownI_, nodesI, p, id);
         });

  // Type-II boundaries: the same construction in the transposed frame
  // ("for the remaining situation ... simply rotating the mesh").
  std::vector<Point> walkLT;
  std::vector<Point> walkRT;
  spread(view.meshT, view.labelsT, view.indexT, /*transposed=*/true, &walkLT,
         &walkRT, [&](Point pt) {
           const Point p = transposePoint(pt);
           markInvolved(p, id, footprint);
           addKnown(knownII_, nodesII, p, id);
         });

  // B2 only: broadcast the triples through the forbidden region
  // (Algorithm 4 step 5): east from the -X boundary, west from the +X
  // boundary, each intermediate node re-sending +Y; chains stop at unsafe
  // nodes, the mesh edge, or the other boundary. Duplicates are dropped.
  if (model_ == InfoModel::B2) {
    auto flood = [&](const Mesh2D& m, const LabelGrid& lg,
                     PagedGrid<std::uint32_t>& bstamp,
                     PagedGrid<std::uint32_t>& mstamp,
                     PagedGrid<std::uint8_t>& mmodes,
                     const std::vector<Point>& left,
                     const std::vector<Point>& right, Coord floorX,
                     Coord ceilX, auto&& record) {
      ++epoch_;  // scope of this flood's boundary/mode marks
      for (Point p : left) bstamp[p] = epoch_;
      for (Point p : right) bstamp[p] = epoch_;
      // When one boundary could not be constructed (corner at the mesh
      // border or occupied), the broadcast is clipped at that side's
      // natural boundary column — otherwise it has nothing to stop at.
      const bool clipWest = left.empty();
      const bool clipEast = right.empty();
      std::queue<std::pair<Point, std::uint8_t>> q;
      auto push = [&](Point p, std::uint8_t mode) {
        if (!m.contains(p) || lg.isUnsafe(p)) return;
        if (clipWest && p.x < floorX) return;
        if (clipEast && p.x > ceilX) return;
        if (std::as_const(bstamp)[p] == epoch_) return;  // other boundary
        if (std::as_const(mstamp)[p] != epoch_) {
          mstamp[p] = epoch_;
          mmodes[p] = 0;
        }
        if ((std::as_const(mmodes)[p] & mode) != 0) return;
        mmodes[p] |= mode;
        q.push({p, mode});
      };
      for (Point p : left) push(p + Point{1, 0}, kModeEast);
      for (Point p : right) push(p + Point{-1, 0}, kModeWest);
      while (!q.empty()) {
        auto [p, mode] = q.front();
        q.pop();
        record(p);
        if (mode == kModeEast) push(p + Point{1, 0}, kModeEast);
        if (mode == kModeWest) push(p + Point{-1, 0}, kModeWest);
        push(p + Point{0, 1}, kModeNorth);
      }
    };

    flood(mesh, labels, floodStamp_, modeStamp_, modes_, walkL, walkR,
          mcc.shape.xmin() - 1, mcc.shape.xmax() + 1, [&](Point p) {
            markInvolved(p, id, footprint);
            addKnown(knownI_, nodesI, p, id);
          });
    flood(view.meshT, view.labelsT, floodStampT_, modeStampT_, modesT_,
          walkLT, walkRT, mcc.shapeTransposed.xmin() - 1,
          mcc.shapeTransposed.xmax() + 1, [&](Point pt) {
            const Point p = transposePoint(pt);
            markInvolved(p, id, footprint);
            addKnown(knownII_, nodesII, p, id);
          });
  }

  const auto slot = static_cast<std::size_t>(id);
  auto install = [](std::vector<Point>&& points) {
    return points.empty()
               ? nullptr
               : std::make_shared<const std::vector<Point>>(std::move(points));
  };
  nodesI_[slot] = install(std::move(nodesI));
  nodesII_[slot] = install(std::move(nodesII));
  footprint_[slot] = install(std::move(footprint));
}

void QuadrantInfo::dropFor(int id) {
  const auto slot = static_cast<std::size_t>(id);
  auto eraseId = [&](PagedGrid<std::vector<int>>& table, Point p) {
    auto& list = table[p];
    const auto it = std::lower_bound(list.begin(), list.end(), id);
    if (it != list.end() && *it == id) list.erase(it);
  };
  if (nodesI_[slot]) {
    for (Point p : *nodesI_[slot]) eraseId(knownI_, p);
  }
  if (nodesII_[slot]) {
    for (Point p : *nodesII_[slot]) eraseId(knownII_, p);
  }
  if (footprint_[slot]) {
    for (Point p : *footprint_[slot]) {
      if (--involvedRefs_[p] == 0) --involvedCount_;
    }
  }
  nodesI_[slot].reset();
  nodesII_[slot].reset();
  footprint_[slot].reset();
  perMccInvolved_[slot] = 0;
}

void QuadrantInfo::refresh(const LabelDelta& delta) {
  std::optional<TransposedView> viewCache;
  refreshWith(delta, viewCache);
}

void QuadrantInfo::refreshWith(const LabelDelta& delta,
                               std::optional<TransposedView>& viewCache) {
  if (delta.version <= version_) return;  // no-op or already applied
  const Mesh2D& mesh = analysis_->localMesh();
  growTo(analysis_->mccs().size());

  // The changed cells dilated by the touch radius: every propagation a
  // surviving MCC would now take differently probes at least one of these
  // nodes, so footprints intersecting the dilation are exactly the ones
  // that may be stale.
  ++epoch_;
  std::vector<Point> marked;
  for (Point c : delta.changed) {
    for (Coord dy = -kTouchRadius; dy <= kTouchRadius; ++dy) {
      for (Coord dx = -kTouchRadius; dx <= kTouchRadius; ++dx) {
        const Point p{c.x + dx, c.y + dy};
        if (!mesh.contains(p) || std::as_const(stamp_)[p] == epoch_) continue;
        stamp_[p] = epoch_;
        marked.push_back(p);
      }
    }
  }

  std::vector<int> rebuild;
  auto consider = [&](int id) {
    if (id < 0) return;
    if (std::find(delta.removedMccs.begin(), delta.removedMccs.end(), id) !=
        delta.removedMccs.end()) {
      return;  // dropped below anyway
    }
    if (std::find(delta.addedMccs.begin(), delta.addedMccs.end(), id) !=
        delta.addedMccs.end()) {
      return;  // built below anyway
    }
    if (std::find(rebuild.begin(), rebuild.end(), id) == rebuild.end()) {
      rebuild.push_back(id);
    }
  };
  for (Point p : marked) {
    for (int id : typeIKnown(p)) consider(id);
    for (int id : typeIIKnown(p)) consider(id);
    consider(analysis_->mccIndexAt(p));
  }

  for (int id : delta.removedMccs) dropFor(id);

  std::vector<int> builds = rebuild;
  builds.insert(builds.end(), delta.addedMccs.begin(),
                delta.addedMccs.end());
  std::sort(builds.begin(), builds.end());
  if (!builds.empty() && !viewCache) viewCache = makeView();
  for (int id : builds) {
    // Drop before every build, including addedMccs: when sync() replays
    // several deltas, refresh reads the FINAL analysis state, so an id
    // created by a later logged delta can already surface (via the index
    // lookup above) while replaying an earlier one — building it twice
    // without the drop would double its footprint and involvement counts.
    dropFor(id);
    buildFor(id, *viewCache);
  }
  version_ = delta.version;
}

void QuadrantInfo::sync() {
  const IncrementalLabeler& labeler = analysis_->labeler();
  if (version_ == labeler.version()) return;
  const auto& log = labeler.deltaLog();
  if (log.empty() || log.front().version > version_ + 1) {
    // Too far behind the trimmed log: rebuild from scratch. The paged
    // fills drop whole pages — O(pages), not O(mesh).
    knownI_.fill({});
    knownII_.fill({});
    for (auto& list : nodesI_) list.reset();
    for (auto& list : nodesII_) list.reset();
    for (auto& list : footprint_) list.reset();
    std::fill(perMccInvolved_.begin(), perMccInvolved_.end(), 0);
    involvedRefs_.fill(0);
    involvedCount_ = 0;
    buildAll();
    return;
  }
  // One transposed view serves every replay: each refresh reads the same
  // final analysis state regardless of which logged delta it applies.
  std::optional<TransposedView> viewCache;
  for (const LabelDelta& delta : log) {
    if (delta.version > version_) refreshWith(delta, viewCache);
  }
}

std::vector<int> QuadrantInfo::knownUnion(Point p) const {
  std::vector<int> out = knownI_[p];
  out.insert(out.end(), knownII_[p].begin(), knownII_[p].end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<double> QuadrantInfo::perMccInvolvedPercent() const {
  const auto total = static_cast<std::size_t>(
      analysis_->localMesh().nodeCount());
  const std::size_t safe = total - analysis_->unsafeCount();
  std::vector<double> out;
  out.reserve(analysis_->mccCount());
  for (const Mcc& mcc : analysis_->liveMccs()) {
    const std::size_t count =
        perMccInvolved_[static_cast<std::size_t>(mcc.id)];
    out.push_back(safe == 0 ? 0.0
                            : 100.0 * static_cast<double>(count) /
                                  static_cast<double>(safe));
  }
  return out;
}

double QuadrantInfo::involvedPercentOfSafe() const {
  const auto total = static_cast<std::size_t>(
      analysis_->localMesh().nodeCount());
  const std::size_t safe = total - analysis_->unsafeCount();
  if (safe == 0) return 0.0;
  return 100.0 * static_cast<double>(involvedCount_) /
         static_cast<double>(safe);
}

QuadrantInfo::QuadrantInfo(const QuadrantInfo& other,
                           const QuadrantAnalysis& qa)
    : QuadrantInfo(other) {
  // The clone must read state identical to what the knowledge reflects,
  // or served triples would disagree with the labels next to them.
  assert(qa.localMesh() == other.analysis_->localMesh());
  assert(qa.version() == other.version_);
  analysis_ = &qa;
}

KnowledgeBundle::KnowledgeBundle(const FaultAnalysis& analysis,
                                 const std::vector<InfoModel>& models)
    : analysis_(&analysis), models_(models) {
  analysis.materializeAll();
  infos_.resize(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (int q = 0; q < 4; ++q) {
      infos_[m][static_cast<std::size_t>(q)] = std::make_unique<QuadrantInfo>(
          analysis.quadrant(static_cast<Quadrant>(q)), models_[m]);
    }
  }
}

void KnowledgeBundle::sync() {
  for (auto& quadrants : infos_) {
    for (auto& info : quadrants) info->sync();
  }
}

std::unique_ptr<KnowledgeBundle> KnowledgeBundle::cloneFor(
    const FaultAnalysis& analysis) const {
  // Private default ctor keeps partially built bundles out of user hands.
  std::unique_ptr<KnowledgeBundle> clone(new KnowledgeBundle());
  clone->analysis_ = &analysis;
  clone->models_ = models_;
  clone->infos_.resize(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (int q = 0; q < 4; ++q) {
      const auto i = static_cast<std::size_t>(q);
      clone->infos_[m][i] = std::make_unique<QuadrantInfo>(
          *infos_[m][i], analysis.quadrant(static_cast<Quadrant>(q)));
    }
  }
  return clone;
}

const QuadrantInfo* KnowledgeBundle::find(Quadrant q, InfoModel model) const {
  for (std::size_t m = 0; m < models_.size(); ++m) {
    if (models_[m] == model) {
      return infos_[m][static_cast<std::size_t>(q)].get();
    }
  }
  return nullptr;
}

}  // namespace meshrt
