#include "service/snapshot.h"

#include <algorithm>
#include <utility>

namespace meshrt {

ServiceSnapshot::ServiceSnapshot(std::uint64_t epoch,
                                 const DynamicFaultModel& model,
                                 const KnowledgeBundle* knowledge,
                                 const ServiceSnapshot* prev)
    : epoch_(epoch),
      faults_(model.faults()),
      analysis_(model.analysis().cloneFor(faults_)),
      columns_(model.mesh()) {
  if (prev != nullptr) {
    // One lock for the page table AND its footprint counters — two
    // separate locked reads could interleave with a concurrent lazy
    // compile and inherit a table/footprint pair that never coexisted.
    std::lock_guard<std::mutex> lock(prev->columnMutex_);
    columns_ = prev->columns_;
    residentBytes_ = prev->residentBytes_;
    residentCount_ = prev->residentCount_;
  }
  if (knowledge != nullptr) knowledge_ = knowledge->cloneFor(*analysis_);
}

std::shared_ptr<const ColumnVariant> ServiceSnapshot::column(
    NodeId dest) const {
  std::lock_guard<std::mutex> lock(columnMutex_);
  return std::as_const(columns_)[mesh().point(dest)];
}

void ServiceSnapshot::installColumn(
    NodeId dest, std::shared_ptr<const ColumnVariant> column) const {
  std::lock_guard<std::mutex> lock(columnMutex_);
  auto& slot = columns_[mesh().point(dest)];
  if (!slot) {
    residentBytes_ += columnSizeBytes(*column);
    ++residentCount_;
    slot = std::move(column);
  }
}

void ServiceSnapshot::dropColumn(NodeId dest) {
  std::lock_guard<std::mutex> lock(columnMutex_);
  auto& slot = columns_[mesh().point(dest)];
  if (slot) {
    residentBytes_ -= columnSizeBytes(*slot);
    --residentCount_;
    slot = nullptr;
  }
}

void ServiceSnapshot::replaceColumn(
    NodeId dest, std::shared_ptr<const ColumnVariant> column) {
  std::lock_guard<std::mutex> lock(columnMutex_);
  auto& slot = columns_[mesh().point(dest)];
  if (slot) {
    residentBytes_ -= columnSizeBytes(*slot);
    --residentCount_;
  }
  if (column) {
    residentBytes_ += columnSizeBytes(*column);
    ++residentCount_;
  }
  slot = std::move(column);
}

std::vector<std::shared_ptr<const ColumnVariant>> ServiceSnapshot::pinColumns(
    const std::vector<NodeId>& dests) const {
  std::vector<std::shared_ptr<const ColumnVariant>> out;
  out.reserve(dests.size());
  std::lock_guard<std::mutex> lock(columnMutex_);
  for (NodeId dest : dests) {
    out.push_back(std::as_const(columns_)[mesh().point(dest)]);
  }
  return out;
}

std::vector<NodeId> ServiceSnapshot::presentColumns() const {
  std::vector<NodeId> out;
  const Mesh2D& m = mesh();
  std::lock_guard<std::mutex> lock(columnMutex_);
  std::as_const(columns_).forEachAllocated(
      [&](Point p, const std::shared_ptr<const ColumnVariant>& slot) {
        if (slot) out.push_back(m.id(p));
      });
  // forEachAllocated walks tile-major; the writer's migration order (and
  // thus counter/patch determinism) wants ascending dest ids.
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ServiceSnapshot::compiledColumns() const {
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(columnMutex_);
  std::as_const(columns_).forEachAllocated(
      [&](Point, const std::shared_ptr<const ColumnVariant>& slot) {
        n += (slot != nullptr);
      });
  return n;
}

ColumnEvictStats ServiceSnapshot::enforceColumnBudget(
    ColumnCachePolicy& policy) const {
  ColumnEvictStats stats;
  std::lock_guard<std::mutex> lock(columnMutex_);
  stats.residentBytes = residentBytes_;
  stats.residentCount = residentCount_;
  if (!policy.active() || residentBytes_ <= policy.budgetBytes) return stats;

  const Mesh2D& m = mesh();
  const auto n = static_cast<std::size_t>(m.nodeCount());
  std::size_t hand = policy.hand.load(std::memory_order_relaxed) % n;
  // 4 passes: one may be spent clearing ref bits, and the bound keeps an
  // all-pinned table from spinning forever.
  for (std::size_t step = 0;
       step < 4 * n && residentBytes_ > policy.budgetBytes; ++step) {
    const auto dest = static_cast<NodeId>(hand);
    hand = (hand + 1) % n;
    const Point p = m.point(dest);
    const auto& slot = std::as_const(columns_)[p];
    if (!slot) continue;
    auto& state = policy.state[static_cast<std::size_t>(dest)];
    if (state.load(std::memory_order_relaxed) & ColumnCachePolicy::kRefBit) {
      // Second chance: clear the ref bit, evict only if the hand comes
      // around again with no serve in between.
      state.fetch_and(static_cast<std::uint8_t>(~ColumnCachePolicy::kRefBit),
                      std::memory_order_relaxed);
      continue;
    }
    if (slot.use_count() > 1) {
      // Pinned by an in-flight batch (pinColumns handle), or the slot's
      // page was detached while a neighbor epoch still shares the
      // column — either way nulling this slot would free nothing yet.
      continue;
    }
    residentBytes_ -= columnSizeBytes(*slot);
    --residentCount_;
    columns_[p] = nullptr;
    state.fetch_or(ColumnCachePolicy::kEvictedBit, std::memory_order_relaxed);
    ++stats.evicted;
  }
  policy.hand.store(hand, std::memory_order_relaxed);
  stats.residentBytes = residentBytes_;
  stats.residentCount = residentCount_;
  return stats;
}

std::size_t ServiceSnapshot::residentColumnBytes() const {
  std::lock_guard<std::mutex> lock(columnMutex_);
  return residentBytes_;
}

std::size_t ServiceSnapshot::residentColumnCount() const {
  std::lock_guard<std::mutex> lock(columnMutex_);
  return residentCount_;
}

}  // namespace meshrt
