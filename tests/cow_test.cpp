// Tests for the copy-on-write paged storage layer (mesh/paged_grid.h)
// and its integration across the fault/knowledge/service stack.
//
// The key contracts:
//  - PagedGrid copies share pages; a write detaches exactly the touched
//    tile and never leaks into the sibling (no aliased writes);
//  - under randomized add/remove churn, the incrementally patched paged
//    state stays bit-for-bit equal to a from-scratch
//    computeLabels + extractMccs + knowledge rebuild;
//  - a published service epoch shares > 0 pages with its predecessor
//    while old epochs keep answering from their own frozen state;
//  - under churn, a pinned epoch serves the same batch identically
//    before and after later publishes, and a column it compiles late
//    equals one compiled by a fresh service over its fault set — the
//    writer's next epochs never write into an earlier one's pages;
//  - concurrent first touch of lazy quadrant materialization is safe
//    (run under TSan via the CowStorage*/PagedGrid* CI filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault/analysis.h"
#include "fault/injectors.h"
#include "fault/labeling.h"
#include "fault/mcc.h"
#include "info/knowledge.h"
#include "mesh/paged_grid.h"
#include "route/validate.h"
#include "service/route_service.h"

namespace meshrt {
namespace {

// ------------------------------------------------------------- PagedGrid

TEST(PagedGridTest, ReadsDefaultUntilWrittenAndAllocatesLazily) {
  const Mesh2D mesh(13, 9);  // deliberately not a multiple of the tile side
  PagedGrid<int> grid(mesh, 7);
  EXPECT_EQ(grid.allocatedPageCount(), 0u);
  for (Coord y = 0; y < mesh.height(); ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) {
      EXPECT_EQ((std::as_const(grid)[{x, y}]), 7);
    }
  }
  grid[{12, 8}] = 42;
  EXPECT_EQ(grid.allocatedPageCount(), 1u);
  EXPECT_EQ((std::as_const(grid)[Point{12, 8}]), 42);
  EXPECT_EQ((std::as_const(grid)[Point{0, 0}]), 7);
}

TEST(PagedGridTest, CopySharesPagesAndWriteDetachesOnlyTheTouchedTile) {
  const Mesh2D mesh = Mesh2D::square(64);  // 4x4 tiles
  PagedGrid<int> a(mesh, 0);
  for (Coord y = 0; y < mesh.height(); ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) a[{x, y}] = y * 64 + x;
  }
  ASSERT_EQ(a.allocatedPageCount(), 16u);

  PagedGrid<int> b = a;
  EXPECT_EQ(PagedGrid<int>::sharedPageCount(a, b), 16u);

  b[{5, 5}] = -1;  // one tile detaches; the other 15 stay shared
  EXPECT_EQ(PagedGrid<int>::sharedPageCount(a, b), 15u);
  EXPECT_EQ((std::as_const(a)[Point{5, 5}]), 5 * 64 + 5);  // no aliased write
  EXPECT_EQ((std::as_const(b)[Point{5, 5}]), -1);
  EXPECT_EQ((std::as_const(b)[Point{6, 5}]), 5 * 64 + 6);  // rest of tile kept
}

TEST(PagedGridTest, FillDropsPagesAndForEachAllocatedSkipsAbsentTiles) {
  const Mesh2D mesh(40, 20);
  PagedGrid<int> grid(mesh, -1);
  grid[{17, 3}] = 1;
  grid[{38, 19}] = 2;
  std::vector<std::pair<Point, int>> seen;
  std::as_const(grid).forEachAllocated(
      [&](Point p, const int& v) { seen.push_back({p, v}); });
  // Two allocated tiles, every visited cell in-mesh, both writes present:
  // tile (1,0) is interior (16x16 cells); tile (2,1) clips to 8x4.
  EXPECT_EQ(seen.size(), 16u * 16u + 8u * 4u);
  std::size_t nonDefault = 0;
  for (const auto& [p, v] : seen) {
    EXPECT_TRUE(mesh.contains(p));
    nonDefault += (v != -1);
  }
  EXPECT_EQ(nonDefault, 2u);

  grid.fill(9);
  EXPECT_EQ(grid.allocatedPageCount(), 0u);
  EXPECT_EQ((std::as_const(grid)[Point{17, 3}]), 9);
}

// ------------------------------------------ differential churn equality

/// Canonical form of an MCC set: the sorted cell lists of live
/// components (retired id == -1 slots skipped), order-independent.
/// Works over a std::vector<Mcc> and a MccSlots range alike.
template <typename Range>
std::set<std::vector<Point>> canonicalMccs(const Range& range) {
  std::set<std::vector<Point>> out;
  for (const Mcc& mcc : range) {
    if (mcc.id < 0) continue;
    std::vector<Point> cells = mcc.shape.cells();
    std::sort(cells.begin(), cells.end());
    out.insert(std::move(cells));
  }
  return out;
}

void expectQuadrantMatchesScratch(const QuadrantAnalysis& qa,
                                  const FaultSet& worldFaults) {
  const Mesh2D& mesh = qa.localMesh();
  const FaultSet local = transformFaults(worldFaults, qa.frame());
  const LabelGrid scratch = computeLabels(mesh, local);
  for (Coord y = 0; y < mesh.height(); ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) {
      ASSERT_EQ(qa.labels().raw({x, y}), scratch.raw({x, y}))
          << "label byte diverged at " << Point{x, y}.str();
    }
  }
  MccExtraction ext = extractMccs(mesh, scratch);
  EXPECT_EQ(canonicalMccs(qa.liveMccs()), canonicalMccs(ext.mccs));
  EXPECT_EQ(qa.mccCount(), ext.mccs.size());
}

void expectKnowledgeMatchesScratch(const QuadrantInfo& info,
                                   const QuadrantAnalysis& qa) {
  const QuadrantInfo fresh(qa, info.model());
  const Mesh2D& mesh = qa.localMesh();
  EXPECT_EQ(info.involvedCount(), fresh.involvedCount());
  for (Coord y = 0; y < mesh.height(); ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) {
      const Point p{x, y};
      ASSERT_EQ(info.knownUnion(p), fresh.knownUnion(p))
          << "known ids diverged at " << p.str();
      ASSERT_EQ(info.wasInvolved(p), fresh.wasInvolved(p)) << p.str();
    }
  }
}

TEST(CowStorageTest, RandomChurnStaysBitIdenticalToFromScratchRebuild) {
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(2024);
  DynamicFaultModel model(injectUniform(mesh, 30, rng));
  model.analysis().materializeAll();
  KnowledgeBundle knowledge(model.analysis(), {InfoModel::B2});

  for (int step = 0; step < 50; ++step) {
    const Point p{static_cast<Coord>(rng.below(20)),
                  static_cast<Coord>(rng.below(20))};
    if (rng.chance(0.35)) {
      model.removeFault(p);
    } else {
      model.addFault(p);
    }
    knowledge.sync();
    if (step % 5 != 4) continue;  // full differential every 5 events
    for (int q = 0; q < 4; ++q) {
      const QuadrantAnalysis& qa =
          model.analysis().quadrant(static_cast<Quadrant>(q));
      expectQuadrantMatchesScratch(qa, model.faults());
      const QuadrantInfo* info =
          knowledge.find(static_cast<Quadrant>(q), InfoModel::B2);
      ASSERT_NE(info, nullptr);
      expectKnowledgeMatchesScratch(*info, qa);
    }
  }
}

TEST(CowStorageTest, CloneForSharesLabelPagesAndNeverAliasesWrites) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(7);
  DynamicFaultModel model(injectUniform(mesh, 60, rng));
  model.analysis().materializeAll();

  FaultSet frozen(model.faults());
  const auto clone = model.analysis().cloneFor(frozen);
  const auto& writerQa = model.analysis().quadrant(Quadrant::NE);
  const auto& cloneQa = clone->quadrant(Quadrant::NE);
  EXPECT_GT(PagedGrid<std::uint8_t>::sharedPageCount(
                writerQa.labels().pages(), cloneQa.labels().pages()),
            0u);

  // Writer keeps churning; the clone's bytes must not move.
  const Point toggle{15, 15};
  const bool wasFaulty = model.faults().isFaulty(toggle);
  const std::uint8_t before = cloneQa.labels().raw(
      cloneQa.frame().toLocal(toggle));
  if (wasFaulty) {
    model.removeFault(toggle);
  } else {
    model.addFault(toggle);
  }
  EXPECT_EQ(cloneQa.labels().raw(cloneQa.frame().toLocal(toggle)), before);
  EXPECT_NE(writerQa.labels().isFaulty(writerQa.frame().toLocal(toggle)),
            wasFaulty);
}

// --------------------------------------------------- service epoch pages

TEST(CowStorageTest, PublishedEpochsSharePagesWithPredecessor) {
  const Mesh2D mesh = Mesh2D::square(32);
  Rng rng(91);
  const FaultSet faults = injectUniform(mesh, 60, rng);
  ServiceConfig cfg;
  cfg.threads = 2;
  RouteService service(faults, cfg);
  std::vector<Query> batch;
  for (Coord i = 1; i < 30; ++i) batch.push_back({{0, 0}, {i, 30}});
  service.serve(batch);

  const auto prev = service.snapshot();
  Point toggle{9, 9};
  while (prev->faults().isFaulty(toggle)) toggle.x += 1;
  service.applyAddFault(toggle);
  const auto next = service.snapshot();

  // Fault set and labels share pages across the epoch boundary...
  EXPECT_GT(PagedGrid<std::uint8_t>::sharedPageCount(
                prev->faults().pages(), next->faults().pages()),
            0u);
  for (int q = 0; q < 4; ++q) {
    const auto quad = static_cast<Quadrant>(q);
    EXPECT_GT(PagedGrid<std::uint8_t>::sharedPageCount(
                  prev->analysis().quadrant(quad).labels().pages(),
                  next->analysis().quadrant(quad).labels().pages()),
              0u);
  }
  // ...and the writes never alias: the pinned predecessor still answers
  // from its own frozen fault state.
  EXPECT_FALSE(prev->faults().isFaulty(toggle));
  EXPECT_TRUE(next->faults().isFaulty(toggle));

  // The successor inherited the predecessor's compiled set (every column
  // present before is present, patched or dropped — never silently lost).
  EXPECT_EQ(next->compiledColumns() +
                (next->faults().isFaulty(toggle) &&
                         prev->column(mesh.id(toggle)) != nullptr
                     ? 1u
                     : 0u),
            prev->compiledColumns());
}

TEST(CowStorageTest, PinnedEpochServesIdenticallyAcrossLaterPublishes) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(93);
  const FaultSet faults = injectUniform(mesh, 50, rng);
  std::vector<Query> batch;
  Rng qrng(94);
  for (int i = 0; i < 150; ++i) {
    batch.push_back({randomHealthy(faults, qrng), randomHealthy(faults, qrng)});
  }
  // Destinations no round serves before the churn ends, so each pinned
  // epoch compiles their columns fresh (patched columns are valid but
  // not recompile-exact, DESIGN.md 7.2).
  std::vector<Query> late;
  while (late.size() < 40) {
    const Point d = randomHealthy(faults, qrng);
    if (std::none_of(batch.begin(), batch.end(),
                     [&](const Query& q) { return q.d == d; })) {
      late.push_back({randomHealthy(faults, qrng), d});
    }
  }

  ServiceConfig cfg;
  cfg.threads = 2;
  RouteService service(faults, cfg);
  struct Pinned {
    SnapshotBox<ServiceSnapshot>::Handle snap;
    BatchResult paths;
    BatchResult flat;
  };
  std::vector<Pinned> pinned;
  Rng churn(95);
  for (int round = 0; round < 6; ++round) {
    Pinned p{service.snapshot(), {}, {}};
    p.paths = service.serveOn(p.snap, batch, /*wantPaths=*/true);
    p.flat = service.serveOn(p.snap, batch, /*wantPaths=*/false);
    pinned.push_back(std::move(p));
    // Two events per round: every pinned epoch sees at least two later
    // publishes patch, drop and carry the columns it shares.
    for (int e = 0; e < 2; ++e) {
      const Point t{static_cast<Coord>(churn.below(24)),
                    static_cast<Coord>(churn.below(24))};
      if (service.snapshot()->faults().isFaulty(t)) {
        service.applyRemoveFault(t);
      } else {
        service.applyAddFault(t);
      }
    }
  }
  ASSERT_EQ(service.epoch(), 12u);

  for (std::size_t r = 0; r < pinned.size(); ++r) {
    SCOPED_TRACE(r);
    const Pinned& p = pinned[r];
    const BatchResult paths =
        service.serveOn(p.snap, batch, /*wantPaths=*/true);
    ASSERT_EQ(paths.epoch, p.paths.epoch);
    EXPECT_EQ(paths.status, p.paths.status);
    EXPECT_EQ(paths.hops, p.paths.hops);
    EXPECT_EQ(paths.paths, p.paths.paths);
    const BatchResult flat = service.serveOn(p.snap, batch);
    EXPECT_EQ(flat.status, p.flat.status);
    EXPECT_EQ(flat.hops, p.flat.hops);

    // Columns the pinned epoch compiles only now must read its own
    // frozen state: a fresh service over that fault set (labels derived
    // from scratch, no column history) serves them identically.
    RouteService fresh(p.snap->faults(), cfg);
    const BatchResult lateGot =
        service.serveOn(p.snap, late, /*wantPaths=*/true);
    const BatchResult lateWant = fresh.serve(late, /*wantPaths=*/true);
    EXPECT_EQ(lateGot.status, lateWant.status);
    EXPECT_EQ(lateGot.hops, lateWant.hops);
    EXPECT_EQ(lateGot.paths, lateWant.paths);
  }
}

// -------------------------------------------- concurrent lazy first touch

TEST(CowStorageTest, ConcurrentQuadrantFirstTouchIsSafe) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(96);
  const FaultSet faults = injectUniform(mesh, 60, rng);
  const FaultAnalysis analysis(faults);  // nothing materialized yet

  std::vector<std::thread> threads;
  std::vector<std::size_t> unsafeCounts(8, 0);
  for (std::size_t t = 0; t < unsafeCounts.size(); ++t) {
    threads.emplace_back([&, t] {
      std::size_t total = 0;
      for (int q = 0; q < 4; ++q) {
        total += analysis.quadrant(static_cast<Quadrant>(q)).unsafeCount();
      }
      unsafeCounts[t] = total;
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 1; t < unsafeCounts.size(); ++t) {
    EXPECT_EQ(unsafeCounts[t], unsafeCounts[0]);
  }
  // Exactly one QuadrantAnalysis per quadrant: every thread reads the
  // same object.
  for (int q = 0; q < 4; ++q) {
    const auto quad = static_cast<Quadrant>(q);
    EXPECT_EQ(&analysis.quadrant(quad), &analysis.quadrant(quad));
  }
}

// ----------------------------------------------------- liveMccs() helper

TEST(CowStorageTest, LiveMccsSkipsRetiredSlots) {
  const Mesh2D mesh = Mesh2D::square(12);
  DynamicFaultModel model(mesh);
  model.analysis().materializeAll();  // patch quadrants in place from here
  model.addFault({3, 3});
  model.addFault({8, 8});
  model.addFault({3, 4});
  model.removeFault({8, 8});  // leaves a tombstone slot behind

  const auto& qa = model.analysis().quadrant(Quadrant::NE);
  std::size_t live = 0;
  for (const Mcc& mcc : qa.liveMccs()) {
    EXPECT_GE(mcc.id, 0);
    EXPECT_EQ(qa.mccs()[static_cast<std::size_t>(mcc.id)].id, mcc.id);
    ++live;
  }
  EXPECT_EQ(live, qa.mccCount());
  EXPECT_LT(live, qa.mccs().size());  // the tombstone is really there
}

}  // namespace
}  // namespace meshrt
