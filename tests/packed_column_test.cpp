// Differential tests for the 3-bit packed column encoding and the
// lockstep batch-chase engines (route/packed_column.h,
// route/batch_chase.h).
//
// The contracts under test:
//  - PackedRouteColumn compiles to and patches to exactly the dense
//    RouteColumn's entries, for every registry router and under
//    randomized fault churn + patch sequences (bit-identity by
//    construction through the shared firstHopByte helper);
//  - the per-column hop bound equals a from-scratch re-derivation after
//    every patch, and bounds every terminating chase — the invariant
//    that lets lockstep loops run `hopBound()` steps and call every
//    still-active lane Diverged;
//  - the scalar-lockstep and AVX2 batch engines both reproduce the
//    scalar chaseColumn byte for byte, including NoRoute and Diverged
//    lanes and sources equal to the destination;
//  - RouteService serves bit-identical batches under the packed and
//    packed-scalar engines across live churn (the same-binary A/B the
//    ServiceConfig knob exists for), each equal to a dense chase over
//    the entries of the same pinned columns;
//  - the minimal bit (kMinimalBit) equals its brute-force definition
//    after compile and after every patch, patched bytes (all 4 bits per
//    nibble) equal a fresh compile's, and every engine's minimal-node
//    shortcut agrees with the dense chase — mid-chase retirements
//    included — at the hop bound and under smaller step caps.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/telemetry.h"
#include "fault/injectors.h"
#include "route/batch_chase.h"
#include "route/packed_column.h"
#include "route/route_table.h"
#include "service/route_service.h"
#include "test_util.h"

namespace meshrt {
namespace {

using testutil::denseChaseBatch;
using testutil::expectServedMatchesDenseChase;

std::vector<Query> randomBatch(const Mesh2D& mesh, std::size_t count,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(
        {{static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))},
         {static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.width()))),
          static_cast<Coord>(
              rng.below(static_cast<std::uint64_t>(mesh.height())))}});
  }
  return batch;
}

void expectColumnsBitIdentical(const RouteColumn& dense,
                               const PackedRouteColumn& packed,
                               const Mesh2D& mesh) {
  ASSERT_EQ(packed.dest(), dense.dest());
  ASSERT_EQ(packed.routedSources(), dense.routedSources());
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    ASSERT_EQ(packed.next(id), dense.next(id)) << "node " << id;
  }
}

/// Runs every source through the batch engine and through the scalar
/// chaseColumn serve contract (dense column, nodeCount bound), and
/// asserts byte-for-byte agreement. `simd` picks the engine.
void expectBatchMatchesScalarChase(const RouteColumn& dense,
                                   const PackedRouteColumn& packed,
                                   const Mesh2D& mesh, bool simd) {
  const auto n = static_cast<std::size_t>(mesh.nodeCount());
  std::vector<NodeId> sources(n);
  for (std::size_t i = 0; i < n; ++i) {
    sources[i] = static_cast<NodeId>(i);
  }
  std::vector<ServeStatus> status(n, ServeStatus::Delivered);
  std::vector<std::int32_t> hops(n, 0);
  if (simd) {
    chaseBatchAvx2(packed, sources.data(), n, packed.hopBound(),
                   status.data(), hops.data());
  } else {
    chaseBatchScalar(packed, sources.data(), n, packed.hopBound(),
                     status.data(), hops.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    const ServedRoute ref = chaseColumn(dense, mesh, mesh.point(sources[i]),
                                        n, /*wantPath=*/false);
    ASSERT_EQ(status[i], ref.status) << "source " << sources[i];
    if (ref.delivered()) {
      ASSERT_EQ(hops[i], static_cast<std::int32_t>(ref.hops))
          << "source " << sources[i];
    }
  }
}

/// The minimal bit's definition, checked the slow way: a plain dense
/// chase from u (nodeCount bound) delivers in exactly manhattan(u, dest)
/// hops. Returns how many nodes carry the bit.
std::size_t expectMinimalBitsMatchDenseChase(const RouteColumn& dense,
                                            const PackedRouteColumn& packed,
                                            const Mesh2D& mesh) {
  const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
  std::size_t minimal = 0;
  for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
    const Point u = mesh.point(id);
    const ServedRoute ref = chaseColumn(dense, mesh, u, maxSteps, false);
    const bool expected =
        ref.delivered() && ref.hops == manhattan(u, dense.dest());
    EXPECT_EQ(packed.minimal(id), expected) << "node " << id;
    EXPECT_EQ(packed.distanceToDest(id), manhattan(u, dense.dest()))
        << "node " << id;
    minimal += expected ? 1 : 0;
  }
  return minimal;
}

/// Packed bytes (every nibble bit, padding included) of two columns.
void expectSameBytes(const PackedRouteColumn& a, const PackedRouteColumn& b) {
  ASSERT_EQ(a.sizeBytes(), b.sizeBytes());
  ASSERT_EQ(a.hopBound(), b.hopBound());
  const std::vector<std::uint8_t> x(a.nibbleBytes(),
                                    a.nibbleBytes() + a.sizeBytes());
  const std::vector<std::uint8_t> y(b.nibbleBytes(),
                                    b.nibbleBytes() + b.sizeBytes());
  EXPECT_EQ(x, y);
}

/// Both batch engines (the AVX2 one when available) and the packed
/// chaseColumn template against the dense chaseColumn with the same
/// step cap, on the given sources.
void expectEnginesMatchDenseChase(const RouteColumn& dense,
                                  const PackedRouteColumn& packed,
                                  const Mesh2D& mesh,
                                  const std::vector<NodeId>& sources,
                                  std::size_t maxSteps) {
  const std::size_t n = sources.size();
  for (int engine = 0; engine < 2; ++engine) {
    if (engine == 1 && !chaseBatchSimdAvailable()) continue;
    SCOPED_TRACE(engine == 0 ? "scalar lockstep" : "avx2");
    std::vector<ServeStatus> status(n, ServeStatus::EndpointFaulty);
    std::vector<std::int32_t> hops(n, -1);
    if (engine == 0) {
      chaseBatchScalar(packed, sources.data(), n, maxSteps, status.data(),
                       hops.data());
    } else {
      chaseBatchAvx2(packed, sources.data(), n, maxSteps, status.data(),
                     hops.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      const Point s = mesh.point(sources[i]);
      const ServedRoute ref = chaseColumn(dense, mesh, s, maxSteps, false);
      ASSERT_EQ(status[i], ref.status) << "source " << sources[i];
      if (ref.delivered()) {
        ASSERT_EQ(hops[i], static_cast<std::int32_t>(ref.hops))
            << "source " << sources[i];
      }
    }
  }
  for (const NodeId id : sources) {
    const Point s = mesh.point(id);
    const ServedRoute ref = chaseColumn(dense, mesh, s, maxSteps, false);
    const ServedRoute got = chaseColumn(packed, mesh, s, maxSteps, false);
    ASSERT_EQ(got.status, ref.status) << "source " << id;
    ASSERT_EQ(got.hops, ref.hops) << "source " << id;
  }
}

// ----------------------------------------------------- compile identity

TEST(PackedColumnTest, CompileMatchesDenseForEveryRegistryKey) {
  const Mesh2D mesh = Mesh2D::square(12);
  for (std::uint64_t cfgSeed : {1u, 2u}) {
    Rng rng = Rng::forStream(3001, cfgSeed);
    const FaultSet faults = injectUniform(mesh, 18, rng);
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    Rng destRng(7 + cfgSeed);
    for (const auto& key : RouterRegistry::global().keys()) {
      if (key.starts_with("table:")) continue;
      SCOPED_TRACE(key + " cfg " + std::to_string(cfgSeed));
      const auto denseRouter = RouterRegistry::global().create(key, ctx);
      const auto packedRouter = RouterRegistry::global().create(key, ctx);
      for (int t = 0; t < 3; ++t) {
        const Point dest = randomHealthy(faults, destRng);
        const RouteColumn dense =
            compileRouteColumn(*denseRouter, faults, dest);
        const PackedRouteColumn packed =
            compilePackedRouteColumn(*packedRouter, faults, dest);
        expectColumnsBitIdentical(dense, packed, mesh);
        // The generic chase template reads both encodings identically.
        const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
        for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
          const ServedRoute a =
              chaseColumn(dense, mesh, mesh.point(id), maxSteps, true);
          const ServedRoute b =
              chaseColumn(packed, mesh, mesh.point(id), maxSteps, true);
          ASSERT_EQ(a.status, b.status) << "node " << id;
          ASSERT_EQ(a.hops, b.hops) << "node " << id;
          ASSERT_EQ(a.path, b.path) << "node " << id;
        }
      }
    }
  }
}

// ------------------------------------- patch identity + hop-bound oracle

TEST(PackedColumnTest, RandomizedPatchSequencesStayBitIdentical) {
  // Both encodings patch through firstHopByte; ANY common cell list must
  // keep them bit-identical, and the carried hop bound must equal a
  // from-scratch re-derivation (packing the patched dense column derives
  // it fresh from the same entries). The bound must also dominate every
  // terminating chase — the invariant the lockstep engines rely on.
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(3301);
  FaultSet faults = injectUniform(mesh, 24, rng);
  const Point dest{13, 11};
  ASSERT_TRUE(faults.isHealthy(dest));

  RouteColumn dense = [&] {
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto router = RouterRegistry::global().create("rb2", ctx);
    return compileRouteColumn(*router, faults, dest);
  }();
  PackedRouteColumn packed(dense, mesh);
  expectColumnsBitIdentical(dense, packed, mesh);

  Rng churn(3302);
  for (int round = 0; round < 8; ++round) {
    SCOPED_TRACE(round);
    // Toggle one node (never the destination), rebuild the analysis the
    // way the service's epoch build would.
    Point p = dest;
    while (p == dest) {
      p = {static_cast<Coord>(churn.below(16)),
           static_cast<Coord>(churn.below(16))};
    }
    if (faults.isFaulty(p)) {
      faults.remove(p);
    } else {
      faults.add(p);
    }
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto denseRouter = RouterRegistry::global().create("rb2", ctx);
    const auto packedRouter = RouterRegistry::global().create("rb2", ctx);

    std::vector<NodeId> cells;
    cells.push_back(mesh.id(p));
    for (int c = 0; c < 40; ++c) {
      cells.push_back(static_cast<NodeId>(
          churn.below(static_cast<std::uint64_t>(mesh.nodeCount()))));
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());

    dense = dense.patched(*denseRouter, faults, cells);
    packed = packed.patched(*packedRouter, faults, cells);
    expectColumnsBitIdentical(dense, packed, mesh);

    // Hop-bound oracle: re-deriving from scratch must agree.
    EXPECT_EQ(packed.hopBound(), PackedRouteColumn(dense, mesh).hopBound());

    // Every terminating chase fits under the bound (delivered chases
    // take `hops` advances, no-route chases path.size()-1).
    const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
    for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
      const ServedRoute chase =
          chaseColumn(packed, mesh, mesh.point(id), maxSteps, true);
      if (chase.status == ServeStatus::Diverged) continue;
      EXPECT_LE(chase.path.size() - 1,
                static_cast<std::size_t>(packed.hopBound()))
          << "node " << id;
    }
  }
}

// ------------------------------------------------------- minimal bits

TEST(PackedColumnTest, MinimalBitMatchesDenseChaseForEveryRegistryKey) {
  const Mesh2D mesh = Mesh2D::square(14);
  Rng rng = Rng::forStream(3701, 1);
  const FaultSet faults = injectUniform(mesh, 22, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  Rng destRng(3702);
  for (const auto& key : RouterRegistry::global().keys()) {
    if (key.starts_with("table:")) continue;
    SCOPED_TRACE(key);
    const auto router = RouterRegistry::global().create(key, ctx);
    for (int t = 0; t < 3; ++t) {
      const Point dest = randomHealthy(faults, destRng);
      const RouteColumn dense = compileRouteColumn(*router, faults, dest);
      const PackedRouteColumn packed(dense, mesh);
      // The destination is always minimal (0 hops, distance 0).
      EXPECT_TRUE(packed.minimal(mesh.id(dest)));
      expectMinimalBitsMatchDenseChase(dense, packed, mesh);
      // The shortcut's one precondition holds for every chase the
      // engines serve: each minimal chase fits under the hop bound.
      for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
        if (!packed.minimal(id)) continue;
        EXPECT_LE(static_cast<std::uint32_t>(packed.distanceToDest(id)),
                  packed.hopBound())
            << "node " << id;
      }
    }
  }
}

TEST(PackedColumnTest, PatchedBytesEqualFreshCompileWithMinimalBits) {
  // Random cell lists (as in the sequence above) and whole-mesh patches:
  // after every step the minimal bits match the dense-chase definition,
  // the patched bytes — all 4 bits per nibble — equal packing the
  // identically patched dense column from scratch, and a patch over
  // every node equals a fresh compile against the new fault set.
  const Mesh2D mesh = Mesh2D::square(16);
  Rng rng(3801);
  FaultSet faults = injectUniform(mesh, 30, rng);
  const Point dest{4, 9};
  if (faults.isFaulty(dest)) faults.remove(dest);

  RouteColumn dense = [&] {
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto router = RouterRegistry::global().create("rb2", ctx);
    return compileRouteColumn(*router, faults, dest);
  }();
  PackedRouteColumn packed(dense, mesh);
  EXPECT_GT(expectMinimalBitsMatchDenseChase(dense, packed, mesh), 1u);

  std::vector<NodeId> everyNode(static_cast<std::size_t>(mesh.nodeCount()));
  for (std::size_t i = 0; i < everyNode.size(); ++i) {
    everyNode[i] = static_cast<NodeId>(i);
  }
  Rng churn(3802);
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(round);
    Point p = dest;
    while (p == dest) {
      p = {static_cast<Coord>(churn.below(16)),
           static_cast<Coord>(churn.below(16))};
    }
    if (faults.isFaulty(p)) {
      faults.remove(p);
    } else {
      faults.add(p);
    }
    const FaultAnalysis fa(faults);
    const RouterContext ctx{&faults, &fa};
    const auto router = RouterRegistry::global().create("rb2", ctx);

    std::vector<NodeId> cells{mesh.id(p)};
    for (int c = 0; c < 30; ++c) {
      cells.push_back(static_cast<NodeId>(
          churn.below(static_cast<std::uint64_t>(mesh.nodeCount()))));
    }
    std::sort(cells.begin(), cells.end());
    cells.erase(std::unique(cells.begin(), cells.end()), cells.end());

    dense = dense.patched(*router, faults, cells);
    packed = packed.patched(*router, faults, cells);
    expectMinimalBitsMatchDenseChase(dense, packed, mesh);
    expectSameBytes(packed, PackedRouteColumn(dense, mesh));

    const PackedRouteColumn whole =
        packed.patched(*router, faults, everyNode);
    expectSameBytes(whole, compilePackedRouteColumn(*router, faults, dest));
  }
}

// -------------------------------------------------- batch-chase engines

TEST(BatchChaseTest, LanesRetireMidChaseAtMinimalNodes) {
  // Sources that are not minimal themselves but whose chase passes a
  // minimal node: the lanes retire mid-chase, and the reported hops
  // must still equal the full dense walk's.
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(3901);
  const FaultSet faults = injectUniform(mesh, 60, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  Rng destRng(3902);
  const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
  std::size_t midChase = 0;
  for (const auto& key : RouterRegistry::global().keys()) {
    if (key.starts_with("table:")) continue;
    SCOPED_TRACE(key);
    const auto router = RouterRegistry::global().create(key, ctx);
    for (int t = 0; t < 2; ++t) {
      const Point dest = randomHealthy(faults, destRng);
      const RouteColumn dense = compileRouteColumn(*router, faults, dest);
      const PackedRouteColumn packed(dense, mesh);
      std::vector<NodeId> sources;
      for (NodeId id = 0; id < mesh.nodeCount(); ++id) {
        if (packed.minimal(id)) continue;
        const ServedRoute walk =
            chaseColumn(dense, mesh, mesh.point(id), maxSteps, true);
        if (!walk.delivered()) continue;
        // Delivered chases end at the (minimal) destination; count the
        // ones that meet a minimal node strictly before it.
        const bool passes = std::any_of(
            walk.path.begin() + 1, walk.path.end() - 1,
            [&](Point u) { return packed.minimal(mesh.id(u)); });
        if (passes) sources.push_back(id);
      }
      midChase += sources.size();
      // Odd count on purpose: exercises the 32-, 8-lane and scalar tails.
      if (sources.size() % 2 == 0 && !sources.empty()) sources.pop_back();
      expectEnginesMatchDenseChase(dense, packed, mesh, sources,
                                   packed.hopBound());
      expectEnginesMatchDenseChase(dense, packed, mesh, sources, maxSteps);
    }
  }
  EXPECT_GT(midChase, 100u);
}

TEST(BatchChaseTest, ShortcutHonoursStepCapsBelowTheHopBound) {
  // Below the hop bound the cap cuts some delivered chases off: the
  // plain walk calls them Diverged. A lane at a minimal node after k
  // steps must then retire Diverged whenever k + manhattan exceeds the
  // cap, and Delivered otherwise. Every engine must agree with the
  // dense chase under the same cap, at hopBound() - 1 and below.
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(4001);
  const FaultSet faults = injectUniform(mesh, 48, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto router = RouterRegistry::global().create("rb2", ctx);
  const auto unbounded = static_cast<std::size_t>(mesh.nodeCount());
  std::vector<NodeId> all(static_cast<std::size_t>(mesh.nodeCount()));
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i] = static_cast<NodeId>(i);
  }
  Rng destRng(4002);
  std::size_t cutOff = 0;
  for (int t = 0; t < 4; ++t) {
    const Point dest = randomHealthy(faults, destRng);
    const RouteColumn dense = compileRouteColumn(*router, faults, dest);
    const PackedRouteColumn packed(dense, mesh);
    ASSERT_GE(packed.hopBound(), 1u);
    const std::size_t top = packed.hopBound() - 1;
    for (const std::size_t capped : {top, top / 2, std::size_t{1},
                                     std::size_t{0}}) {
      SCOPED_TRACE(capped);
      for (const NodeId id : all) {
        const Point s = mesh.point(id);
        const ServedRoute full =
            chaseColumn(dense, mesh, s, unbounded, false);
        const ServedRoute cut = chaseColumn(dense, mesh, s, capped, false);
        if (full.delivered() && !cut.delivered()) ++cutOff;
      }
      expectEnginesMatchDenseChase(dense, packed, mesh, all, capped);
    }
  }
  EXPECT_GT(cutOff, 0u);
}

TEST(BatchChaseTest, LockstepMatchesScalarChaseForEveryRegistryKey) {
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(3401);
  const FaultSet faults = injectUniform(mesh, 48, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  Rng destRng(3402);
  for (const auto& key : RouterRegistry::global().keys()) {
    if (key.starts_with("table:")) continue;
    SCOPED_TRACE(key);
    const auto router = RouterRegistry::global().create(key, ctx);
    for (int t = 0; t < 2; ++t) {
      const Point dest = randomHealthy(faults, destRng);
      const RouteColumn dense = compileRouteColumn(*router, faults, dest);
      const PackedRouteColumn packed(dense, mesh);
      expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/false);
    }
  }
}

TEST(BatchChaseTest, SimdEngineMatchesScalarEngine) {
  if (!chaseBatchSimdAvailable()) {
    GTEST_SKIP() << "AVX2 engine not available on this host";
  }
  const Mesh2D mesh = Mesh2D::square(20);
  Rng rng(3501);
  const FaultSet faults = injectUniform(mesh, 48, rng);
  const FaultAnalysis fa(faults);
  const RouterContext ctx{&faults, &fa};
  const auto router = RouterRegistry::global().create("rb2", ctx);
  Rng destRng(3502);
  for (int t = 0; t < 4; ++t) {
    const Point dest = randomHealthy(faults, destRng);
    const RouteColumn dense = compileRouteColumn(*router, faults, dest);
    const PackedRouteColumn packed(dense, mesh);
    expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/true);
  }
}

/// Router that pushes +X everywhere except the east edge, which pushes
/// back -X: every chase that does not start on the destination's row
/// (east-edge destination) livelocks between the last two columns —
/// dense Diverged coverage for the hop-bound and lockstep contracts.
class CycleRouter final : public Router {
 public:
  explicit CycleRouter(const Mesh2D& mesh) : mesh_(mesh) {}
  std::string_view name() const override { return "test-cycle"; }
  RouteResult route(Point s, Point d) override {
    (void)d;
    RouteResult out;
    out.delivered = true;
    const Point next = s.x + 1 < mesh_.width() ? Point{s.x + 1, s.y}
                                               : Point{s.x - 1, s.y};
    out.path = {s, next};
    return out;
  }

 private:
  const Mesh2D& mesh_;
};

TEST(BatchChaseTest, DivergingColumnRetiresByHopBound) {
  const Mesh2D mesh = Mesh2D::square(16);
  const FaultSet faults(mesh);
  CycleRouter router(mesh);
  const Point dest{15, 0};  // east edge: its row delivers, the rest cycle
  const RouteColumn dense = compileRouteColumn(router, faults, dest);
  const PackedRouteColumn packed(dense, mesh);
  // Longest terminating chase: (0, 0) takes width-1 hops east. Every
  // other row livelocks and must NOT stretch the bound — that is the
  // hoisted-livelock-guard claim.
  EXPECT_EQ(packed.hopBound(), 15u);
  expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/false);
  if (chaseBatchSimdAvailable()) {
    expectBatchMatchesScalarChase(dense, packed, mesh, /*simd=*/true);
  }
}

// -------------------------------------------- service-level A/B identity

TEST(ServiceEncodingTest, EncodingsServeBitIdenticallyUnderChurn) {
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(3601);
  const FaultSet faults = injectUniform(mesh, 50, rng);
  // Unfiltered batch: includes faulty endpoints (EndpointFaulty lanes)
  // and, occasionally, s == d — the inline specials of the lockstep
  // path.
  const auto batch = randomBatch(mesh, 200, 3602);

  // The first 8 queries again as a tiny batch: the serial per-query
  // path the fleet's one-query segment serves take.
  const std::vector<Query> tiny(batch.begin(), batch.begin() + 8);

  struct Round {
    BatchResult flat;       // wantPaths=false: the lockstep fast path
    BatchResult paths;      // wantPaths=true: the per-query path
    BatchResult tinyFlat;   // <= 8 queries, serial per-query chases
    BatchResult tinyPaths;
  };
  auto run = [&](ColumnEncoding encoding) {
    SCOPED_TRACE(std::string(columnEncodingName(encoding)));
    ServiceConfig cfg;
    cfg.threads = 2;
    cfg.encoding = encoding;
    RouteService service(faults, cfg);
    std::vector<Round> rounds;
    Rng churn(3603);
    for (int round = 0; round < 6; ++round) {
      SCOPED_TRACE(round);
      const auto snap = service.snapshot();
      Round r;
      r.flat = service.serveOn(snap, batch, /*wantPaths=*/false);
      r.paths = service.serveOn(snap, batch, /*wantPaths=*/true);
      r.tinyFlat = service.serveOn(snap, tiny, /*wantPaths=*/false);
      r.tinyPaths = service.serveOn(snap, tiny, /*wantPaths=*/true);
      expectServedMatchesDenseChase(*snap, batch, r.flat);
      expectServedMatchesDenseChase(*snap, batch, r.paths);
      expectServedMatchesDenseChase(*snap, tiny, r.tinyFlat);
      expectServedMatchesDenseChase(*snap, tiny, r.tinyPaths);
      rounds.push_back(std::move(r));
      const Point p{static_cast<Coord>(churn.below(24)),
                    static_cast<Coord>(churn.below(24))};
      if (service.snapshot()->faults().isFaulty(p)) {
        service.applyRemoveFault(p);
      } else {
        service.applyAddFault(p);
      }
    }
    return rounds;
  };

  const auto packed = run(ColumnEncoding::Packed);
  const auto scalar = run(ColumnEncoding::PackedScalar);
  ASSERT_EQ(scalar.size(), packed.size());
  for (std::size_t r = 0; r < scalar.size(); ++r) {
    SCOPED_TRACE(r);
    ASSERT_EQ(scalar[r].flat.epoch, packed[r].flat.epoch);
    ASSERT_EQ(scalar[r].flat.status, packed[r].flat.status);
    ASSERT_EQ(scalar[r].flat.hops, packed[r].flat.hops);
    ASSERT_EQ(scalar[r].paths.status, packed[r].paths.status);
    ASSERT_EQ(scalar[r].paths.hops, packed[r].paths.hops);
    ASSERT_EQ(scalar[r].paths.paths, packed[r].paths.paths);
    ASSERT_EQ(scalar[r].tinyFlat.status, packed[r].tinyFlat.status);
    ASSERT_EQ(scalar[r].tinyFlat.hops, packed[r].tinyFlat.hops);
    ASSERT_EQ(scalar[r].tinyPaths.paths, packed[r].tinyPaths.paths);
  }
}

TEST(ServiceEncodingTest, MinimalSourcesAreCountedAndServedIdentically) {
  // The lockstep fill pass answers minimal sources from their column
  // bit; the answers equal the dense chase's walk, and the
  // service.chases_retired_minimal counter tallies exactly those
  // queries (recomputed here from the pinned snapshot's columns).
  const Mesh2D mesh = Mesh2D::square(24);
  Rng rng(4101);
  const FaultSet faults = injectUniform(mesh, 40, rng);
  const auto batch = randomBatch(mesh, 400, 4102);

  MetricsRegistry registry;
  ServiceConfig cfg;
  cfg.threads = 2;
  cfg.telemetry.registry = &registry;
  RouteService service(faults, cfg);
  const BatchResult got = service.serve(batch);
  const BatchResult want =
      denseChaseBatch(*service.snapshot(), batch, /*wantPaths=*/false);
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.hops, want.hops);

  // Recounts the minimal sources among chaseable queries from the
  // pinned snapshot's columns.
  const auto countMinimal = [&](const std::vector<Query>& queries) {
    const auto snap = service.snapshot();
    std::uint64_t n = 0;
    for (const Query& q : queries) {
      if (q.s == q.d || faults.isFaulty(q.s) || faults.isFaulty(q.d)) {
        continue;
      }
      const auto column = snap->column(mesh.id(q.d));
      EXPECT_NE(column, nullptr);
      if (column != nullptr &&
          std::get<PackedRouteColumn>(*column).minimal(mesh.id(q.s))) {
        ++n;
      }
    }
    return n;
  };
  const std::uint64_t expected = countMinimal(batch);
  EXPECT_GT(expected, 0u);
  const auto retired = [&] {
    const MetricsSnapshot metrics = registry.snapshot();
    const auto* value = metrics.counter("service.chases_retired_minimal");
    return value == nullptr ? std::uint64_t{0} : *value;
  };
  EXPECT_EQ(retired(), expected);

  // The inline (<= 8 query) path lets chaseColumn answer from the bit
  // and counts the same way. Its batch mixes Manhattan-long deliveries
  // with longer ones, so only the former may count.
  std::vector<std::size_t> picks;
  std::size_t longer = 0;
  for (std::size_t i = 0; i < batch.size() && picks.size() < 8; ++i) {
    if (want.status[i] != ServeStatus::Delivered) continue;
    const bool isLonger = want.hops[i] > manhattan(batch[i].s, batch[i].d);
    if (isLonger ? longer < 4 : picks.size() - longer < 4) {
      picks.push_back(i);
      longer += isLonger ? 1 : 0;
    }
  }
  ASSERT_EQ(picks.size(), 8u);
  std::vector<Query> small;
  for (const std::size_t i : picks) small.push_back(batch[i]);
  const BatchResult smallGot = service.serve(small);
  for (std::size_t k = 0; k < small.size(); ++k) {
    EXPECT_EQ(smallGot.status[k], want.status[picks[k]]) << k;
    EXPECT_EQ(smallGot.hops[k], want.hops[picks[k]]) << k;
  }
  EXPECT_EQ(countMinimal(small), 4u);
  EXPECT_EQ(retired(), expected + 4);
}

}  // namespace
}  // namespace meshrt
