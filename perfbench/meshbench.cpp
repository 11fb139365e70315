// meshbench: the meshrt benchmark program.
//
// Runs one named rb2 workload through the public RouteService /
// ServiceFleet APIs for a fixed wall-clock window, checks a seeded sample
// of answers against the repo's own oracles, and prints one JSON object
// with every metric it measured. perfbench/run.py builds this binary,
// runs it and reduces the object to the benchmark's result line;
// perfbench/README.md documents the workloads and metrics.
//
//   meshbench --workload static-hot --seed 1 --seconds 10 --trace 0
//   meshbench --workload churn --seed 1 --seconds 10 --trace 1
//             --spans-out spans.jsonl
//
// Load shape. Readers are closed loop: each reader takes the next batch
// ticket, serves it, and only then takes another. The fault writer is
// open loop: event e is due at windowStart + e / rate whatever the
// service does, and its publish latency is timed from that due time, so
// a writer stalled behind a slow publish charges the wait to every later
// event. Every input (fault set, destination pools, batches, event
// schedule, check sample) derives from --seed; the program under test
// receives only those generated inputs. Queries follow the paper's
// population: safe endpoints joined by a safe path (see PaperPairs).
//
// A run measures several independently generated instances of the
// workload (Shape::instances), each for an equal share of --seconds, and
// averages them, so a run's figures do not hang on one fault layout. It
// then sets up further instances without measuring them (Shape::setups),
// and setup_s is the median over every set-up of the run.
//
// Tracing (--trace 1). Each window is split in two halves: the first runs
// untraced, the second records spans around each public call (reader
// batch -> serve, writer event -> publish) into per-thread vectors, so the
// difference between the halves' throughput is the tracing overhead.
// After the window a direct phase times lower-layer public functions
// (column compile, Router::route, chaseBatch, the incremental labeler)
// on the same inputs against pinned snapshots.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "fault/analysis.h"
#include "fault/injectors.h"
#include "mesh/shard_layout.h"
#include "route/batch_chase.h"
#include "route/bfs.h"
#include "route/packed_column.h"
#include "route/registry.h"
#include "route/validate.h"
#include "service/fleet.h"
#include "service/route_service.h"

namespace {

using namespace meshrt;

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double msOf(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile (q in [0, 100]) of unsorted samples; 0 when
/// empty.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// ------------------------------------------------------------- workloads

/// One workload's shape. Sizes are chosen so that set-up plus the window
/// fit the benchmark's per-run time budget; README.md records them.
struct Shape {
  std::string name;
  bool fleet = false;
  Coord mesh = 64;
  double faultRate = 0.10;
  /// Pool threads of the service (per shard on fleets).
  std::size_t poolThreads = 2;
  std::size_t grid = 2;
  Coord halo = 2;
  /// Destination pool size (per shard on fleets).
  std::size_t dests = 64;
  /// Sliding-window size over the pool (0 = every batch draws from the
  /// whole pool); the window advances one destination every slideEvery
  /// batches.
  std::size_t window = 0;
  std::size_t slideEvery = 4;
  std::size_t batchQueries = 10000;
  /// Pre-generated batches, served cyclically by ticket.
  std::size_t distinctBatches = 16;
  /// Batches served by warm-up (0 = every distinct batch).
  std::size_t warmupBatches = 0;
  std::size_t readers = 2;
  /// One query in crossEvery is cross-shard (0 = none).
  std::size_t crossEvery = 0;
  /// Cells the writer toggles (also the direct-phase label replay list).
  std::size_t churnCells = 64;
  /// Open-loop event rate; 0 = no writer.
  double eventsPerSecond = 0;
  /// Per-shard column budget in packed columns of the local mesh (0 =
  /// unbounded).
  std::size_t budgetColumns = 0;
  /// Independently generated instances per run (see run()), each set up
  /// once and measured for an equal share of the window.
  std::size_t instances = 4;
  /// Set-ups per run: the measured instances plus further independently
  /// generated instances that are only set up. setup_s is the median of
  /// all of them, so one fault layout's compile cost moves it little.
  std::size_t setups = 8;
  /// Checked queries per instance.
  std::size_t checkSample = 500;
};

std::vector<std::string> workloadNames() {
  return {"static-hot", "churn", "fleet-mixed", "fleet-budget"};
}

Shape shapeFor(const std::string& name, bool tiny) {
  Shape s;
  s.name = name;
  if (name == "static-hot") {
    s.mesh = 40;
    s.poolThreads = 1;
    s.dests = 64;
    s.batchQueries = 10000;
    s.readers = 2;
    // One set-up compiles 64 columns (1-3 s), so fewer set-ups than the
    // default keep a run within its time budget.
    s.setups = 6;
  } else if (name == "churn") {
    s.mesh = 40;
    s.poolThreads = 1;
    s.dests = 16;
    s.batchQueries = 10000;
    s.readers = 1;
    s.eventsPerSecond = 10;
    // Few destinations make one layout's set-up cost vary widely; more
    // set-ups keep setup_s's median steady.
    s.setups = 24;
  } else if (name == "fleet-mixed") {
    s.fleet = true;
    s.mesh = 64;
    s.faultRate = 0.02;
    s.poolThreads = 1;
    s.dests = 16;
    s.batchQueries = 1000;
    s.readers = 1;
    s.crossEvery = 4;
    s.eventsPerSecond = 10;
  } else if (name == "fleet-budget") {
    s.fleet = true;
    s.mesh = 48;
    s.faultRate = 0.02;
    s.poolThreads = 1;
    s.dests = 64;
    s.window = 16;
    s.slideEvery = 8;
    s.batchQueries = 1000;
    // One full turn of the window over the pool; warm-up stops after the
    // first window turnover (the budget can never hold every column).
    s.distinctBatches = 64 * 8;
    s.warmupBatches = 16 * 8;
    s.readers = 1;
    s.crossEvery = 4;
    s.budgetColumns = 64;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (tiny) {
    s.mesh = s.fleet ? 16 : 12;
    s.dests = std::min<std::size_t>(s.dests, 8);
    if (s.window > 0) {
      s.window = 4;
      s.distinctBatches = s.dests * s.slideEvery;
      s.warmupBatches = s.window * s.slideEvery;
      s.budgetColumns = 8;
    }
    s.batchQueries = std::min<std::size_t>(s.batchQueries, 500);
    s.distinctBatches = std::min<std::size_t>(s.distinctBatches, 32);
    s.churnCells = 8;
    s.instances = 2;
    s.setups = 3;
    s.checkSample = 100;
  }
  return s;
}

// ---------------------------------------------------------------- inputs

struct Event {
  Point cell;
  bool add = true;
};

struct Inputs {
  explicit Inputs(const Mesh2D& mesh) : faults(mesh) {}

  FaultSet faults;
  /// Destination pool; on fleets shard-major (shard k owns
  /// [k * dests, (k + 1) * dests)).
  std::vector<Point> dests;
  std::vector<std::vector<Query>> batches;
  /// Event e is due at windowStart + e / eventsPerSecond.
  std::vector<Event> events;
  /// Seeded sample re-served with paths and checked against the oracles.
  std::vector<Query> check;
  std::uint64_t hash = 0;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(Point p) {
    add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)));
    add(static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.y)));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Point randomHealthyIn(const FaultSet& faults, const Rect& r, Rng& rng) {
  for (;;) {
    const Point p{static_cast<Coord>(r.x0 + rng.below(r.width())),
                  static_cast<Coord>(r.y0 + rng.below(r.height()))};
    if (faults.isHealthy(p)) return p;
  }
}

/// The paper's query population (as in harness/experiments.cpp): both
/// endpoints MCC-safe in the labeling forPair(s, d) picks, with a path
/// over safe nodes between them. Theorem 1 covers exactly these pairs.
class PaperPairs {
 public:
  explicit PaperPairs(const FaultSet& faults) : analysis_(faults) {
    analysis_.materializeAll();
  }

  /// Safe in all four quadrant labelings: usable from every direction.
  bool safeEverywhere(Point p) const {
    for (int q = 0; q < 4; ++q) {
      if (!analysis_.quadrant(static_cast<Quadrant>(q)).isSafeWorld(p)) {
        return false;
      }
    }
    return true;
  }

  bool routable(Point s, Point d) {
    const QuadrantAnalysis& qa = analysis_.forPair(s, d);
    const Point sL = qa.frame().toLocal(s);
    const Point dL = qa.frame().toLocal(d);
    if (!qa.labels().isSafe(sL) || !qa.labels().isSafe(dL)) return false;
    const auto key = std::make_pair(d, static_cast<int>(qa.quadrant()));
    auto it = fields_.find(key);
    if (it == fields_.end()) {
      it = fields_.emplace(key, safeDistances(qa.localMesh(), qa.labels(), dL))
               .first;
    }
    return it->second[sL] != kUnreachable;
  }

 private:
  FaultAnalysis analysis_;
  std::map<std::pair<Point, int>, NodeMap<Distance>> fields_;
};

Inputs makeInputs(const Shape& shape, std::uint64_t seed, double seconds) {
  const Mesh2D mesh = Mesh2D::square(shape.mesh);
  Inputs in(mesh);
  Rng rng = Rng::forStream(seed, 1);
  const auto faultCount = static_cast<std::size_t>(std::llround(
      static_cast<double>(mesh.nodeCount()) * shape.faultRate));
  in.faults = injectUniform(mesh, faultCount, rng);

  // Regions: the whole mesh, or each shard's owned rectangle.
  std::vector<Rect> regions;
  std::unique_ptr<ShardLayout> layout;
  if (shape.fleet) {
    layout = std::make_unique<ShardLayout>(mesh, shape.grid, shape.halo);
    for (std::size_t k = 0; k < layout->shardCount(); ++k) {
      regions.push_back(layout->owned(k));
    }
  } else {
    regions.push_back({0, 0, mesh.width() - 1, mesh.height() - 1});
  }
  const auto taken = [](const std::vector<Point>& v, Point p) {
    return std::find(v.begin(), v.end(), p) != v.end();
  };
  PaperPairs pairs(in.faults);
  for (const Rect& r : regions) {
    for (std::size_t i = 0; i < shape.dests; ++i) {
      Point p = randomHealthyIn(in.faults, r, rng);
      for (std::size_t tries = 0;
           taken(in.dests, p) || !pairs.safeEverywhere(p); ++tries) {
        if (tries > 100000) throw std::runtime_error("no safe destination");
        p = randomHealthyIn(in.faults, r, rng);
      }
      in.dests.push_back(p);
    }
  }
  // Toggle cells: healthy non-destinations, spread evenly over regions.
  std::vector<Point> cells;
  for (std::size_t i = 0; i < shape.churnCells; ++i) {
    const Rect& r = regions[i % regions.size()];
    Point p = randomHealthyIn(in.faults, r, rng);
    while (taken(in.dests, p) || taken(cells, p)) {
      p = randomHealthyIn(in.faults, r, rng);
    }
    cells.push_back(p);
  }

  Rng qrng = Rng::forStream(seed, 2);
  const std::size_t poolPerRegion = shape.dests;
  const std::size_t regionCount = regions.size();
  in.batches.resize(shape.distinctBatches);
  for (std::size_t b = 0; b < shape.distinctBatches; ++b) {
    const std::size_t windowStart = (b / shape.slideEvery) % poolPerRegion;
    auto& batch = in.batches[b];
    batch.reserve(shape.batchQueries);
    for (std::size_t i = 0; i < shape.batchQueries; ++i) {
      const std::size_t dk = qrng.below(regionCount);
      const std::size_t slot =
          shape.window > 0
              ? (windowStart + qrng.below(shape.window)) % poolPerRegion
              : qrng.below(poolPerRegion);
      const Point d = in.dests[dk * poolPerRegion + slot];
      std::size_t sk = dk;
      if (shape.crossEvery > 0 &&
          i % shape.crossEvery == shape.crossEvery - 1) {
        sk = (dk + 1 + qrng.below(regionCount - 1)) % regionCount;
      }
      Point s = randomHealthyIn(in.faults, regions[sk], qrng);
      for (std::size_t tries = 0; s == d || !pairs.routable(s, d); ++tries) {
        if (tries > 100000) throw std::runtime_error("no routable source");
        s = randomHealthyIn(in.faults, regions[sk], qrng);
      }
      batch.push_back({s, d});
    }
  }

  Rng erng = Rng::forStream(seed, 3);
  // The writer may run the whole window; the direct-phase label replay
  // of writer-free workloads uses the first churnCells events.
  const std::size_t eventCount = std::max<std::size_t>(
      shape.churnCells,
      static_cast<std::size_t>(std::ceil(shape.eventsPerSecond * seconds)) +
          1);
  std::vector<bool> faulty(cells.size(), false);
  for (std::size_t e = 0; e < eventCount && !cells.empty(); ++e) {
    const std::size_t c = erng.below(cells.size());
    faulty[c] = !faulty[c];
    in.events.push_back({cells[c], faulty[c]});
  }

  Rng crng = Rng::forStream(seed, 4);
  for (std::size_t i = 0; i < shape.checkSample; ++i) {
    const auto& batch = in.batches[crng.below(in.batches.size())];
    in.check.push_back(batch[crng.below(batch.size())]);
  }

  Fnv h;
  for (const std::string& part :
       {shape.name, std::to_string(shape.mesh),
        std::to_string(shape.batchQueries)}) {
    for (char ch : part) h.add(static_cast<std::uint64_t>(ch));
  }
  for (Point p : in.faults.toVector()) h.add(p);
  for (Point p : in.dests) h.add(p);
  for (const auto& batch : in.batches) {
    for (const Query& q : batch) {
      h.add(q.s);
      h.add(q.d);
    }
  }
  for (const Event& e : in.events) {
    h.add(e.cell);
    h.add(static_cast<std::uint64_t>(e.add));
  }
  for (const Query& q : in.check) {
    h.add(q.s);
    h.add(q.d);
  }
  in.hash = h.value();
  return in;
}

// --------------------------------------------------------------- tracing

/// One recorded span. parent indexes the same thread's span vector
/// (-1 = root); id is the batch ticket or event index.
struct Span {
  const char* name;
  std::int64_t parent;
  std::uint64_t id;
  std::uint64_t start;
  std::uint64_t end;
};

/// Per-thread span buffer: no locking on the hot path; merged after the
/// threads join.
struct SpanLog {
  std::vector<Span> spans;

  std::int64_t open(const char* name, std::int64_t parent, std::uint64_t id,
                    std::uint64_t start) {
    spans.push_back({name, parent, id, start, 0});
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
  void close(std::int64_t index, std::uint64_t end) {
    spans[static_cast<std::size_t>(index)].end = end;
  }
};

// -------------------------------------------------------- systems under test

/// What one served batch looked like to the benchmark.
struct BatchOutcome {
  std::size_t delivered = 0;
  /// Queries the service failed to answer: Deadline, Error or Shed.
  std::size_t failed = 0;
  /// Queries answered Diverged: the rb2 per-hop chase livelocks, as the
  /// hop-router reference does (DESIGN.md 7.1), so the answer is correct
  /// and the query is not a failed operation; ok_pct still counts it.
  std::size_t diverged = 0;
};

/// Counters the per-layer metrics read as window deltas (summed over
/// shards on fleets).
struct LayerCounters {
  ServiceCounters service;
  FleetCounters fleet;
};

ServiceCounters& operator+=(ServiceCounters& a, const ServiceCounters& b) {
  a.columnsCompiled += b.columnsCompiled;
  a.columnsCarried += b.columnsCarried;
  a.columnsPatched += b.columnsPatched;
  a.entriesPatched += b.entriesPatched;
  a.columnsDropped += b.columnsDropped;
  a.snapshotsPublished += b.snapshotsPublished;
  a.queriesServed += b.queriesServed;
  a.chasesDiverged += b.chasesDiverged;
  a.columnsEvicted += b.columnsEvicted;
  a.columnsDemoted += b.columnsDemoted;
  a.columnsRecompiled += b.columnsRecompiled;
  return a;
}

/// The benchmark's handle on either front end. Only the benchmark uses
/// it: each method is one call (or one call per shard) into the public
/// API.
class System {
 public:
  virtual ~System() = default;
  virtual BatchOutcome serve(const std::vector<Query>& batch) = 0;
  virtual void apply(const Event& e) = 0;
  virtual LayerCounters counters() const = 0;
  /// Max resident column bytes over shards, and live snapshots summed.
  virtual std::size_t maxResidentBytes() const = 0;
  virtual std::uint64_t liveSnapshots() const = 0;
};

class ServiceSystem final : public System {
 public:
  ServiceSystem(const FaultSet& faults, const Shape& shape)
      : svc(faults, config(shape)) {}

  static ServiceConfig config(const Shape& shape) {
    ServiceConfig cfg;
    cfg.routerKey = "rb2";
    cfg.threads = shape.poolThreads;
    cfg.encoding = ColumnEncoding::Packed;
    cfg.telemetry.enabled = false;
    return cfg;
  }

  BatchOutcome serve(const std::vector<Query>& batch) override {
    const BatchResult r = svc.serve(batch);
    BatchOutcome out;
    for (ServeStatus st : r.status) {
      out.delivered += st == ServeStatus::Delivered;
      out.failed += st == ServeStatus::Deadline;
      out.diverged += st == ServeStatus::Diverged;
    }
    return out;
  }
  void apply(const Event& e) override {
    if (e.add) {
      svc.applyAddFault(e.cell);
    } else {
      svc.applyRemoveFault(e.cell);
    }
  }
  LayerCounters counters() const override { return {svc.counters(), {}}; }
  std::size_t maxResidentBytes() const override {
    return svc.columnFootprint().bytes;
  }
  std::uint64_t liveSnapshots() const override { return svc.liveSnapshots(); }

  RouteService svc;
};

class FleetSystem final : public System {
 public:
  FleetSystem(const FaultSet& faults, const Shape& shape)
      : fleet(faults, config(faults.mesh(), shape)) {}

  /// Per-shard budget from the workload shape alone: budgetColumns packed
  /// columns (two 3-bit entries per byte plus 3 gather-padding bytes,
  /// packed_column.h) of the largest local mesh.
  static std::size_t budgetBytes(const Mesh2D& mesh, const Shape& shape) {
    if (shape.budgetColumns == 0) return 0;
    const ShardLayout layout(mesh, shape.grid, shape.halo);
    std::size_t nodes = 0;
    for (std::size_t k = 0; k < layout.shardCount(); ++k) {
      nodes = std::max<std::size_t>(
          nodes, static_cast<std::size_t>(layout.localMesh(k).nodeCount()));
    }
    return shape.budgetColumns * ((nodes + 1) / 2 + 3);
  }

  static FleetConfig config(const Mesh2D& mesh, const Shape& shape) {
    FleetConfig cfg;
    cfg.service = ServiceSystem::config(shape);
    cfg.service.columnBudgetBytes = budgetBytes(mesh, shape);
    cfg.grid = shape.grid;
    cfg.halo = shape.halo;
    return cfg;
  }

  BatchOutcome serve(const std::vector<Query>& batch) override {
    const FleetBatchResult r = fleet.serve(batch);
    BatchOutcome out;
    for (std::size_t i = 0; i < r.size(); ++i) {
      const ServeStatus st = r.status[i];
      out.delivered += st == ServeStatus::Delivered;
      out.failed += st == ServeStatus::Deadline ||
                    (r.flags[i] & (kFleetFlagError | kFleetFlagShed)) != 0;
      out.diverged += st == ServeStatus::Diverged;
    }
    return out;
  }
  void apply(const Event& e) override {
    if (e.add) {
      fleet.applyAddFault(e.cell);
    } else {
      fleet.applyRemoveFault(e.cell);
    }
  }
  LayerCounters counters() const override {
    LayerCounters c;
    c.fleet = fleet.counters();
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      c.service += fleet.shard(k).counters();
    }
    return c;
  }
  std::size_t maxResidentBytes() const override {
    std::size_t most = 0;
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      most = std::max(most, fleet.shard(k).columnFootprint().bytes);
    }
    return most;
  }
  std::uint64_t liveSnapshots() const override {
    std::uint64_t live = 0;
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      live += fleet.shard(k).liveSnapshots();
    }
    return live;
  }

  ServiceFleet fleet;
};

std::unique_ptr<System> makeSystem(const Inputs& in, const Shape& shape) {
  if (shape.fleet) return std::make_unique<FleetSystem>(in.faults, shape);
  return std::make_unique<ServiceSystem>(in.faults, shape);
}

// ---------------------------------------------------------------- window

/// What a measured window produced. Latencies are in ms.
struct WindowStats {
  double wallSeconds = 0;
  std::size_t batches = 0;
  std::size_t queries = 0;
  std::size_t delivered = 0;
  std::size_t failedQueries = 0;
  std::size_t divergedQueries = 0;
  std::size_t events = 0;
  std::size_t failedEvents = 0;
  std::vector<double> batchMs;
  std::vector<double> batchEndS;  ///< completion, seconds into the window
  std::vector<double> publishMs;  ///< due time -> apply returned
  std::vector<double> lateMs;     ///< due time -> apply started
  std::vector<double> serveSpanMs;
  std::vector<double> applySpanMs;
  std::size_t liveSnapshotsMax = 0;
  std::size_t residentBytesMax = 0;
  std::vector<SpanLog> logs;
};

/// Cursor shared by consecutive windows of one run: batch tickets and the
/// event schedule continue where the previous window stopped.
struct Cursor {
  std::atomic<std::uint64_t> ticket{0};
  std::size_t nextEvent = 0;
};

WindowStats runWindow(System& sys, const Inputs& in, const Shape& shape,
                      double seconds, bool traced, Cursor& cursor) {
  WindowStats w;
  const std::size_t threads = shape.readers + (shape.eventsPerSecond > 0);
  w.logs.resize(threads);
  std::vector<WindowStats> local(threads);
  std::vector<std::uint64_t> stopNs(threads, 0);
  const std::uint64_t start = nowNs();
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);

  auto reader = [&](std::size_t r) {
    WindowStats& mine = local[r];
    SpanLog& log = w.logs[r];
    for (std::uint64_t t0 = nowNs(); t0 < end; t0 = nowNs()) {
      const std::uint64_t ticket = cursor.ticket.fetch_add(1);
      const auto& batch = in.batches[ticket % in.batches.size()];
      std::int64_t outer = -1;
      std::int64_t inner = -1;
      if (traced) {
        outer = log.open("bench.batch", -1, ticket, t0);
        inner = log.open(shape.fleet ? "fleet.serve" : "service.serve", outer,
                         ticket, nowNs());
      }
      BatchOutcome o;
      try {
        o = sys.serve(batch);
      } catch (const std::exception& ex) {
        std::cerr << "batch " << ticket << " failed: " << ex.what() << "\n";
        o.failed = batch.size();
      }
      const std::uint64_t t1 = nowNs();
      if (traced) {
        log.close(inner, t1);
        mine.serveSpanMs.push_back(
            msOf(t1 - log.spans[static_cast<std::size_t>(inner)].start));
        if (mine.batches % 16 == 0) {
          mine.liveSnapshotsMax = std::max<std::size_t>(
              mine.liveSnapshotsMax, sys.liveSnapshots());
          mine.residentBytesMax =
              std::max(mine.residentBytesMax, sys.maxResidentBytes());
        }
        log.close(outer, nowNs());
      }
      mine.batchMs.push_back(msOf(t1 - t0));
      mine.batchEndS.push_back(static_cast<double>(t1 - start) / 1e9);
      mine.batches += 1;
      mine.queries += batch.size();
      mine.delivered += o.delivered;
      mine.failedQueries += o.failed;
      mine.divergedQueries += o.diverged;
    }
    stopNs[r] = nowNs();
  };

  auto writer = [&](std::size_t slot) {
    WindowStats& mine = local[slot];
    SpanLog& log = w.logs[slot];
    const double gapNs = 1e9 / shape.eventsPerSecond;
    for (std::size_t k = 0; cursor.nextEvent < in.events.size(); ++k) {
      const auto due = start + static_cast<std::uint64_t>(
                                   static_cast<double>(k) * gapNs);
      if (due >= end) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due)));
      const std::size_t e = cursor.nextEvent++;
      const std::uint64_t t0 = nowNs();
      std::int64_t outer = -1;
      std::int64_t inner = -1;
      if (traced) {
        outer = log.open("bench.event", -1, e, due);
        inner = log.open(shape.fleet ? "fleet.publish" : "service.publish",
                         outer, e, t0);
      }
      try {
        sys.apply(in.events[e]);
      } catch (const std::exception& ex) {
        std::cerr << "event " << e << " failed: " << ex.what() << "\n";
        mine.failedEvents += 1;
      }
      const std::uint64_t t1 = nowNs();
      if (traced) {
        log.close(inner, t1);
        log.close(outer, t1);
        mine.applySpanMs.push_back(msOf(t1 - t0));
        mine.liveSnapshotsMax = std::max<std::size_t>(mine.liveSnapshotsMax,
                                                      sys.liveSnapshots());
        mine.residentBytesMax =
            std::max(mine.residentBytesMax, sys.maxResidentBytes());
      }
      mine.events += 1;
      mine.lateMs.push_back(msOf(t0 > due ? t0 - due : 0));
      mine.publishMs.push_back(msOf(t1 - due));
    }
    stopNs[slot] = nowNs();
  };

  {
    std::vector<std::jthread> pool;
    for (std::size_t r = 0; r < shape.readers; ++r) {
      pool.emplace_back(reader, r);
    }
    if (shape.eventsPerSecond > 0) pool.emplace_back(writer, shape.readers);
  }
  std::uint64_t last = start;
  for (std::size_t r = 0; r < shape.readers; ++r) {
    last = std::max(last, stopNs[r]);
  }
  w.wallSeconds = static_cast<double>(last - start) / 1e9;
  for (WindowStats& m : local) {
    w.batches += m.batches;
    w.queries += m.queries;
    w.delivered += m.delivered;
    w.failedQueries += m.failedQueries;
    w.divergedQueries += m.divergedQueries;
    w.events += m.events;
    w.failedEvents += m.failedEvents;
    for (std::vector<double> WindowStats::*v :
         {&WindowStats::batchMs, &WindowStats::batchEndS,
          &WindowStats::publishMs, &WindowStats::lateMs,
          &WindowStats::serveSpanMs, &WindowStats::applySpanMs}) {
      (w.*v).insert((w.*v).end(), (m.*v).begin(), (m.*v).end());
    }
    w.liveSnapshotsMax = std::max(w.liveSnapshotsMax, m.liveSnapshotsMax);
    w.residentBytesMax = std::max(w.residentBytesMax, m.residentBytesMax);
  }
  return w;
}

/// Window statistics as medians over equal sub-windows (by batch
/// completion time), so one burst of outside interference moves one
/// sub-window, not the run's figure. Every sub-window holds about 1000
/// batches or more, which leaves at least ten samples beyond its p99.
struct SubWindows {
  double qps = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

SubWindows subWindowMedians(const WindowStats& w, std::size_t batchQueries,
                            double seconds) {
  const std::size_t count =
      std::clamp<std::size_t>(w.batchMs.size() / 1000, 1, 20);
  std::vector<std::vector<double>> latency(count);
  std::vector<double> first(count, seconds * 2);
  std::vector<double> last(count, 0);
  for (std::size_t i = 0; i < w.batchMs.size(); ++i) {
    const auto k = std::min(count - 1, static_cast<std::size_t>(
        w.batchEndS[i] / seconds * static_cast<double>(count)));
    latency[k].push_back(w.batchMs[i]);
    first[k] = std::min(first[k], w.batchEndS[i]);
    last[k] = std::max(last[k], w.batchEndS[i]);
  }
  std::vector<double> qps;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> p99;
  for (std::size_t k = 0; k < count; ++k) {
    // Queries completed between the sub-window's first and last batch
    // completion, over that measured interval.
    if (latency[k].size() >= 2) {
      qps.push_back(static_cast<double>((latency[k].size() - 1) *
                                        batchQueries) /
                    (last[k] - first[k]));
    }
    p50.push_back(percentile(latency[k], 50));
    p90.push_back(percentile(latency[k], 90));
    p99.push_back(percentile(latency[k], 99));
  }
  return {percentile(qps, 50), percentile(p50, 50), percentile(p90, 50),
          percentile(p99, 50)};
}

// ------------------------------------------------------- correctness gate

struct CheckStats {
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  /// Valid answers of a patched epoch that differ from the reference.
  std::size_t stale = 0;
  /// Diverged answers (a per-hop livelock the reference reproduces):
  /// neither failed operations nor oracle mismatches.
  std::size_t diverged = 0;
  std::size_t delivered = 0;
  Distance hops = 0;
  Distance optimal = 0;
};

/// Healthy-node BFS distances from each destination, memoized per check.
class OptimalOracle {
 public:
  explicit OptimalOracle(const FaultSet& faults) : faults_(faults) {}
  Distance distance(Point s, Point d) {
    auto it = fields_.find(d);
    if (it == fields_.end()) {
      it = fields_.emplace(d, healthyDistances(faults_, d)).first;
    }
    return it->second[s];
  }

 private:
  const FaultSet& faults_;
  std::map<Point, NodeMap<Distance>> fields_;
};

/// The hop-router reference (DESIGN.md 7.1): ask the router afresh at
/// every node and take one hop. First hops are memoized per (node, dest),
/// which is exact because the reference router reads one frozen epoch.
class HopReference {
 public:
  HopReference(Router& router, const FaultSet& faults)
      : router_(router), faults_(faults) {}

  ServedRoute serve(Point s, Point d) {
    ServedRoute out;
    if (faults_.isFaulty(s) || faults_.isFaulty(d)) {
      out.status = ServeStatus::EndpointFaulty;
      return out;
    }
    const Mesh2D& mesh = faults_.mesh();
    const auto maxSteps = static_cast<std::size_t>(mesh.nodeCount());
    Point u = s;
    for (std::size_t step = 0; step <= maxSteps; ++step) {
      if (u == d) {
        out.status = ServeStatus::Delivered;
        out.hops = static_cast<Distance>(step);
        return out;
      }
      const auto key = (static_cast<std::uint64_t>(mesh.id(u)) << 32) |
                       static_cast<std::uint32_t>(mesh.id(d));
      auto it = next_.find(key);
      if (it == next_.end()) {
        const RouteResult res = router_.route(u, d);
        const Point none{-1, -1};
        it = next_.emplace(key, res.delivered && res.path.size() >= 2
                                    ? res.path[1]
                                    : none)
                 .first;
      }
      if (it->second.x < 0) {
        out.status = ServeStatus::NoRoute;
        return out;
      }
      u = it->second;
    }
    out.status = ServeStatus::Diverged;
    return out;
  }

 private:
  Router& router_;
  const FaultSet& faults_;
  std::unordered_map<std::uint64_t, Point> next_;
};

void report(std::size_t i, const Query& q, const std::string& what,
            std::size_t& printed) {
  if (printed++ < 5) {
    std::cerr << "check " << i << " (" << q.s.str() << " -> " << q.d.str()
              << "): " << what << "\n";
  }
}

/// Re-serves `sample` with paths on the service's current snapshot and
/// checks every answer against the hop-router reference built over the
/// same pinned epoch. A freshly compiled epoch must match the reference
/// exactly (status and hops). A churned epoch serves patched columns,
/// which DESIGN.md 7.2 promises to be valid but not recompile-exact, so
/// there a reference disagreement with a valid path counts as stale, not
/// as a mismatch.
CheckStats checkService(RouteService& svc, const std::vector<Query>& sample,
                        bool exact) {
  CheckStats c;
  const auto snap = svc.snapshot();
  const BatchResult res = svc.serveOn(snap, sample, /*wantPaths=*/true);
  const auto router = RouterRegistry::global().create("rb2", snap->context());
  HopReference reference(*router, snap->faults());
  OptimalOracle optimal(snap->faults());
  std::size_t printed = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Query& q = sample[i];
    c.checked += 1;
    const ServedRoute ref = reference.serve(q.s, q.d);
    const ServeStatus st = res.status[i];
    const bool endpointFaulty =
        snap->faults().isFaulty(q.s) || snap->faults().isFaulty(q.d);
    bool ok = st != ServeStatus::Deadline &&
              (st == ServeStatus::EndpointFaulty) == endpointFaulty;
    if (!ok) {
      report(i, q, std::string("status ") + std::string(serveStatusName(st)),
             printed);
    }
    c.diverged += st == ServeStatus::Diverged;
    if (ok && st == ServeStatus::Delivered) {
      const auto& path = res.paths[i];
      if (!isValidPath(snap->faults(), q.s, q.d, path) ||
          res.hops[i] != static_cast<std::int32_t>(path.size()) - 1) {
        ok = false;
        report(i, q, "invalid path", printed);
      } else {
        c.delivered += 1;
        c.hops += res.hops[i];
        c.optimal += optimal.distance(q.s, q.d);
      }
    }
    const bool agrees =
        st == ref.status &&
        (st != ServeStatus::Delivered || res.hops[i] == ref.hops);
    if (ok && !agrees) {
      const std::string what =
          std::string(serveStatusName(st)) + "/" + std::to_string(res.hops[i]) +
          " hops vs reference " + std::string(serveStatusName(ref.status)) +
          "/" + std::to_string(ref.hops);
      if (exact) {
        ok = false;
        report(i, q, what, printed);
      } else {
        c.stale += 1;
      }
    }
    c.mismatches += !ok;
  }
  return c;
}

/// Fleet answers are checked segment by segment against each segment's
/// pinned shard epoch; the stretch oracle runs on the global fault set
/// the pinned epochs agree on (each cell read from its owner's epoch).
CheckStats checkFleet(ServiceFleet& fleet, const std::vector<Query>& sample) {
  CheckStats c;
  const FleetBatchResult res = fleet.serve(sample, /*wantPaths=*/true);
  const ShardLayout& layout = fleet.layout();
  const Mesh2D& mesh = layout.mesh();
  FaultSet global(mesh);
  for (Coord y = 0; y < mesh.height(); ++y) {
    for (Coord x = 0; x < mesh.width(); ++x) {
      const Point p{x, y};
      const std::size_t k = layout.owner(p);
      if (res.pinned[k]->faults().isFaulty(layout.toLocal(k, p))) global.add(p);
    }
  }
  const auto healthyIn = [&](std::size_t k, Point p) {
    return layout.local(k).contains(p) &&
           res.pinned[k]->faults().isHealthy(layout.toLocal(k, p));
  };
  OptimalOracle optimal(global);
  std::size_t printed = 0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const Query& q = sample[i];
    c.checked += 1;
    const ServeStatus st = res.status[i];
    bool ok = st != ServeStatus::Deadline &&
              (res.flags[i] & (kFleetFlagError | kFleetFlagShed)) == 0;
    if (!ok) report(i, q, "failed serve", printed);
    c.diverged += st == ServeStatus::Diverged;
    const bool endpointFaulty = global.isFaulty(q.s) || global.isFaulty(q.d);
    if (ok && (st == ServeStatus::EndpointFaulty) != endpointFaulty) {
      ok = false;
      report(i, q, "endpoint status disagrees with pinned epochs", printed);
    }
    if (ok && st == ServeStatus::Delivered) {
      const auto& path = res.paths[i];
      const auto& segs = res.segments[i];
      bool valid = !path.empty() && path.front() == q.s &&
                   path.back() == q.d && !segs.empty() &&
                   segs.front().begin == 0 &&
                   res.hops[i] == static_cast<std::int32_t>(path.size()) - 1;
      for (std::size_t j = 1; valid && j < path.size(); ++j) {
        valid = manhattan(path[j - 1], path[j]) == 1;
      }
      for (std::size_t g = 0; valid && g < segs.size(); ++g) {
        const std::size_t k = segs[g].shard;
        const std::size_t b = segs[g].begin;
        const std::size_t e = g + 1 < segs.size() ? segs[g + 1].begin
                                                  : path.size();
        valid = k < fleet.shardCount() && b < e && e <= path.size();
        for (std::size_t j = b; valid && j < e; ++j) {
          valid = healthyIn(k, path[j]);
        }
        // The crossing hop into this segment is checked in both epochs.
        if (valid && g > 0) {
          const std::size_t prev = segs[g - 1].shard;
          valid = healthyIn(k, path[b - 1]) && healthyIn(prev, path[b]);
        }
      }
      if (!valid) {
        ok = false;
        report(i, q, "path invalid against its pinned shard epochs", printed);
      } else {
        c.delivered += 1;
        c.hops += res.hops[i];
        c.optimal += optimal.distance(q.s, q.d);
      }
    }
    c.mismatches += !ok;
  }
  return c;
}

// ----------------------------------------------------------- direct phase

/// Metric name -> (value, unit), in report order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void put(Metrics& m, const std::string& name, double value,
         const std::string& unit) {
  m.push_back({name, {value, unit}});
}

/// Times the route-layer public functions on one pinned snapshot: column
/// compile, Router::route and chaseBatch over the snapshot's own packed
/// columns. `queries` are in the snapshot's (local) coordinates.
void directRoute(const ServiceSnapshot& snap,
                 const std::vector<Point>& dests,
                 const std::vector<Query>& queries, Metrics& m) {
  const auto router = RouterRegistry::global().create("rb2", snap.context());
  const Mesh2D& mesh = snap.mesh();

  std::vector<double> compileMs;
  const std::uint64_t compileStart = nowNs();
  for (Point d : dests) {
    const std::uint64_t t0 = nowNs();
    const PackedRouteColumn col =
        compilePackedRouteColumn(*router, snap.faults(), d);
    compileMs.push_back(msOf(nowNs() - t0));
    if (col.routedSources() == 0 && mesh.nodeCount() > 1) {
      std::cerr << "warning: empty column for " << d.str() << "\n";
    }
    if (nowNs() - compileStart > 500'000'000ULL) break;
  }
  put(m, "route.compile_ms_per_column", mean(compileMs), "ms");

  std::vector<double> routeUs;
  for (std::size_t i = 0; i < queries.size() && i < 400; ++i) {
    const std::uint64_t t0 = nowNs();
    const RouteResult r = router->route(queries[i].s, queries[i].d);
    routeUs.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    if (r.path.empty() && r.delivered) std::cerr << "warning: empty route\n";
  }
  put(m, "route.route_us", mean(routeUs), "us");

  // Group the queries' sources by destination, then chase each group in
  // lockstep against the snapshot's packed column for it.
  std::map<NodeId, std::vector<NodeId>> groups;
  for (const Query& q : queries) groups[mesh.id(q.d)].push_back(mesh.id(q.s));
  std::vector<NodeId> ids;
  for (const auto& [d, srcs] : groups) ids.push_back(d);
  const auto pinned = snap.pinColumns(ids);
  std::vector<const PackedRouteColumn*> cols;
  std::size_t chased = 0;
  std::size_t g = 0;
  std::vector<std::vector<NodeId>> sources;
  for (const auto& [d, srcs] : groups) {
    const auto& slot = pinned[g++];
    const auto* col =
        slot == nullptr ? nullptr : std::get_if<PackedRouteColumn>(slot.get());
    if (col == nullptr) continue;
    cols.push_back(col);
    sources.push_back(srcs);
    chased += srcs.size();
  }
  std::vector<ServeStatus> status(queries.size());
  std::vector<std::int32_t> hops(queries.size());
  std::size_t reps = 0;
  const std::uint64_t t0 = nowNs();
  while (chased > 0 && (reps < 3 || nowNs() - t0 < 200'000'000ULL)) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      chaseBatch(*cols[c], sources[c].data(), sources[c].size(),
                 cols[c]->hopBound(), status.data(), hops.data());
    }
    ++reps;
  }
  const double ns = static_cast<double>(nowNs() - t0);
  put(m, "route.chase_ns_per_query",
      ratio(ns, static_cast<double>(chased * reps)), "ns");
}

/// Replays `events` through standalone DynamicFaultModels (the
/// incremental labeler behind FaultAnalysis, all four quadrants): one
/// model over the whole mesh, or one per covering shard on fleets.
void directLabels(const Inputs& in, const Shape& shape,
                  std::size_t eventCount, Metrics& m) {
  const Mesh2D& mesh = in.faults.mesh();
  std::vector<std::unique_ptr<DynamicFaultModel>> models;
  std::unique_ptr<ShardLayout> layout;
  if (shape.fleet) {
    layout = std::make_unique<ShardLayout>(mesh, shape.grid, shape.halo);
    for (std::size_t k = 0; k < layout->shardCount(); ++k) {
      FaultSet local(layout->localMesh(k));
      for (Point p : in.faults.toVector()) {
        if (layout->local(k).contains(p)) local.add(layout->toLocal(k, p));
      }
      models.push_back(std::make_unique<DynamicFaultModel>(local));
    }
  } else {
    models.push_back(std::make_unique<DynamicFaultModel>(in.faults));
  }
  for (auto& model : models) model->analysis().materializeAll();
  std::vector<double> us;
  std::vector<double> changed;
  for (std::size_t e = 0; e < eventCount && e < in.events.size(); ++e) {
    const Event& ev = in.events[e];
    std::vector<std::pair<DynamicFaultModel*, Point>> targets;
    if (layout) {
      for (std::size_t k : layout->covering(ev.cell)) {
        targets.push_back({models[k].get(), layout->toLocal(k, ev.cell)});
      }
    } else {
      targets.push_back({models[0].get(), ev.cell});
    }
    std::size_t cells = 0;
    const std::uint64_t t0 = nowNs();
    for (auto& [model, p] : targets) {
      const FaultEvent fe =
          ev.add ? model->addFaultEvent(p) : model->removeFaultEvent(p);
      cells += fe.changedWorld.size();
    }
    us.push_back(static_cast<double>(nowNs() - t0) / 1e3);
    changed.push_back(static_cast<double>(cells));
  }
  put(m, "fault.label_patch_us", mean(us), "us");
  put(m, "fault.changed_cells_per_event", mean(changed), "count");
}

/// Fleet front-end split: sampled batches served as intra-only and
/// cross-only fleet batches, and the intra part again directly through
/// each shard's serveOn.
void directFleet(ServiceFleet& fleet, const Inputs& in, Metrics& m) {
  const ShardLayout& layout = fleet.layout();
  std::vector<Query> intra;
  std::vector<Query> cross;
  for (std::size_t b = 0; b < in.batches.size() && b < 8; ++b) {
    for (const Query& q : in.batches[b]) {
      (layout.owner(q.s) == layout.owner(q.d) ? intra : cross).push_back(q);
    }
  }
  const auto perKq = [](std::uint64_t ns, std::size_t n) {
    return ratio(msOf(ns) * 1000.0, static_cast<double>(n));
  };
  std::uint64_t t0 = nowNs();
  fleet.serve(intra);
  put(m, "fleet.intra_ms_per_kq", perKq(nowNs() - t0, intra.size()), "ms/kq");
  t0 = nowNs();
  fleet.serve(cross);
  put(m, "fleet.cross_ms_per_kq", perKq(nowNs() - t0, cross.size()), "ms/kq");

  std::vector<std::vector<Query>> perShard(fleet.shardCount());
  for (const Query& q : intra) {
    const std::size_t k = layout.owner(q.s);
    perShard[k].push_back({layout.toLocal(k, q.s), layout.toLocal(k, q.d)});
  }
  std::uint64_t shardNs = 0;
  for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
    const auto svc = fleet.shardService(k);
    const auto snap = svc->snapshot();
    t0 = nowNs();
    svc->serveOn(snap, perShard[k]);
    shardNs += nowNs() - t0;
  }
  put(m, "fleet.shard_serve_ms", perKq(shardNs, intra.size()), "ms/kq");
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string spansOut;
};

bool parseArgs(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = value == "1";
      } else if (flag == "--spans-out") {
        a.spansOut = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double peakRssMb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Appends one instance's spans as JSON lines; times are relative to the
/// instance's first span.
void writeSpans(std::ofstream& out, const std::vector<SpanLog>& logs,
                std::size_t instance) {
  std::uint64_t origin = ~0ULL;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans) origin = std::min(origin, s.start);
  }
  for (std::size_t t = 0; t < logs.size(); ++t) {
    for (const Span& s : logs[t].spans) {
      out << "{\"instance\":" << instance << ",\"thread\":" << t
          << ",\"name\":\"" << s.name << "\",\"id\":" << s.id
          << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << (s.start - origin)
          << ",\"end_ns\":" << (s.end - origin) << "}\n";
    }
  }
}

/// Self time per span name: duration minus the children's durations.
std::map<std::string, double> selfMs(const std::vector<SpanLog>& logs) {
  std::map<std::string, double> self;
  for (const SpanLog& log : logs) {
    std::vector<double> childMs(log.spans.size(), 0.0);
    for (const Span& s : log.spans) {
      if (s.parent >= 0) {
        childMs[static_cast<std::size_t>(s.parent)] += msOf(s.end - s.start);
      }
    }
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      self[s.name] += msOf(s.end - s.start) - childMs[i];
    }
  }
  return self;
}

/// One independently generated instance of a workload: its own inputs
/// (fault set, pools, batches, events, check sample), set-up, window and
/// checks.
struct InstanceResult {
  std::uint64_t hash = 0;
  double setupS = 0;
  SubWindows sub;
  WindowStats w;  ///< the measured window (the traced half with --trace 1)
  std::size_t queries = 0;
  std::size_t delivered = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t diverged = 0;
  std::size_t mismatches = 0;
  std::size_t stale = 0;
  std::size_t checked = 0;
  Distance hops = 0;
  Distance optimal = 0;
  Metrics layer;  ///< per-layer metrics (--trace 1 only)
};

/// Set-up: construction through warm-up (every distinct batch served
/// once, so every column the workload needs is compiled). Returns the
/// system and stores the set-up's wall time in seconds.
std::unique_ptr<System> setUp(const Inputs& in, const Shape& shape,
                              double& seconds) {
  const std::uint64_t t0 = nowNs();
  std::unique_ptr<System> sys = makeSystem(in, shape);
  const std::size_t warmup = shape.warmupBatches > 0
                                 ? shape.warmupBatches
                                 : in.batches.size();
  for (std::size_t b = 0; b < warmup; ++b) sys->serve(in.batches[b]);
  seconds = static_cast<double>(nowNs() - t0) / 1e9;
  return sys;
}

InstanceResult runInstance(const Args& args, const Shape& shape,
                           std::uint64_t seed, double seconds,
                           std::ofstream* spans, std::size_t index) {
  InstanceResult res;
  const Inputs in = makeInputs(shape, seed, seconds);
  res.hash = in.hash;
  std::unique_ptr<System> sys = setUp(in, shape, res.setupS);

  const auto tallyCheck = [&](const CheckStats& c) {
    res.attempted += c.checked;
    res.failed += c.mismatches;
    res.diverged += c.diverged;
    res.mismatches += c.mismatches;
    res.stale += c.stale;
  };
  // The freshly compiled set-up epoch must match the hop-router
  // reference exactly (fleets are checked after the window).
  if (!shape.fleet) {
    tallyCheck(checkService(static_cast<ServiceSystem&>(*sys).svc, in.check,
                            /*exact=*/true));
  }

  Cursor cursor;
  WindowStats& w = res.w;
  double overheadPct = 0;
  const double windowSeconds = args.trace ? seconds / 2 : seconds;
  LayerCounters before = sys->counters();
  if (args.trace) {
    const WindowStats plain =
        runWindow(*sys, in, shape, windowSeconds, false, cursor);
    res.queries += plain.queries;
    res.delivered += plain.delivered;
    res.attempted += plain.queries + plain.events;
    res.failed += plain.failedQueries + plain.failedEvents;
    res.diverged += plain.divergedQueries;
    // Per-layer counter deltas cover the traced half only.
    before = sys->counters();
    w = runWindow(*sys, in, shape, windowSeconds, true, cursor);
    const double plainQps = ratio(plain.queries, plain.wallSeconds);
    const double tracedQps = ratio(w.queries, w.wallSeconds);
    overheadPct = 100.0 * ratio(plainQps - tracedQps, plainQps);
  } else {
    w = runWindow(*sys, in, shape, windowSeconds, false, cursor);
  }
  res.queries += w.queries;
  res.delivered += w.delivered;
  res.attempted += w.queries + w.events;
  res.failed += w.failedQueries + w.failedEvents;
  res.diverged += w.divergedQueries;
  res.sub = subWindowMedians(w, shape.batchQueries, windowSeconds);
  const LayerCounters after = sys->counters();

  // Correctness gate, off the clock, against pinned snapshots.
  CheckStats check;
  if (shape.fleet) {
    check = checkFleet(static_cast<FleetSystem&>(*sys).fleet, in.check);
  } else {
    check = checkService(static_cast<ServiceSystem&>(*sys).svc, in.check,
                         /*exact=*/cursor.nextEvent == 0);
  }
  tallyCheck(check);
  res.checked = check.checked;
  res.hops = check.hops;
  res.optimal = check.optimal;
  if (shape.fleet && shape.budgetColumns > 0) {
    const auto& fleet = static_cast<FleetSystem&>(*sys).fleet;
    const std::size_t budget = fleet.config().service.columnBudgetBytes;
    for (std::size_t k = 0; k < fleet.shardCount(); ++k) {
      const std::size_t bytes = fleet.shard(k).columnFootprint().bytes;
      res.attempted += 1;
      if (bytes > budget) {
        std::cerr << "shard " << k << " holds " << bytes
                  << " column bytes over its budget " << budget << "\n";
        res.failed += 1;
        res.mismatches += 1;
      }
    }
  }
  if (!args.trace) return res;

  // Per-layer metrics of the traced half.
  Metrics& m = res.layer;
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const ServiceCounters& sa = after.service;
  const ServiceCounters& sb = before.service;
  const FleetCounters& fa = after.fleet;
  const FleetCounters& fb = before.fleet;
  const double events = static_cast<double>(w.applySpanMs.size());
  const double batches = static_cast<double>(w.batches);
  const double serveMs = mean(w.serveSpanMs);
  const double applyMs = mean(w.applySpanMs);
  const double patched = delta(sa.columnsPatched, sb.columnsPatched);
  const double carried = delta(sa.columnsCarried, sb.columnsCarried);
  const double entries = delta(sa.entriesPatched, sb.entriesPatched);
  put(m, "publish_p50_ms", percentile(w.publishMs, 50), "ms");
  put(m, "publish_p90_ms", percentile(w.publishMs, 90), "ms");
  put(m, "service.serve_ms", shape.fleet ? 0.0 : serveMs, "ms");
  put(m, "service.publish_ms", shape.fleet ? 0.0 : applyMs, "ms");
  put(m, "service.columns_patched_per_event", ratio(patched, events), "count");
  put(m, "service.entries_per_event", ratio(entries, events), "count");
  put(m, "service.carry_ratio", ratio(carried, carried + patched), "ratio");
  put(m, "service.live_snapshots_max",
      static_cast<double>(w.liveSnapshotsMax), "count");
  put(m, "service.column_bytes", static_cast<double>(w.residentBytesMax),
      "bytes");

  // Direct phase: route layer on a pinned snapshot (shard 0 on fleets).
  {
    std::shared_ptr<const ServiceSnapshot> snap;
    std::vector<Point> dests;
    std::vector<Query> queries;
    if (shape.fleet) {
      auto& fleet = static_cast<FleetSystem&>(*sys).fleet;
      const ShardLayout& layout = fleet.layout();
      snap = fleet.shardService(0)->snapshot();
      for (std::size_t i = 0; i < shape.dests; ++i) {
        dests.push_back(layout.toLocal(0, in.dests[i]));
      }
      for (const Query& q : in.batches[0]) {
        if (layout.owner(q.s) == 0 && layout.owner(q.d) == 0) {
          queries.push_back({layout.toLocal(0, q.s), layout.toLocal(0, q.d)});
        }
      }
    } else {
      snap = static_cast<ServiceSystem&>(*sys).svc.snapshot();
      dests = in.dests;
      queries = in.batches[0];
    }
    directRoute(*snap, dests, queries, m);
  }
  const std::size_t replay =
      shape.eventsPerSecond > 0 ? cursor.nextEvent : shape.churnCells;
  directLabels(in, shape, replay, m);
  double labelUs = 0;
  for (const auto& [name, v] : m) {
    if (name == "fault.label_patch_us") labelUs = v.first;
  }
  put(m, "route.stale_answer_pct",
      100.0 * ratio(static_cast<double>(check.stale),
                    static_cast<double>(check.checked)),
      "%");
  put(m, "route.patch_us_per_entry",
      shape.fleet || events == 0
          ? 0.0
          : std::max(0.0, ratio(applyMs * 1000.0 - labelUs,
                                ratio(entries, events))),
      "us");

  if (shape.fleet) {
    auto& fleet = static_cast<FleetSystem&>(*sys).fleet;
    const double crossQ = delta(fa.crossQueries, fb.crossQueries);
    const double segs = delta(fa.stitchSegments, fb.stitchSegments);
    put(m, "fleet.serve_ms", serveMs, "ms");
    directFleet(fleet, in, m);
    put(m, "fleet.segments_per_cross", ratio(segs, crossQ), "count");
    put(m, "fleet.stitch_success_ratio",
        ratio(segs, segs + delta(fa.stitchRetries, fb.stitchRetries)),
        "ratio");
    put(m, "fleet.replans_per_kcross",
        1000.0 * ratio(delta(fa.replans, fb.replans), crossQ), "count");
    const double hits = delta(fa.planCacheHits, fb.planCacheHits);
    put(m, "fleet.plan_cache_hit_ratio",
        ratio(hits, hits + delta(fa.planCacheMisses, fb.planCacheMisses)),
        "ratio");
    const double reuses = delta(fa.borderReuses, fb.borderReuses);
    put(m, "fleet.border_reuse_ratio",
        ratio(reuses, reuses + delta(fa.borderBuilds, fb.borderBuilds)),
        "ratio");
    put(m, "fleet.plan_invalidations",
        delta(fa.planInvalidations, fb.planInvalidations), "count");
    put(m, "fleet.publish_ms", applyMs, "ms");
    double covering = 0;
    for (std::size_t e = 0; e < cursor.nextEvent; ++e) {
      covering += static_cast<double>(
          fleet.layout().covering(in.events[e].cell).size());
    }
    put(m, "fleet.shards_per_event",
        ratio(covering, static_cast<double>(cursor.nextEvent)), "count");
  } else {
    // Not on a single service's path: reported as 0.
    for (const auto& [name, unit] :
         std::vector<std::pair<const char*, const char*>>{
             {"fleet.serve_ms", "ms"},
             {"fleet.intra_ms_per_kq", "ms/kq"},
             {"fleet.cross_ms_per_kq", "ms/kq"},
             {"fleet.shard_serve_ms", "ms/kq"},
             {"fleet.segments_per_cross", "count"},
             {"fleet.stitch_success_ratio", "ratio"},
             {"fleet.replans_per_kcross", "count"},
             {"fleet.plan_cache_hit_ratio", "ratio"},
             {"fleet.border_reuse_ratio", "ratio"},
             {"fleet.plan_invalidations", "count"},
             {"fleet.publish_ms", "ms"},
             {"fleet.shards_per_event", "count"}}) {
      put(m, name, 0.0, unit);
    }
  }
  put(m, "cache.evictions_per_batch",
      ratio(delta(sa.columnsEvicted, sb.columnsEvicted), batches), "count");
  put(m, "cache.recompiles_per_batch",
      ratio(delta(sa.columnsRecompiled, sb.columnsRecompiled), batches),
      "count");
  put(m, "cache.resident_bytes", static_cast<double>(w.residentBytesMax),
      "bytes");
  put(m, "bench.writer_late_ms", percentile(w.lateMs, 90), "ms");
  put(m, "bench.trace_overhead_pct", overheadPct, "%");
  const double windowMs = w.wallSeconds * 1000.0;
  const auto self = selfMs(w.logs);
  const auto selfOf = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  put(m, "bench.reader_serve_wall_pct",
      100.0 * ratio(selfOf(shape.fleet ? "fleet.serve" : "service.serve"),
                    windowMs * static_cast<double>(shape.readers)),
      "%");
  put(m, "bench.writer_publish_wall_pct",
      100.0 * ratio(selfOf(shape.fleet ? "fleet.publish" : "service.publish"),
                    windowMs),
      "%");
  if (spans != nullptr) writeSpans(*spans, w.logs, index);
  return res;
}

/// Per-layer metrics whose instances combine by max, not by mean.
bool combinesByMax(const std::string& name) {
  return name == "service.live_snapshots_max" ||
         name == "service.column_bytes" || name == "cache.resident_bytes";
}

int run(const Args& args) {
  const Shape shape = shapeFor(args.workload, args.tiny);
  std::unique_ptr<std::ofstream> spans;
  if (args.trace && !args.spansOut.empty()) {
    spans = std::make_unique<std::ofstream>(args.spansOut);
  }

  // The run measures shape.instances independently generated instances
  // of the workload for an equal share of --seconds each: a run then
  // averages over several fault layouts, so runs with different seeds
  // agree far better than one layout per run would.
  const double seconds = args.seconds / static_cast<double>(shape.instances);
  std::vector<InstanceResult> parts;
  Fnv hash;
  for (std::size_t r = 0; r < shape.instances; ++r) {
    Rng derive = Rng::forStream(args.seed, 1000 + r);
    parts.push_back(
        runInstance(args, shape, derive(), seconds, spans.get(), r));
    hash.add(parts.back().hash);
  }

  InstanceResult total;
  std::vector<double> setupS;
  std::vector<double> publishMs;
  for (const InstanceResult& p : parts) {
    setupS.push_back(p.setupS);
    total.sub.qps += p.sub.qps / static_cast<double>(parts.size());
    total.sub.p50 += p.sub.p50 / static_cast<double>(parts.size());
    total.sub.p90 += p.sub.p90 / static_cast<double>(parts.size());
    total.sub.p99 += p.sub.p99 / static_cast<double>(parts.size());
    total.queries += p.queries;
    total.delivered += p.delivered;
    total.attempted += p.attempted;
    total.failed += p.failed;
    total.diverged += p.diverged;
    total.mismatches += p.mismatches;
    total.stale += p.stale;
    total.checked += p.checked;
    total.hops += p.hops;
    total.optimal += p.optimal;
    total.w.batches += p.w.batches;
    total.w.events += p.w.events;
  }
  for (std::size_t r = shape.instances; r < shape.setups; ++r) {
    Rng derive = Rng::forStream(args.seed, 1000 + r);
    const Inputs in = makeInputs(shape, derive(), seconds);
    hash.add(in.hash);
    double s = 0;
    setUp(in, shape, s);
    setupS.push_back(s);
  }
  // Failed operations (queries answered Deadline, Error or Shed, events
  // whose apply threw, oracle mismatches, budget breaches) count into
  // `failed`; only oracle mismatches and budget breaches make the run
  // incorrect. Diverged answers are counted apart and lower ok_pct.
  const bool correct = total.mismatches == 0;

  // End-to-end metrics: the untraced windows (in trace mode the traced
  // halves, informational). Throughput and batch latencies are each
  // instance's sub-window medians, averaged over the instances.
  Metrics m;
  put(m, "setup_s", percentile(setupS, 50), "s");
  put(m, "qps", total.sub.qps, "1/s");
  put(m, "batch_p50_ms", total.sub.p50, "ms");
  put(m, "batch_p90_ms", total.sub.p90, "ms");
  put(m, "batch_p99_ms", total.sub.p99, "ms");
  put(m, "delivered_pct",
      100.0 * ratio(static_cast<double>(total.delivered),
                    static_cast<double>(total.queries)),
      "%");
  put(m, "hops_vs_optimal_pct",
      100.0 * ratio(static_cast<double>(total.hops),
                    static_cast<double>(total.optimal)),
      "%");
  put(m, "ok_pct",
      100.0 - 100.0 * ratio(static_cast<double>(total.failed +
                                                total.diverged),
                            static_cast<double>(total.attempted)),
      "%");
  put(m, "peak_rss_mb", peakRssMb(), "MiB");
  if (args.trace) {
    for (std::size_t i = 0; i < parts[0].layer.size(); ++i) {
      const std::string& name = parts[0].layer[i].first;
      double combined = 0;
      for (const InstanceResult& p : parts) {
        const double v = p.layer[i].second.first;
        combined = combinesByMax(name)
                       ? std::max(combined, v)
                       : combined + v / static_cast<double>(parts.size());
      }
      put(m, name, combined, parts[0].layer[i].second.second);
    }
  }

  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash.value()));
  std::ostringstream out;
  out << "{\"workload\":\"" << shape.name << "\",\"seed\":" << args.seed
      << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"input_hash\":\"" << hex
      << "\",\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << total.attempted
      << ",\"failed\":" << total.failed
      << ",\"diverged\":" << total.diverged
      << ",\"samples\":{\"instances\":" << parts.size()
      << ",\"setups\":" << setupS.size()
      << ",\"batches\":" << total.w.batches
      << ",\"events\":" << total.w.events << ",\"checked\":" << total.checked
      << ",\"check_mismatches\":" << total.mismatches
      << ",\"check_stale\":" << total.stale << "},\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    out << (i ? "," : "") << "\"" << m[i].first
        << "\":{\"value\":" << jsonNumber(m[i].second.first)
        << ",\"unit\":\"" << m[i].second.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parseArgs(argc, argv, args)) {
    std::cerr << "usage: meshbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE] [--tiny]\n  workloads:";
    for (const auto& name : workloadNames()) std::cerr << " " << name;
    std::cerr << "\n";
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "meshbench: " << e.what() << "\n";
    return 2;
  }
}
