// serve-elastic: reads beside writes on the serving layer. A
// PartitionService runs the CHURN workload on the LPA engine with a
// per-iteration migration budget, converged before streaming. A resize
// plan grows k at one third of the stream and shrinks it below the
// starting k at two thirds. A checkpoint is written after every window.
// Two reader threads query the board throughout ingest. A crash is
// injected at the last window; the service is then restored from the last
// checkpoint and resumed.
//
// Set-up (generation, the service's construction and convergence) runs
// five times and setup_s is the median: one set-up lasts ~1.2 s, almost
// all of it convergence, and a single one spreads 20-40 % from run to run
// on a 4-core VM. Recovery (~0.4 s) runs three times; its median is a
// metric line, not a result metric, as its spread stays that wide.
//
// PartitionService::run() owns the window loop, so the untraced run times
// a window as the interval between consecutive snapshot publications, as
// the readers see them (it includes the previous window's checkpoint).
// The traced run rebuilds that loop from the public calls run() makes:
// Streamer::next, Engine::growPartitions/shrinkPartitions,
// Session::applyUpdates, Engine::rescaleCapacity/step/drainTouched,
// SnapshotBuilder::note/build, SnapshotBoard::publish and writeCheckpoint.

#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "api/partitioner_registry.h"
#include "api/pipeline.h"
#include "api/workload_registry.h"
#include "bench_common.h"
#include "checks.h"
#include "common.h"
#include "lpa/lpa_engine.h"
#include "metrics/balance.h"
#include "serve/checkpoint.h"
#include "serve/fault.h"
#include "serve/service.h"

namespace churnbench {

namespace {

using namespace xdgp;
namespace fs = std::filesystem;

struct Sizes {
  std::size_t vertices = 20'000;
  std::size_t eventsPerWindow = 300;
  std::size_t windows = 120;
  std::size_t k = 8;
  std::size_t growBy = 4;      ///< at windows / 3: k -> k + growBy
  std::size_t shrinkTo = 6;    ///< at 2 windows / 3: retire down to this
  std::size_t migrationBudget = 500;
  std::size_t windowIterationCap = 20;
  /// LPA does not go quiet on this stream (it keeps migrating a few
  /// hundred vertices per iteration), so adapting is this many iterations.
  std::size_t convergeCap = 400;
  std::size_t recoveries = 3;  ///< each from a copy of the crashed state
  std::size_t setups = 5;      ///< set-ups per run; setup_s is their median
};

Sizes sizesFor(const RunConfig& config) {
  Sizes sizes;
  if (config.scale == Scale::kSmall) {
    sizes.vertices = 2'000;
    sizes.eventsPerWindow = 200;
    sizes.windows = 9;
    sizes.migrationBudget = 200;
    sizes.recoveries = 1;
    sizes.setups = 1;
    return sizes;
  }
  sizes.windows = std::max<std::size_t>(
      100, static_cast<std::size_t>(std::llround(config.seconds * 6.0)));
  return sizes;
}

api::WorkloadConfig workloadConfig(const Sizes& sizes, std::uint64_t seed) {
  api::WorkloadConfig config;
  config.seed = seed;
  config.overrides = {{"vertices", static_cast<double>(sizes.vertices)},
                      {"ticks", static_cast<double>(sizes.windows)},
                      {"rate", static_cast<double>(sizes.eventsPerWindow)}};
  return config;
}

core::AdaptiveOptions adaptiveOptions(const Sizes& sizes) {
  core::AdaptiveOptions options;
  options.k = sizes.k;
  options.engine = core::EngineKind::kLpa;
  options.lpaMigrationBudget = sizes.migrationBudget;
  return options;
}

serve::ServeOptions serveOptions(const Sizes& sizes, const api::Workload& workload,
                                 const std::string& checkpointDir) {
  serve::ServeOptions options;
  options.stream = workload.suggested;  // one CHURN tick per window
  options.stream.maxIterationsPerWindow = sizes.windowIterationCap;
  options.maxIterations = sizes.convergeCap;
  serve::ServeOptions::ResizeOp grow;
  grow.window = sizes.windows / 3;
  grow.grow = sizes.growBy;
  serve::ServeOptions::ResizeOp shrink;
  shrink.window = 2 * sizes.windows / 3;
  for (std::size_t p = sizes.shrinkTo; p < sizes.k + sizes.growBy; ++p) {
    shrink.shrink.push_back(static_cast<graph::PartitionId>(p));
  }
  options.resizes = {grow, shrink};
  options.checkpointDir = checkpointDir;
  options.checkpointEvery = 1;
  serve::FaultSpec crash;
  crash.kind = serve::FaultSpec::Kind::kCrashBeforeSwap;
  crash.window = sizes.windows - 1;
  options.faults.add(crash);
  return options;
}

// ---------------------------------------------------------------- readers

/// One reader thread's record. Untraced, each bundle is timed as a whole;
/// traced, each call of the bundle is timed on its own. A histogram takes
/// memory only once a sample is added, so the untraced run holds one.
struct ReaderLog {
  NsHistogram bundleNs;
  NsHistogram currentNs, partitionOfNs, routeCostNs, cutDegreeNs, neighborsNs;
  std::uint64_t bundles = 0;
  std::uint64_t failed = 0;
  std::uint64_t lagSum = 0;  ///< published epoch minus the epoch in hand
  std::vector<double> firstSeen;  ///< by epoch, seconds since the origin
  std::uint64_t sink = 0;
};

std::uint64_t nsBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// The serve_latency bundle — current(), partitionOf, routeCost, cutDegree,
/// neighbors — over a deterministic id walk, checked on every bundle.
void readerLoop(const serve::SnapshotBoard& board, const std::atomic<bool>& stop,
                bool perCall, Clock::time_point origin, std::size_t start,
                ReaderLog& log) {
  std::uint64_t lastEpoch = 0;
  std::uint64_t local = 0;
  auto v = static_cast<graph::VertexId>(start);
  while (!stop.load(std::memory_order_acquire)) {
    ReaderObservation seen;
    // Untraced, only t0 and t5 are read, as serve_latency times its bundle.
    Clock::time_point t1, t2, t3, t4;
    const Clock::time_point t0 = Clock::now();
    const serve::SnapshotBoard::Ref snap = board.current();
    if (perCall) t1 = Clock::now();
    if (!snap || snap->idBound() == 0) continue;
    const auto bound = static_cast<graph::VertexId>(snap->idBound());
    v = static_cast<graph::VertexId>((v + 1) % bound);
    const auto u = static_cast<graph::VertexId>((v * 7 + 3) % bound);
    seen.partitionOfV = snap->partitionOf(v);
    if (perCall) t2 = Clock::now();
    seen.routeCost = snap->routeCost(u, v);
    if (perCall) t3 = Clock::now();
    seen.cutDegree = snap->cutDegree(v);
    if (perCall) t4 = Clock::now();
    for (const graph::VertexId nbr : snap->neighbors(v)) {
      seen.maxNeighbor = std::max(seen.maxNeighbor, nbr);
      ++seen.degree;
    }
    const Clock::time_point t5 = Clock::now();
    if (perCall) {
      log.currentNs.add(nsBetween(t0, t1));
      log.partitionOfNs.add(nsBetween(t1, t2));
      log.routeCostNs.add(nsBetween(t2, t3));
      log.cutDegreeNs.add(nsBetween(t3, t4));
      log.neighborsNs.add(nsBetween(t4, t5));
      // The board stores its epoch after the snapshot, so a reader may hold
      // a snapshot newer than the epoch it reads back; that is no lag.
      const std::uint64_t published = board.publishedEpoch();
      log.lagSum += published > snap->epoch() ? published - snap->epoch() : 0;
    } else {
      log.bundleNs.add(nsBetween(t0, t5));
    }
    ++log.bundles;
    seen.epoch = snap->epoch();
    seen.epochTail = snap->epochTail();
    seen.k = snap->k();
    seen.idBound = snap->idBound();
    seen.hasV = snap->hasVertex(v);
    if (!readerBundleOk(seen, lastEpoch)) ++log.failed;
    if (seen.epoch < log.firstSeen.size() &&
        log.firstSeen[seen.epoch] == std::numeric_limits<double>::infinity()) {
      log.firstSeen[seen.epoch] = std::chrono::duration<double>(t0 - origin).count();
    }
    local += seen.partitionOfV + seen.cutDegree + seen.maxNeighbor;
  }
  log.sink = local;
}

/// Two reader threads over one board; stopped and joined on destruction,
/// so no exit path leaves them running.
class Readers {
 public:
  Readers(const serve::SnapshotBoard& board, bool perCall, Clock::time_point origin,
          std::size_t epochs)
      : logs_(2) {
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      logs_[i].firstSeen.assign(epochs, std::numeric_limits<double>::infinity());
    }
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      threads_.emplace_back(readerLoop, std::cref(board), std::cref(stop_), perCall,
                            origin, i * 7919, std::ref(logs_[i]));
    }
  }
  Readers(const Readers&) = delete;
  Readers& operator=(const Readers&) = delete;
  ~Readers() { stop(); }

  void stop() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }
  /// Valid after stop().
  [[nodiscard]] const std::vector<ReaderLog>& logs() const noexcept { return logs_; }

 private:
  std::atomic<bool> stop_{false};
  std::vector<ReaderLog> logs_;
  std::vector<std::thread> threads_;
};

// ------------------------------------------------------------ checkpoints

std::size_t directoryBytes(const std::string& dir) {
  std::size_t bytes = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

/// The checkpoint PartitionService::makeCheckpoint writes, rebuilt from
/// the traced loop's own state.
serve::Checkpoint checkpointOf(const api::Session& session,
                               const serve::ServeOptions& options,
                               const std::vector<graph::UpdateEvent>& events,
                               const std::vector<api::WindowReport>& timeline,
                               std::size_t nextWindow) {
  const core::Engine& engine = session.engine();
  const core::AdaptiveOptions& adaptive = engine.options();
  serve::Checkpoint checkpoint;
  checkpoint.workload = "CHURN";
  checkpoint.strategy = "HSH";
  checkpoint.k = engine.k();
  checkpoint.engine = engine.kind();
  checkpoint.retired = engine.retiredPartitions();
  checkpoint.lpaBalanceFactor = adaptive.lpaBalanceFactor;
  checkpoint.lpaScoreEpsilon = adaptive.lpaScoreEpsilon;
  checkpoint.lpaMigrationBudget = adaptive.lpaMigrationBudget;
  checkpoint.seed = adaptive.seed;
  checkpoint.capacityFactor = adaptive.capacityFactor;
  checkpoint.willingness = adaptive.willingness;
  checkpoint.convergenceWindow = adaptive.convergenceWindow;
  checkpoint.enforceQuota = adaptive.enforceQuota;
  checkpoint.balanceMode = adaptive.balanceMode;
  checkpoint.maxIterations = options.maxIterations;
  checkpoint.stream = options.stream;
  checkpoint.nextWindow = nextWindow;
  checkpoint.graph = engine.graph();
  checkpoint.assignment = engine.state().assignment();
  checkpoint.engineIteration = engine.iteration();
  checkpoint.engineQuiet = engine.quietIterations();
  checkpoint.engineLastActive = engine.lastActiveIteration();
  checkpoint.capacities = engine.capacity().capacities();
  checkpoint.events = events;
  checkpoint.timeline = timeline;
  return checkpoint;
}

}  // namespace

RunResult runServeElastic(const RunConfig& config) {
  const Sizes sizes = sizesFor(config);
  RunResult result;
  const std::string dir = config.scratchDir + "/serve-checkpoint";
  const std::string pristine = config.scratchDir + "/serve-checkpoint-crashed";
  fs::remove_all(dir);
  fs::remove_all(pristine);
  fs::create_directories(dir);

  // ---- set-up, several times: generate, partition, construct, converge.
  // The traced loop publishes to its own board, as the service's
  // constructor does: epoch 1 is the starting state, before convergence.
  const core::AdaptiveOptions adaptive = adaptiveOptions(sizes);
  serve::ServeOptions options;
  std::vector<graph::UpdateEvent> events;
  std::optional<serve::PartitionService> service;
  std::optional<api::Session> tracedSession;
  std::optional<serve::SnapshotBuilder> builder;
  std::optional<serve::SnapshotBoard> tracedBoard;
  std::uint64_t epoch = 0;
  std::vector<double> setupS, genS, partitionS, startS, adaptS;
  Clock::time_point t;
  for (std::size_t i = 0; i < sizes.setups; ++i) {
    service.reset();
    tracedSession.reset();
    builder.emplace();
    tracedBoard.emplace();
    epoch = 0;
    t = Clock::now();
    api::Workload workload = api::WorkloadRegistry::instance().make(
        "CHURN", workloadConfig(sizes, config.seed));
    genS.push_back(secondsSince(t));
    // The traced loop streams its own copy of the events and writes them
    // into its checkpoints; the untraced run leaves them to the service.
    if (config.trace) events = workload.stream.events();
    options = serveOptions(sizes, workload, dir);
    double partition = 0.0;
    t = Clock::now();
    if (!config.trace) {
      service.emplace(std::move(workload), "HSH", adaptive, options);
    } else {
      metrics::Assignment initial = api::initialAssignment(
          workload.initial, "HSH", adaptive.k, adaptive.capacityFactor, adaptive.seed);
      partition = secondsSince(t);
      t = Clock::now();
      tracedSession.emplace(api::Pipeline::fromGraph(std::move(workload.initial))
                                .initialFromAssignment(std::move(initial), adaptive.k)
                                .k(adaptive.k)
                                .capacityFactor(adaptive.capacityFactor)
                                .seed(adaptive.seed)
                                .adaptive(adaptive)
                                .maxIterations(options.maxIterations)
                                .start());
      const core::Engine& fresh = tracedSession->engine();
      tracedBoard->publish(builder->build(++epoch, fresh.graph(),
                                          fresh.state().assignment(), fresh.k(),
                                          serve::SnapshotStats{}));
    }
    const double construct = secondsSince(t);
    api::Session& fresh = config.trace ? *tracedSession : service->session();
    t = Clock::now();
    (void)fresh.runToConvergence();
    adaptS.push_back(secondsSince(t));
    partitionS.push_back(partition);
    startS.push_back(construct + adaptS.back());
    setupS.push_back(genS.back() + partition + startS.back());
  }
  api::Session& session = config.trace ? *tracedSession : service->session();
  core::Engine& engine = session.engine();
  const serve::SnapshotBoard& board = config.trace ? *tracedBoard : service->board();
  const std::size_t adaptMigrations = engine.totalMigrations();

  OpCount& windowOps = result.ops["windows"];
  OpCount& eventOps = result.ops["events"];
  OpCount& queryOps = result.ops["queries"];
  std::vector<double> nextUs, applyUs, rescaleUs, stepUs, stepsPerWindow,
      stepMsPerWindow, migrationsPerWindow, drainUs, buildUs, compactMs, publishUs, checkpointMs,
      checkpointMb, resizeUs, windowMs, unaccountedUs, cutRatios, imbalances;
  std::size_t cappedWindows = 0;
  std::size_t compactions = 0;
  std::size_t drainWindows = 0;
  bool capacityHeld = true;
  bool crashed = false;

  const Clock::time_point origin = Clock::now();
  Readers readers(board, config.trace, origin, sizes.windows + 2);
  double runS = 0.0;
  if (!config.trace) {
    t = Clock::now();
    try {
      (void)service->run();
    } catch (const serve::InjectedCrash&) {
      crashed = true;
    }
    runS = secondsSince(t);
  } else {
    auto* lpa = dynamic_cast<lpa::LpaEngine*>(&engine);
    std::vector<api::WindowReport> timeline;
    std::vector<std::uint8_t> resizeApplied(options.resizes.size(), 0);
    bool draining = false;
    api::Streamer streamer(graph::UpdateStream(events), options.stream);
    for (;;) {
      const Clock::time_point windowStart = Clock::now();
      std::optional<api::WindowBatch> batch = streamer.next();
      if (!batch) break;
      double layerS = secondsSince(windowStart);
      nextUs.push_back(layerS * 1e6);
      for (std::size_t i = 0; i < options.resizes.size(); ++i) {
        const serve::ServeOptions::ResizeOp& op = options.resizes[i];
        if (op.window != batch->index || resizeApplied[i] != 0) continue;
        resizeApplied[i] = 1;
        t = Clock::now();
        if (op.grow > 0) (void)engine.growPartitions(op.grow);
        if (!op.shrink.empty()) {
          (void)engine.shrinkPartitions(op.shrink);
          draining = true;
        }
        resizeUs.push_back(secondsSince(t) * 1e6);
        layerS += resizeUs.back() / 1e6;
      }
      const Clock::time_point reportStart = Clock::now();
      api::WindowReport w;
      w.index = batch->index;
      w.start = batch->start;
      w.end = batch->end;
      w.eventsDrained = batch->drained;
      w.eventsExpired = batch->expired;
      const std::size_t migrationsBefore = engine.totalMigrations();
      t = Clock::now();
      w.eventsApplied = session.applyUpdates(batch->events);
      applyUs.push_back(secondsSince(t) * 1e6);
      t = Clock::now();
      engine.rescaleCapacity();
      rescaleUs.push_back(secondsSince(t) * 1e6);
      std::size_t steps = 0;
      double windowStepUs = 0.0;
      while (!engine.converged() && steps < options.stream.maxIterationsPerWindow) {
        t = Clock::now();
        (void)engine.step();
        stepUs.push_back(secondsSince(t) * 1e6);
        windowStepUs += stepUs.back();
        ++steps;
      }
      layerS += windowStepUs / 1e6;
      stepMsPerWindow.push_back(windowStepUs / 1e3);
      stepsPerWindow.push_back(static_cast<double>(steps));
      cappedWindows += engine.converged() ? 0 : 1;
      w.iterations = steps;
      w.converged = engine.converged();
      w.migrations = engine.totalMigrations() - migrationsBefore;
      w.vertices = engine.graph().numVertices();
      w.edges = engine.graph().numEdges();
      w.cutEdges = engine.state().cutEdges();
      w.cutRatio = engine.cutRatio();
      w.balance = metrics::balanceReport(engine.state(), engine.activeMask());
      t = Clock::now();
      core::TouchSet touched = engine.drainTouched();
      drainUs.push_back(secondsSince(t) * 1e6);
      w.wallSeconds = secondsSince(reportStart);
      migrationsPerWindow.push_back(static_cast<double>(w.migrations));
      if (draining) {
        ++drainWindows;
        draining = lpa->displacedCount() > 0;
      }
      capacityHeld = capacityHeld &&
                     withinCapacity(engine.state().loads(),
                                    engine.capacity().capacities(), engine.activeMask());
      layerS += (applyUs.back() + rescaleUs.back() + drainUs.back()) / 1e6;
      t = Clock::now();
      builder->note(touched);
      layerS += secondsSince(t);
      ++windowOps.attempted;
      eventOps.attempted += batch->drained;
      if (batch->index == sizes.windows - 1) {  // the injected crash
        crashed = true;
        break;
      }
      timeline.push_back(w);
      serve::SnapshotStats stats;
      stats.window = batch->index + 1;
      stats.activeK = engine.activeK();
      stats.cutEdges = w.cutEdges;
      stats.cutRatio = w.cutRatio;
      t = Clock::now();
      serve::AssignmentSnapshot snapshot = builder->build(
          ++epoch, engine.graph(), engine.state().assignment(), engine.k(), stats);
      const double buildS = secondsSince(t);
      if (builder->lastBuildCompacted()) {
        ++compactions;
        compactMs.push_back(buildS * 1e3);
      } else {
        buildUs.push_back(buildS * 1e6);
      }
      t = Clock::now();
      tracedBoard->publish(std::move(snapshot));
      publishUs.push_back(secondsSince(t) * 1e6);
      t = Clock::now();
      serve::writeCheckpoint(
          checkpointOf(session, options, events, timeline, batch->index + 1), dir);
      checkpointMs.push_back(secondsSince(t) * 1e3);
      checkpointMb.push_back(static_cast<double>(directoryBytes(dir)) / 1e6);
      layerS += buildS + publishUs.back() / 1e6 + checkpointMs.back() / 1e3;
      const double windowS = secondsSince(windowStart);
      windowMs.push_back(windowS * 1e3);
      unaccountedUs.push_back((windowS - layerS) * 1e6);
    }
  }
  readers.stop();
  result.check(crashed, "the injected crash did not fire");
  const GraphMemory finalMemory = graphMemory(engine.graph());
  // A real crash ends the process that ran the service: free it (or the
  // traced loop's session) before restoring, so the recovery's memory is
  // not counted on top of it in peak_rss_mb.
  service.reset();
  tracedSession.reset();

  // ---- reads
  NsHistogram bundleNs, currentNs, partitionOfNs, routeCostNs, cutDegreeNs, neighborsNs;
  std::uint64_t bundles = 0, lagSum = 0;
  std::vector<double> firstSeen(sizes.windows + 2,
                                std::numeric_limits<double>::infinity());
  for (const ReaderLog& log : readers.logs()) {
    bundleNs.merge(log.bundleNs);
    currentNs.merge(log.currentNs);
    partitionOfNs.merge(log.partitionOfNs);
    routeCostNs.merge(log.routeCostNs);
    cutDegreeNs.merge(log.cutDegreeNs);
    neighborsNs.merge(log.neighborsNs);
    bundles += log.bundles;
    lagSum += log.lagSum;
    queryOps.attempted += 4 * log.bundles;
    queryOps.failed += log.failed;
    for (std::size_t e = 0; e < firstSeen.size(); ++e) {
      firstSeen[e] = std::min(firstSeen[e], log.firstSeen[e]);
    }
  }
  result.check(queryOps.failed == 0,
               "a reader saw a torn snapshot, a regressing epoch or a bad answer");

  // ---- crash recovery, several times from a copy of the crashed state.
  fs::copy(dir, pristine);
  std::vector<double> recoverS, readS, restoreS, replayS;
  std::optional<Fingerprint> recovered;
  for (std::size_t i = 0; i < sizes.recoveries; ++i) {
    fs::remove_all(dir);
    fs::copy(pristine, dir);
    if (config.trace) {
      t = Clock::now();
      (void)serve::readCheckpoint(dir);
      readS.push_back(secondsSince(t));
    }
    t = Clock::now();
    serve::PartitionService restored = serve::PartitionService::restore(dir);
    restoreS.push_back(secondsSince(t));
    t = Clock::now();
    const api::TimelineReport& timeline = restored.run();
    replayS.push_back(secondsSince(t));
    recoverS.push_back(restoreS.back() + replayS.back());

    const core::Engine& final = restored.session().engine();
    std::size_t migrations = adaptMigrations;
    for (const api::WindowReport& w : timeline.windows) migrations += w.migrations;
    const Fingerprint fp{assignmentHash(final.state().assignment()),
                         final.state().cutEdges(), migrations};
    result.check(!recovered || *recovered == fp, "recoveries ended in different states");
    recovered = fp;
    if (i + 1 < sizes.recoveries) continue;

    // Checks on the final, recovered state. The replay set is built only
    // now, after the peak RSS is read, so it does not count in peak_rss_mb:
    // the generator is deterministic, so the same seed yields the same
    // initial graph and event list the service streamed.
    const double peakRssMb = static_cast<double>(xdgp::bench::PeakRss()) / 1e6;
    result.check(timeline.windows.size() == sizes.windows,
                 "the recovered timeline is missing windows");
    {
      const api::Workload inputs = api::WorkloadRegistry::instance().make(
          "CHURN", workloadConfig(sizes, config.seed));
      const EdgeReplay replay(inputs.initial, inputs.stream.events());
      result.check(replay.matches(final.graph()),
                   "final graph differs from the replay of the event list");
    }
    bool retiredEmpty = !final.retiredPartitions().empty();
    for (const graph::PartitionId p : final.retiredPartitions()) {
      retiredEmpty = retiredEmpty && final.state().load(p) == 0;
    }
    result.check(retiredEmpty, "a retired partition still holds vertices");
    result.check(capacityHeld && withinCapacity(final.state().loads(),
                                                final.capacity().capacities(),
                                                final.activeMask()),
                 "an active partition exceeded its capacity");
    result.check(recountCut(final.graph(), final.state().assignment()) ==
                     final.state().cutEdges(),
                 "recounted cut edges differ from the engine's count");
    result.fingerprint = fp;
    if (!config.trace) {
      // Quality and per-window figures of the uninterrupted windows.
      const std::vector<api::WindowReport>& rows = timeline.windows;
      double drained = 0.0, seconds = 0.0;
      for (std::size_t w = 0; w + 1 < rows.size(); ++w) {
        windowOps.attempted += 1;
        eventOps.attempted += rows[w].eventsDrained;
        cutRatios.push_back(rows[w].cutRatio);
        imbalances.push_back(rows[w].balance.imbalance);
        // Window w is published as epoch w + 2; window 0 starts at origin.
        const double from = w == 0 ? 0.0 : firstSeen[w + 1];
        const double to = firstSeen[w + 2];
        if (std::isfinite(from) && std::isfinite(to)) {
          windowMs.push_back((to - from) * 1e3);
          drained += static_cast<double>(rows[w].eventsDrained);
          seconds += to - from;
        }
      }
      windowOps.attempted += 1;  // the crashed window, replayed on recovery
      eventOps.attempted += rows.back().eventsDrained;
      result.check(windowMs.size() + 10 >= rows.size(),
                   "readers missed too many publications to time the windows");
      result.e2e("setup_s", median(setupS), "s");
      result.e2e("churn_eps", drained / seconds, "events/s");
      result.e2e("window_p90_ms", percentile(windowMs, 0.90), "ms");
      result.e2e("cut_ratio", mean(cutRatios), "ratio");
      result.e2e("imbalance", mean(imbalances), "ratio");
      result.e2e("peak_rss_mb", peakRssMb, "MB");
      result.info("adapt_s", median(adaptS), "s");
      result.info("recover_s", median(recoverS), "s");
      // Checkpoint writes run in fast and slow phases of several windows
      // (~70 and ~115 ms on ext4), so the median window falls between two
      // populations and moves with their mix.
      result.info("window_p50_ms", percentile(windowMs, 0.50), "ms");
      // Both readers take the board's std::atomic<std::shared_ptr> on every
      // bundle, and how often they collide moves the bundle median by
      // 20-40 % from seed to seed; the tail repeats.
      result.info("query_p50_ns", bundleNs.percentile(0.50) / 4.0, "ns");
      result.info("query_p99_ns", bundleNs.percentile(0.99) / 4.0, "ns");
      result.info("query_qps", static_cast<double>(queryOps.attempted) / runS,
                  "queries/s");
    }
  }
  fs::remove_all(dir);
  fs::remove_all(pristine);

  if (config.trace) {
    result.layer("gen.input_s", median(genS), "s");
    result.layer("partition.initial_s", median(partitionS), "s");
    result.layer("engine.start_s", median(startS), "s");
    result.layer("api.next_us", median(nextUs), "us");
    result.layer("engine.apply_us", median(applyUs), "us");
    result.layer("engine.step_us", mean(stepUs), "us");
    result.layer("engine.steps_per_window", mean(stepsPerWindow), "count");
    result.layer("engine.step_ms_per_window", median(stepMsPerWindow), "ms");
    result.layer("engine.migrations_per_window", mean(migrationsPerWindow), "count");
    result.layer("graph.memory_mb", finalMemory.totalMb, "MB");
    result.layer("graph.arena_slack_mb", finalMemory.slackMb, "MB");
    result.layer("trace.window_ms", median(windowMs), "ms");
    result.layer("trace.unaccounted_us", median(unaccountedUs), "us");

    result.info("lpa.adapt_s", median(adaptS), "s");
    result.info("lpa.rescale_us", median(rescaleUs), "us");
    result.info("lpa.capped_windows", static_cast<double>(cappedWindows), "count");
    result.info("lpa.resize_us", mean(resizeUs), "us");
    result.info("lpa.drain_windows", static_cast<double>(drainWindows), "count");
    result.info("lpa.drain_us", median(drainUs), "us");
    result.info("serve.build_us", median(buildUs), "us");
    result.info("serve.compact_ms", median(compactMs), "ms");
    result.info("serve.compactions", static_cast<double>(compactions), "count");
    result.info("serve.board_publish_us", median(publishUs), "us");
    result.info("serve.checkpoint_ms", median(checkpointMs), "ms");
    result.info("serve.checkpoint_mb", median(checkpointMb), "MB");
    result.info("serve.read_checkpoint_s", median(readS), "s");
    result.info("serve.restore_s", median(restoreS), "s");
    result.info("serve.replay_s", median(replayS), "s");
    result.info("serve.recover_s", median(recoverS), "s");
    result.info("serve.current_ns", currentNs.percentile(0.5), "ns");
    result.info("serve.partition_of_ns", partitionOfNs.percentile(0.5), "ns");
    result.info("serve.route_cost_ns", routeCostNs.percentile(0.5), "ns");
    result.info("serve.cut_degree_ns", cutDegreeNs.percentile(0.5), "ns");
    result.info("serve.neighbors_ns", neighborsNs.percentile(0.5), "ns");
    result.info("serve.epoch_lag",
                static_cast<double>(lagSum) /
                    static_cast<double>(std::max<std::uint64_t>(1, bundles)),
                "epochs");
  }
  return result;
}

}  // namespace churnbench
