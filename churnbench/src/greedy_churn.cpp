// greedy-churn: the write path at scale. A ~1M-vertex power-law graph
// (the plawp family of bench/scale_decades), HSH initial partitioning,
// k = 9, the greedy engine on two decision threads, converged before the
// stream starts. Then count windows of hub-biased edge remove/re-add
// events go through Session::streamWindow, each followed by a delta
// publish to a SnapshotBoard. No readers.
//
// Set-up runs three times and setup_s is the median: inputs generated,
// graph built, initial partitioning, session constructed and converged.
// Convergence counts as set-up because pregel-tweet has none, and every
// workload reports the same end-to-end metrics; its own time is printed
// as the adapt_s metric line.
//
// The graph is the same in every run: it comes from bench/scale_decades'
// default seed, 42, and --seed drives only the churn. Across graph seeds
// the converged state parks between 3.8k and 8.5k quota-starved vertices,
// which every window re-evaluates, so window time would follow the graph
// seed more than any change to the program.
//
// The traced run makes the calls streamWindow makes one by one
// (applyUpdates, rescaleCapacity, step until converged or capped,
// drainTouched) so each layer is timed on its own, and reads the greedy
// engine's evaluation and parking counters.

#include <cmath>
#include <optional>
#include <utility>

#include "api/partitioner_registry.h"
#include "api/pipeline.h"
#include "api/stream.h"
#include "bench_common.h"
#include "checks.h"
#include "common.h"
#include "core/adaptive_engine.h"
#include "gen/parallel.h"
#include "serve/snapshot.h"
#include "serve/snapshot_builder.h"

namespace churnbench {

namespace {

using namespace xdgp;

struct Sizes {
  std::size_t vertices = 1'000'000;
  std::size_t k = 9;
  std::size_t threads = 2;  ///< decision threads, and the generator's cap
  std::size_t windowEvents = 10'000;
  std::size_t windows = 100;
  std::size_t throughputBlock = 30;  ///< windows per churn_eps block
  std::size_t setups = 3;  ///< set-ups per run; setup_s is their median
  std::size_t convergeCap = 200;
  std::size_t windowIterationCap = 50;
  std::uint64_t graphSeed = 42;
};

Sizes sizesFor(const RunConfig& config) {
  Sizes sizes;
  if (config.scale == Scale::kSmall) {
    sizes.vertices = 20'000;
    sizes.windowEvents = 1'000;
    sizes.windows = 12;
    sizes.setups = 1;
    sizes.throughputBlock = 4;
  } else {
    // About 24 windows per second of --seconds, never fewer than 100 so
    // the p90 has ten windows beyond it.
    sizes.windows = std::max<std::size_t>(
        100, static_cast<std::size_t>(std::llround(config.seconds * 24.0)));
  }
  if (config.threads > 0) sizes.threads = config.threads;
  return sizes;
}

/// The plawp parameterisation of bench/scale_decades: D = log2 |V|,
/// m = D / 2 edges per new vertex, triad probability 0.1.
graph::DynamicGraph makeGraph(std::size_t n, std::uint64_t seed,
                              std::size_t threads) {
  const auto m = static_cast<std::size_t>(
      std::max(2.0, std::round(std::log2(static_cast<double>(n)) / 2.0)));
  return gen::powerlawClusterParallel(n, m, 0.1, seed, threads);
}

/// Hub-biased churn: pick a vertex uniformly, then a uniform neighbour of
/// it (which lands on hubs in proportion to their degree), remove the edge
/// and re-add it. Every pair restores the edge it removed, so the edge set
/// after any whole number of pairs equals the initial one.
std::vector<graph::UpdateEvent> makeChurn(const graph::DynamicGraph& g,
                                          std::size_t events,
                                          std::uint64_t seed) {
  std::vector<graph::UpdateEvent> out;
  out.reserve(events);
  const std::size_t bound = g.idBound();
  double ts = 0.0;
  for (std::uint64_t i = 0; out.size() + 1 < events; ++i) {
    const auto u = static_cast<graph::VertexId>(
        util::Rng::splitmix64(seed ^ (0x51ed2701afed6a3bULL + i)) % bound);
    const auto nbrs = g.neighbors(u);
    if (nbrs.empty()) continue;
    const graph::VertexId v =
        nbrs[util::Rng::splitmix64(seed ^ (0xd6e8feb86659fd93ULL + i)) %
             nbrs.size()];
    out.push_back(graph::UpdateEvent::removeEdge(u, v, ts));
    out.push_back(graph::UpdateEvent::addEdge(u, v, ts + 1.0));
    ts += 2.0;
  }
  return out;
}

struct Setup {
  std::optional<api::Session> session;
  std::vector<graph::UpdateEvent> churn;
  EdgeSetHash initialEdges;
  core::ConvergenceResult adapted;
  double genGraph = 0.0;
  double genStream = 0.0;
  double partition = 0.0;
  double construct = 0.0;
  double adapt = 0.0;
  [[nodiscard]] double total() const {
    return genGraph + genStream + partition + construct + adapt;
  }
};

Setup setUp(const Sizes& sizes, std::uint64_t seed) {
  Setup setup;
  Clock::time_point t = Clock::now();
  graph::DynamicGraph g = makeGraph(sizes.vertices, sizes.graphSeed, sizes.threads);
  setup.genGraph = secondsSince(t);

  t = Clock::now();
  setup.churn = makeChurn(g, sizes.windows * sizes.windowEvents, seed);
  setup.genStream = secondsSince(t);

  setup.initialEdges = edgeSetHash(g);  // check bookkeeping, not timed

  t = Clock::now();
  metrics::Assignment initial =
      api::initialAssignment(g, "HSH", sizes.k, 1.1, /*seed=*/42);
  setup.partition = secondsSince(t);

  t = Clock::now();
  core::AdaptiveOptions options;
  options.k = sizes.k;
  options.threads = sizes.threads;
  setup.session.emplace(api::Pipeline::fromGraph(std::move(g))
                            .initialFromAssignment(std::move(initial), sizes.k)
                            .k(sizes.k)
                            .adaptive(options)
                            .maxIterations(sizes.convergeCap)
                            .start());
  setup.construct = secondsSince(t);

  t = Clock::now();
  setup.adapted = setup.session->runToConvergence();
  setup.adapt = secondsSince(t);
  return setup;
}

}  // namespace

RunResult runGreedyChurn(const RunConfig& config) {
  const Sizes sizes = sizesFor(config);
  RunResult result;

  // Set up several times and keep the last: setup_s is the median.
  std::vector<double> setupS, genS, genGraphS, partitionS, startS, adaptS;
  Setup setup;
  for (std::size_t i = 0; i < sizes.setups; ++i) {
    setup = Setup{};
    setup = setUp(sizes, config.seed);
    setupS.push_back(setup.total());
    genS.push_back(setup.genGraph + setup.genStream);
    genGraphS.push_back(setup.genGraph);
    partitionS.push_back(setup.partition);
    startS.push_back(setup.construct + setup.adapt);
    adaptS.push_back(setup.adapt);
  }
  api::Session& session = *setup.session;
  core::Engine& engine = session.engine();
  Clock::time_point t;

  // Cold publish of the converged state (the first build always compacts),
  // outside every timer: windows then publish deltas against its base.
  serve::SnapshotBuilder builder;
  serve::SnapshotBoard board;
  std::uint64_t epoch = 0;
  (void)engine.drainTouched();
  board.publish(builder.build(++epoch, engine.graph(), engine.state().assignment(),
                              engine.k(), serve::SnapshotStats{}));

  api::StreamOptions streamOptions;
  streamOptions.windowEvents = sizes.windowEvents;
  streamOptions.maxIterationsPerWindow = sizes.windowIterationCap;
  api::Streamer streamer(graph::UpdateStream(std::move(setup.churn)),
                         streamOptions);

  auto* greedy = config.trace ? dynamic_cast<core::AdaptiveEngine*>(&engine)
                              : nullptr;
  OpCount& events = result.ops["events"];
  OpCount& windows = result.ops["windows"];
  std::vector<double> windowMs, cutRatios, imbalances;
  std::vector<double> nextUs, applyUs, rescaleUs, stepUs, stepMsPerWindow,
      stepsPerWindow, evaluated, parked, migrationsPerWindow, touchedPerWindow,
      drainUs, buildUs, compactMs, overlayEntries, residentBytes, publishUs,
      unaccountedUs;
  std::size_t compactions = 0;
  std::size_t migrationsTotal = 0;
  std::size_t evaluatedTotal = 0;
  bool capacityHeld = true;
  std::vector<double> drainedPerWindow, windowSeconds;

  for (;;) {
    const Clock::time_point windowStart = Clock::now();
    std::optional<api::WindowBatch> batch = streamer.next();
    if (!batch) break;
    const double nextS = secondsSince(windowStart);
    ++windows.attempted;
    events.attempted += batch->drained;
    const std::size_t migrationsBefore = engine.totalMigrations();
    core::TouchSet touched;
    double layerS = nextS;
    try {
      if (!config.trace) {
        (void)session.streamWindow(*batch, streamOptions, &touched);
      } else {
        t = Clock::now();
        (void)session.applyUpdates(batch->events);
        applyUs.push_back(secondsSince(t) * 1e6);
        t = Clock::now();
        engine.rescaleCapacity();
        rescaleUs.push_back(secondsSince(t) * 1e6);
        std::size_t steps = 0;
        std::size_t windowEvaluated = 0;
        while (!engine.converged() && steps < sizes.windowIterationCap) {
          t = Clock::now();
          (void)engine.step();
          stepUs.push_back(secondsSince(t) * 1e6);
          ++steps;
          windowEvaluated += greedy->lastEvaluatedCount();
        }
        stepsPerWindow.push_back(static_cast<double>(steps));
        evaluated.push_back(static_cast<double>(windowEvaluated));
        evaluatedTotal += windowEvaluated;
        parked.push_back(static_cast<double>(greedy->parkedCount()));
        t = Clock::now();
        touched = engine.drainTouched();
        drainUs.push_back(secondsSince(t) * 1e6);
        touchedPerWindow.push_back(
            static_cast<double>(touched.adjacency.size() + touched.assignment.size()));
        double windowStepUs = 0.0;
        for (std::size_t i = stepUs.size() - steps; i < stepUs.size(); ++i) {
          windowStepUs += stepUs[i];
        }
        stepMsPerWindow.push_back(windowStepUs / 1e3);
        layerS +=
            (applyUs.back() + rescaleUs.back() + windowStepUs + drainUs.back()) / 1e6;
      }
    } catch (const std::exception& error) {
      ++windows.failed;
      events.failed += batch->drained;
      result.check(false, std::string("window threw: ") + error.what());
      break;
    }
    t = Clock::now();
    builder.note(touched);
    serve::SnapshotStats stats;
    stats.window = batch->index + 1;
    stats.cutEdges = engine.state().cutEdges();
    serve::AssignmentSnapshot snapshot = builder.build(
        ++epoch, engine.graph(), engine.state().assignment(), engine.k(), stats);
    const double buildS = secondsSince(t);
    const bool compacted = builder.lastBuildCompacted();
    const std::size_t resident = snapshot.stats().residentBytes;
    t = Clock::now();
    board.publish(std::move(snapshot));
    const double publishS = secondsSince(t);
    const double windowS = secondsSince(windowStart);

    windowMs.push_back(windowS * 1e3);
    drainedPerWindow.push_back(static_cast<double>(batch->drained));
    windowSeconds.push_back(windowS);
    const std::size_t moved = engine.totalMigrations() - migrationsBefore;
    migrationsTotal += moved;
    cutRatios.push_back(engine.cutRatio());
    imbalances.push_back(imbalanceOf(engine.state().loads(), engine.activeMask()));
    capacityHeld = capacityHeld &&
                   withinCapacity(engine.state().loads(),
                                  engine.capacity().capacities(), engine.activeMask());
    compactions += compacted ? 1 : 0;
    if (config.trace) {
      nextUs.push_back(nextS * 1e6);
      migrationsPerWindow.push_back(static_cast<double>(moved));
      (compacted ? compactMs : buildUs).push_back(compacted ? buildS * 1e3
                                                            : buildS * 1e6);
      overlayEntries.push_back(static_cast<double>(builder.pendingOverlay()));
      residentBytes.push_back(static_cast<double>(resident));
      publishUs.push_back(publishS * 1e6);
      layerS += buildS + publishS;
      unaccountedUs.push_back((windowS - layerS) * 1e6);
    }
  }

  // ---- correctness
  const serve::SnapshotBoard::Ref last = board.current();
  result.check(edgeSetHash(engine.graph()) == setup.initialEdges,
               "final edge set differs from the initial one");
  result.check(recountCut(engine.graph(), engine.state().assignment()) ==
                   engine.state().cutEdges(),
               "recounted cut edges differ from the engine's count");
  result.check(snapshotCutEdges(*last) == engine.state().cutEdges(),
               "final snapshot's cut edges differ from the engine's count");
  result.check(capacityHeld, "an active partition exceeded its capacity");
  result.check(snapshotMatches(*last, engine.graph(), engine.state().assignment()),
               "final snapshot disagrees with the engine");

  result.fingerprint = {assignmentHash(engine.state().assignment()),
                        engine.state().cutEdges(), engine.totalMigrations()};

  // ---- end-to-end
  result.e2e("setup_s", median(setupS), "s");
  // A block of 30 windows holds five compaction cycles, so every block
  // carries the same load; the median over blocks lets a slow phase of the
  // host that lasts a block or two pass.
  result.e2e("churn_eps",
             blockMedianRate(drainedPerWindow, windowSeconds, sizes.throughputBlock),
             "events/s");
  result.e2e("window_p90_ms", percentile(windowMs, 0.90), "ms");
  result.e2e("cut_ratio", mean(cutRatios), "ratio");
  result.e2e("imbalance", mean(imbalances), "ratio");
  result.e2e("peak_rss_mb", static_cast<double>(xdgp::bench::PeakRss()) / 1e6, "MB");
  result.info("adapt_s", median(adaptS), "s");
  result.info("window_p50_ms", percentile(windowMs, 0.50), "ms");

  // ---- per layer
  if (config.trace) {
    const GraphMemory memory = graphMemory(engine.graph());
    result.layer("gen.input_s", median(genS), "s");
    result.layer("partition.initial_s", median(partitionS), "s");
    result.layer("engine.start_s", median(startS), "s");
    result.layer("api.next_us", median(nextUs), "us");
    result.layer("engine.apply_us", median(applyUs), "us");
    result.layer("engine.step_us", mean(stepUs), "us");
    result.layer("engine.steps_per_window", mean(stepsPerWindow), "count");
    result.layer("engine.step_ms_per_window", median(stepMsPerWindow), "ms");
    result.layer("engine.migrations_per_window", mean(migrationsPerWindow), "count");
    result.layer("graph.memory_mb", memory.totalMb, "MB");
    result.layer("graph.arena_slack_mb", memory.slackMb, "MB");
    result.layer("trace.window_ms", median(windowMs), "ms");
    result.layer("trace.unaccounted_us", median(unaccountedUs), "us");

    const double windowCount = static_cast<double>(windowMs.size());
    result.info("gen.graph_s", median(genGraphS), "s");
    result.info("core.rescale_us", median(rescaleUs), "us");
    result.info("core.evaluated_per_window", mean(evaluated), "count");
    result.info("core.parked", median(parked), "count");
    result.info("core.evals_per_migration",
                static_cast<double>(evaluatedTotal) /
                    static_cast<double>(std::max<std::size_t>(1, migrationsTotal)),
                "ratio");
    result.info("core.touched_per_window", mean(touchedPerWindow), "count");
    result.info("core.drain_us", median(drainUs), "us");
    result.info("core.adapt_steps", static_cast<double>(setup.adapted.iterationsRun),
                "count");
    result.info("core.memory_mb",
                static_cast<double>(engine.memoryReport().totalBytes()) / 1e6, "MB");
    result.info("serve.build_us", median(buildUs), "us");
    result.info("serve.compact_ms", median(compactMs), "ms");
    result.info("serve.compactions", static_cast<double>(compactions), "count");
    result.info("serve.compaction_share", static_cast<double>(compactions) / windowCount,
                "ratio");
    result.info("serve.overlay_entries", median(overlayEntries), "count");
    result.info("serve.resident_bytes", median(residentBytes), "bytes");
    result.info("serve.board_publish_us", median(publishUs), "us");
  }
  return result;
}

}  // namespace churnbench
