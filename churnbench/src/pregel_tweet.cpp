// pregel-tweet: compute, mailbox delivery, the barrier and deferred
// migration. The TWEET mention stream covers at least one simulated day in
// 10-minute windows with sliding expiry, feeding pregel::Engine<TunkRank>
// with the background partitioner on, a fixed number of supersteps per
// window, and two runtime threads. The engine is configured only through
// the EngineOptions fields numWorkers, adaptive, threads and
// capacityFactor.

#include <bit>
#include <cmath>
#include <optional>
#include <utility>

#include "api/partitioner_registry.h"
#include "api/stream.h"
#include "api/workload_registry.h"
#include "apps/tunkrank.h"
#include "bench_common.h"
#include "checks.h"
#include "common.h"
#include "pregel/engine.h"

namespace churnbench {

namespace {

using namespace xdgp;
using TunkRankEngine = pregel::Engine<apps::TunkRankProgram>;

struct Sizes {
  std::size_t users = 50'000;
  double rate = 5.0;  ///< mean tweets per second over the day
  std::size_t windows = 144;  ///< 10-minute windows: 144 is one day
  std::size_t k = 9;
  std::size_t threads = 2;
  std::size_t superstepsPerWindow = 4;
  std::size_t setups = 10;  ///< ~0.3 s each at --seconds 20: 3 s of set-up timed
};

Sizes sizesFor(const RunConfig& config) {
  Sizes sizes;
  if (config.scale == Scale::kSmall) {
    sizes.users = 2'000;
    sizes.rate = 1.0;
    sizes.windows = 18;
    sizes.setups = 1;
  } else {
    sizes.windows = std::max<std::size_t>(
        144, static_cast<std::size_t>(std::llround(config.seconds * 28.8)));
  }
  if (config.threads > 0) sizes.threads = config.threads;
  return sizes;
}

/// Folds every field of a superstep's stats (doubles by bit pattern) into
/// a running hash: equal histories hash equal, bit for bit.
std::uint64_t foldStats(std::uint64_t h, const pregel::SuperstepStats& s) {
  const std::uint64_t fields[] = {
      s.superstep, s.activeVertices, s.localMessages, s.remoteMessages,
      s.localMessageUnits, s.remoteMessageUnits, s.lostMessages,
      s.migrationsAnnounced, s.migrationsExecuted, s.mutationsApplied, s.cutEdges,
      std::bit_cast<std::uint64_t>(s.computeUnits),
      std::bit_cast<std::uint64_t>(s.maxWorkerComputeUnits),
      std::bit_cast<std::uint64_t>(s.aggregatedValue),
      std::bit_cast<std::uint64_t>(s.modeledTime)};
  for (const std::uint64_t f : fields) h = util::Rng::splitmix64(h ^ f);
  return h;
}

}  // namespace

RunResult runPregelTweet(const RunConfig& config) {
  const Sizes sizes = sizesFor(config);
  RunResult result;

  // ---- set-up, several times: generate, partition, construct.
  std::vector<double> setupS, genS, partitionS, constructS;
  std::optional<TunkRankEngine> engine;
  std::optional<api::Workload> workload;
  for (std::size_t i = 0; i < sizes.setups; ++i) {
    engine.reset();
    workload.reset();
    api::WorkloadConfig workloadConfig;
    workloadConfig.seed = config.seed;
    workloadConfig.overrides = {
        {"users", static_cast<double>(sizes.users)},
        {"rate", sizes.rate},
        {"hours", static_cast<double>(sizes.windows) / 6.0}};
    Clock::time_point t = Clock::now();
    workload.emplace(api::WorkloadRegistry::instance().make("TWEET", workloadConfig));
    genS.push_back(secondsSince(t));
    t = Clock::now();
    metrics::Assignment initial =
        api::initialAssignment(workload->initial, "HSH", sizes.k, 1.1, /*seed=*/42);
    partitionS.push_back(secondsSince(t));
    t = Clock::now();
    pregel::EngineOptions options;
    options.numWorkers = sizes.k;
    options.capacityFactor = 1.1;
    options.adaptive = true;
    options.threads = sizes.threads;
    engine.emplace(std::move(workload->initial), std::move(initial), options);
    constructS.push_back(secondsSince(t));
    setupS.push_back(genS.back() + partitionS.back() + constructS.back());
  }

  // Capacity as the method provisions it, ceil(1.1 |V| / k), recomputed
  // here; a partition the hash start already put above it may not grow.
  const std::vector<std::uint8_t> allActive(sizes.k, 1);
  const auto capacity = static_cast<std::size_t>(
      std::ceil(1.1 * static_cast<double>(engine->graph().numVertices()) /
                static_cast<double>(sizes.k)));
  std::vector<std::size_t> allowed = engine->state().loads();
  for (std::size_t& limit : allowed) limit = std::max(limit, capacity);

  api::Streamer streamer(std::move(workload->stream), workload->suggested);
  OpCount& windowOps = result.ops["windows"];
  OpCount& eventOps = result.ops["events"];
  OpCount& superstepOps = result.ops["supersteps"];
  std::vector<double> windowMs, superstepMs, cutRatios, imbalances;
  std::vector<double> nextUs, ingestUs, stepMsPerWindow,
      migrationsPerWindow, computeMs, deliveryMs, restMs, localMessages,
      remoteMessages, migrationsExecuted, activeVertices, unaccountedUs;
  std::size_t expired = 0;
  double ingestSeconds = 0.0;
  bool capacityHeld = true;
  std::uint64_t historyHash = 0;

  for (;;) {
    const Clock::time_point windowStart = Clock::now();
    std::optional<api::WindowBatch> batch = streamer.next();
    if (!batch) break;
    const double nextS = secondsSince(windowStart);
    ++windowOps.attempted;
    eventOps.attempted += batch->drained;
    expired += batch->expired;
    Clock::time_point t = Clock::now();
    (void)engine->ingest(batch->events);
    const double ingestS = secondsSince(t);
    double layerS = nextS + ingestS;
    double windowStepMs = 0.0;
    std::size_t windowMigrations = 0;
    for (std::size_t s = 0; s < sizes.superstepsPerWindow; ++s) {
      t = Clock::now();
      const pregel::SuperstepStats stats = engine->runSuperstep();
      const double superstepS = secondsSince(t);
      superstepMs.push_back(superstepS * 1e3);
      windowStepMs += superstepS * 1e3;
      windowMigrations += stats.migrationsExecuted;
      ++superstepOps.attempted;
      superstepOps.failed += stats.lostMessages > 0 ? 1 : 0;
      historyHash = foldStats(historyHash, stats);
      if (config.trace) {
        const pregel::Runtime::PhaseSeconds& phases =
            engine->runtime().lastPhaseSeconds();
        computeMs.push_back(phases.compute * 1e3);
        deliveryMs.push_back(phases.delivery * 1e3);
        restMs.push_back(phases.rest * 1e3);
        localMessages.push_back(static_cast<double>(stats.localMessages));
        remoteMessages.push_back(static_cast<double>(stats.remoteMessages));
        migrationsExecuted.push_back(static_cast<double>(stats.migrationsExecuted));
        activeVertices.push_back(static_cast<double>(stats.activeVertices));
        layerS += phases.total();
      }
    }
    const double windowS = secondsSince(windowStart);
    windowMs.push_back(windowS * 1e3);
    ingestSeconds += windowS;
    cutRatios.push_back(engine->cutRatio());
    imbalances.push_back(imbalanceOf(engine->state().loads(), allActive));
    capacityHeld = capacityHeld &&
                   withinCapacity(engine->state().loads(), allowed, allActive);
    if (config.trace) {
      nextUs.push_back(nextS * 1e6);
      ingestUs.push_back(ingestS * 1e6);
      stepMsPerWindow.push_back(windowStepMs);
      migrationsPerWindow.push_back(static_cast<double>(windowMigrations));
      unaccountedUs.push_back((windowS - layerS) * 1e6);
    }
  }

  // ---- correctness
  const graph::DynamicGraph& g = engine->graph();
  const metrics::Assignment& assignment = engine->state().assignment();
  result.check(superstepOps.failed == 0, "a superstep lost messages");
  result.check(recountCut(g, assignment) == engine->state().cutEdges(),
               "recounted cut edges differ from the runtime's count");
  result.check(g.numEdges() == 0 ||
                   static_cast<double>(recountCut(g, assignment)) /
                           static_cast<double>(g.numEdges()) ==
                       engine->cutRatio(),
               "recomputed cut ratio differs from the runtime's");
  result.check(recountLoads(g, assignment, sizes.k) == engine->state().loads(),
               "recounted partition loads differ from the runtime's");
  result.check(capacityHeld, "a partition grew beyond its capacity");

  result.fingerprint = {assignmentHash(assignment), engine->state().cutEdges(),
                        engine->totalMigrations(), historyHash};

  result.e2e("setup_s", median(setupS), "s");
  result.e2e("churn_eps", static_cast<double>(eventOps.attempted) / ingestSeconds,
             "events/s");
  result.e2e("window_p90_ms", percentile(windowMs, 0.90), "ms");
  result.e2e("cut_ratio", mean(cutRatios), "ratio");
  result.e2e("imbalance", mean(imbalances), "ratio");
  result.e2e("peak_rss_mb", static_cast<double>(xdgp::bench::PeakRss()) / 1e6, "MB");
  result.info("window_p50_ms", percentile(windowMs, 0.50), "ms");
  result.info("superstep_p50_ms", percentile(superstepMs, 0.50), "ms");
  result.info("superstep_p90_ms", percentile(superstepMs, 0.90), "ms");

  if (config.trace) {
    // The engine's step is a superstep: compute, delivery, the barrier and
    // deferred migration.
    const GraphMemory memory = graphMemory(g);
    result.layer("gen.input_s", median(genS), "s");
    result.layer("partition.initial_s", median(partitionS), "s");
    result.layer("engine.start_s", median(constructS), "s");
    result.layer("api.next_us", median(nextUs), "us");
    result.layer("engine.apply_us", median(ingestUs), "us");
    result.layer("engine.step_us", mean(superstepMs) * 1e3, "us");
    result.layer("engine.steps_per_window",
                 static_cast<double>(superstepMs.size()) /
                     static_cast<double>(windowMs.size()),
                 "count");
    result.layer("engine.step_ms_per_window", median(stepMsPerWindow), "ms");
    result.layer("engine.migrations_per_window", mean(migrationsPerWindow), "count");
    result.layer("graph.memory_mb", memory.totalMb, "MB");
    result.layer("graph.arena_slack_mb", memory.slackMb, "MB");
    result.layer("trace.window_ms", median(windowMs), "ms");
    result.layer("trace.unaccounted_us", median(unaccountedUs), "us");

    result.info("api.expired_events", static_cast<double>(expired), "count");
    result.info("pregel.compute_ms", median(computeMs), "ms");
    result.info("pregel.delivery_ms", median(deliveryMs), "ms");
    result.info("pregel.rest_ms", median(restMs), "ms");
    result.info("pregel.local_messages", median(localMessages), "count");
    result.info("pregel.remote_messages", median(remoteMessages), "count");
    result.info("pregel.migrations_executed", mean(migrationsExecuted), "count");
    result.info("pregel.active_vertices", median(activeVertices), "count");
  }
  return result;
}

}  // namespace churnbench
