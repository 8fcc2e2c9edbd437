// Self-test of the harness, at small sizes (seconds):
//   - every workload runs untraced and traced, passes its checks, and both
//     runs end in the same state;
//   - every correctness check fails on a deliberately corrupted copy of an
//     output: one flipped assignment, one dropped edge, one torn epoch;
//   - pregel-tweet's superstep stats history is identical at 1 and 2
//     runtime threads.

#include <filesystem>
#include <iostream>
#include <string>
#include <unistd.h>

#include "api/partitioner_registry.h"
#include "checks.h"
#include "common.h"
#include "gen/parallel.h"
#include "serve/snapshot.h"

namespace churnbench {

namespace {

using namespace xdgp;

class Tally {
 public:
  void expect(bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures_ += ok ? 0 : 1;
  }
  [[nodiscard]] int failures() const noexcept { return failures_; }

 private:
  int failures_ = 0;
};

void workloadsAgree(Tally& tally, const std::string& scratch) {
  using Runner = RunResult (*)(const RunConfig&);
  const std::pair<const char*, Runner> workloads[] = {
      {"greedy-churn", runGreedyChurn},
      {"serve-elastic", runServeElastic},
      {"pregel-tweet", runPregelTweet}};
  for (const auto& [name, run] : workloads) {
    RunConfig config;
    config.seed = 7;
    config.scale = Scale::kSmall;
    config.scratchDir = scratch;
    const RunResult plain = run(config);
    config.trace = true;
    const RunResult traced = run(config);
    for (const std::string& failure : plain.checkFailures) {
      std::cout << "     " << name << ": " << failure << "\n";
    }
    tally.expect(plain.correct() && traced.correct(),
                 std::string(name) + ": untraced and traced runs pass their checks");
    tally.expect(plain.fingerprint == traced.fingerprint,
                 std::string(name) + ": traced run ends in the untraced run's state");
    tally.expect(plain.fingerprint.migrations > 0,
                 std::string(name) + ": the engine migrated vertices");
  }
}

void pregelThreadInvariance(Tally& tally) {
  RunConfig config;
  config.seed = 11;
  config.scale = Scale::kSmall;
  config.threads = 1;
  const RunResult one = runPregelTweet(config);
  config.threads = 2;
  const RunResult two = runPregelTweet(config);
  tally.expect(one.fingerprint == two.fingerprint && one.fingerprint.historyHash != 0,
               "pregel-tweet: superstep history identical at 1 and 2 threads");
}

void checksCatchCorruption(Tally& tally) {
  const graph::DynamicGraph g = gen::powerlawClusterParallel(2'000, 4, 0.1, 3, 1);
  const std::size_t k = 4;
  const metrics::Assignment a = api::initialAssignment(g, "HSH", k, 1.1, 42);
  const std::size_t cut = recountCut(g, a);
  const serve::AssignmentSnapshot snap(1, g, a, k, serve::SnapshotStats{});
  tally.expect(snapshotMatches(snap, g, a) && snapshotCutEdges(snap) == cut,
               "checks accept the true outputs");

  // One flipped assignment.
  graph::VertexId hub = 0;
  g.forEachVertex([&](graph::VertexId v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  });
  metrics::Assignment flipped = a;
  flipped[hub] = static_cast<graph::PartitionId>((a[hub] + 1) % k);
  tally.expect(recountCut(g, flipped) != cut,
               "cut recount catches a flipped assignment");
  tally.expect(!snapshotMatches(snap, g, flipped),
               "snapshot check catches a flipped assignment");
  tally.expect(assignmentHash(flipped) != assignmentHash(a),
               "state fingerprint catches a flipped assignment");
  std::vector<std::size_t> loads = recountLoads(g, flipped, k);
  std::vector<std::size_t> capacities = recountLoads(g, a, k);
  tally.expect(!withinCapacity(loads, capacities, std::vector<std::uint8_t>(k, 1)),
               "capacity check catches a partition one vertex over");

  // One dropped edge.
  graph::DynamicGraph dropped = g;
  const graph::VertexId nbr = g.neighbors(hub)[0];
  dropped.removeEdge(hub, nbr);
  tally.expect(!(edgeSetHash(dropped) == edgeSetHash(g)),
               "edge-set hash catches a dropped edge");
  tally.expect(!EdgeReplay(g, {}).matches(dropped),
               "event replay catches a dropped edge");
  tally.expect(!snapshotMatches(snap, dropped, a),
               "snapshot check catches a dropped edge");
  std::vector<graph::UpdateEvent> events = {graph::UpdateEvent::removeEdge(hub, nbr)};
  tally.expect(EdgeReplay(g, events).matches(dropped) &&
                   !EdgeReplay(g, events).matches(g),
               "event replay follows a removal");

  // One torn epoch, a regressing epoch, an out-of-range answer.
  ReaderObservation seen;
  seen.epoch = seen.epochTail = 5;
  seen.k = k;
  seen.idBound = g.idBound();
  seen.hasV = true;
  seen.partitionOfV = a[hub];
  seen.routeCost = 1;
  seen.cutDegree = 1;
  seen.degree = g.degree(hub);
  seen.maxNeighbor = nbr;
  std::uint64_t last = 4;
  tally.expect(readerBundleOk(seen, last) && last == 5,
               "reader check accepts a good bundle");
  ReaderObservation torn = seen;
  torn.epochTail = 6;
  last = 4;
  tally.expect(!readerBundleOk(torn, last), "reader check catches a torn epoch");
  last = 6;
  tally.expect(!readerBundleOk(seen, last), "reader check catches a regressing epoch");
  ReaderObservation range = seen;
  range.partitionOfV = static_cast<graph::PartitionId>(k);
  last = 4;
  tally.expect(!readerBundleOk(range, last),
               "reader check catches an out-of-range partition");
}

}  // namespace

int runSelfTest() {
  Tally tally;
  const std::string scratch =
      ".bench_build/churnbench-selftest-" + std::to_string(::getpid());
  std::filesystem::create_directories(scratch);
  try {
    checksCatchCorruption(tally);
    workloadsAgree(tally, scratch);
    pregelThreadInvariance(tally);
  } catch (const std::exception& error) {
    tally.expect(false, std::string("self-test threw: ") + error.what());
  }
  std::filesystem::remove_all(scratch);
  std::cout << (tally.failures() == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return tally.failures() == 0 ? 0 : 1;
}

}  // namespace churnbench
