// Shared pieces of the churn-path benchmark: run configuration, the metric
// report and its JSON line, sample statistics and operation accounting.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "graph/dynamic_graph.h"

namespace churnbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Sizes are "full" for the measured runs and "small" for the self-test,
/// which must finish in seconds.
enum class Scale { kFull, kSmall };

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  std::string scratchDir;   ///< checkpoints go here (inside the checkout)
  std::size_t threads = 0;  ///< 0: the workload's own thread count
};

/// Attempted/failed counts for one kind of operation.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One named metric with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Order-independent fingerprint of a run's final state: what the traced
/// and untraced runs of one workload and seed must agree on.
struct Fingerprint {
  std::uint64_t assignmentHash = 0;
  std::uint64_t cutEdges = 0;
  std::uint64_t migrations = 0;
  std::uint64_t historyHash = 0;  ///< pregel superstep stats, bit for bit
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// Everything one workload run produces.
struct RunResult {
  std::vector<Metric> endToEnd;  ///< the manifest's end-to-end metrics
  std::vector<Metric> perLayer;  ///< the manifest's per-layer metrics
  /// Figures only some workloads have (a layer's own counters, read
  /// latency, superstep times): printed as `metric` lines before the
  /// result, not in it, since every workload's result carries the same
  /// metrics.
  std::vector<Metric> detail;
  std::map<std::string, OpCount> ops;  ///< by kind: events, windows, ...
  std::vector<std::string> checkFailures;
  Fingerprint fingerprint;

  void e2e(const std::string& name, double value, const std::string& unit) {
    endToEnd.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    perLayer.push_back({name, value, unit});
  }
  void info(const std::string& name, double value, const std::string& unit) {
    detail.push_back({name, value, unit});
  }
  /// Records a failed correctness check (the run then reports correct=false).
  void check(bool ok, const std::string& what) {
    if (!ok) checkFailures.push_back(what);
  }
  [[nodiscard]] bool correct() const { return checkFailures.empty(); }
};

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile over a copy of `samples` (p in [0, 1]).
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank > 0 ? rank - 1 : 0)];
}

inline double median(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}


/// Median over consecutive blocks of `perBlock` windows (a trailing partial
/// block is left out) of the block's events over its summed window time.
/// A slow phase of the host that lasts a block or two moves this median
/// less than it moves the whole run's ratio.
inline double blockMedianRate(const std::vector<double>& events,
                              const std::vector<double>& seconds,
                              std::size_t perBlock) {
  std::vector<double> rates;
  for (std::size_t b = 0; (b + 1) * perBlock <= seconds.size(); ++b) {
    double e = 0.0, t = 0.0;
    for (std::size_t i = b * perBlock; i < (b + 1) * perBlock; ++i) {
      e += events[i];
      t += seconds[i];
    }
    rates.push_back(e / t);
  }
  return median(rates);
}

/// The graph's own memory, as core::MemoryReport counts it: adjacency
/// arena plus list table plus vertex bookkeeping, and the arena's slack.
struct GraphMemory {
  double totalMb = 0.0;
  double slackMb = 0.0;
};

inline GraphMemory graphMemory(const xdgp::graph::DynamicGraph& g) {
  const xdgp::graph::AdjacencyPool::ArenaStats pool = g.adjacencyPool().stats();
  const std::size_t slot = sizeof(xdgp::graph::VertexId);
  return {static_cast<double>(pool.arenaSlots * slot + pool.metaBytes +
                              g.bookkeepingBytes()) / 1e6,
          static_cast<double>(pool.slackSlots * slot) / 1e6};
}

/// Fixed-bucket latency histogram in nanoseconds, 1 ns wide up to its
/// bound (16 us, far above a ~0.5 us read bundle): reader threads record
/// millions of samples without allocating, and percentiles interpolate
/// inside the bucket so they keep their fractional digits. The buckets are
/// allocated by the first sample, so an unused histogram costs no memory.
class NsHistogram {
 public:
  static constexpr std::size_t kBuckets = 1 << 14;

  void add(std::uint64_t ns) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[std::min<std::uint64_t>(ns, kBuckets - 1)];
    ++total_;
  }
  void merge(const NsHistogram& other) {
    if (other.total_ == 0) return;
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }

  /// Value below which a share p of the samples fall, interpolated
  /// uniformly within the bucket that holds that rank.
  [[nodiscard]] double percentile(double p) const {
    if (total_ == 0) return 0.0;
    const double target = p * static_cast<double>(total_);
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(counts_[i]);
      if (c > 0.0 && seen + c >= target) {
        return static_cast<double>(i) + (target - seen) / c;
      }
      seen += c;
    }
    return static_cast<double>(kBuckets);
  }

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// ------------------------------------------------------------------ output

inline std::string jsonNumber(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

/// Prints the per-kind operation counts and the failed checks (one line
/// each), then the result as the last line of standard output.
inline void printResult(const RunResult& result, bool trace) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [kind, op] : result.ops) {
    std::cout << "ops " << kind << ": attempted=" << op.attempted
              << " failed=" << op.failed << "\n";
    attempted += op.attempted;
    failed += op.failed;
  }
  for (const Metric& m : result.detail) {
    std::cout << "metric " << m.name << "=" << jsonNumber(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& failure : result.checkFailures) {
    std::cout << "CHECK FAILED: " << failure << "\n";
  }
  std::cout << "state: assignment_hash=" << result.fingerprint.assignmentHash
            << " cut_edges=" << result.fingerprint.cutEdges
            << " migrations=" << result.fingerprint.migrations
            << " history_hash=" << result.fingerprint.historyHash << "\n";
  const std::vector<Metric>& metrics = trace ? result.perLayer : result.endToEnd;
  std::cout << "{\"correct\": " << (result.correct() ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << jsonNumber(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// --------------------------------------------------------------- workloads

RunResult runGreedyChurn(const RunConfig& config);
RunResult runServeElastic(const RunConfig& config);
RunResult runPregelTweet(const RunConfig& config);

/// Runs the self-test: small sizes, every check against a corrupted copy,
/// traced versus untraced state, pregel thread invariance. Returns the
/// process exit code.
int runSelfTest();

}  // namespace churnbench
