// Correctness checks the workloads run on the program's outputs. Each one
// recomputes its answer apart from the program (from the edge list, the
// plain assignment, or the event list) or tests a property the method
// must have. They take plain values so the self-test can hand them a
// deliberately corrupted copy (a flipped assignment, a dropped edge, a
// torn epoch) and prove each one fails.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/update_stream.h"
#include "metrics/cuts.h"
#include "serve/snapshot.h"
#include "util/rng.h"

namespace churnbench {

/// Multiset hash of an undirected edge set: the count plus a sum of mixed
/// canonical edge keys. Dropping, adding or rewiring one edge changes it.
struct EdgeSetHash {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  friend bool operator==(const EdgeSetHash&, const EdgeSetHash&) = default;
};

inline std::uint64_t edgeKey(xdgp::graph::VertexId u, xdgp::graph::VertexId v) {
  const auto lo = static_cast<std::uint64_t>(std::min(u, v));
  const auto hi = static_cast<std::uint64_t>(std::max(u, v));
  return (lo << 32) | hi;
}

inline EdgeSetHash edgeSetHash(const xdgp::graph::DynamicGraph& g) {
  EdgeSetHash h;
  g.forEachEdge([&](xdgp::graph::VertexId u, xdgp::graph::VertexId v) {
    ++h.count;
    h.sum += xdgp::util::Rng::splitmix64(edgeKey(u, v));
  });
  return h;
}

/// The final edge set the event list implies: the initial edges with every
/// event replayed onto a plain set.
struct EdgeReplay {
  std::unordered_set<std::uint64_t> edges;
  bool onlyEdgeEvents = true;

  EdgeReplay(const xdgp::graph::DynamicGraph& initial,
             const std::vector<xdgp::graph::UpdateEvent>& events) {
    initial.forEachEdge([&](xdgp::graph::VertexId u, xdgp::graph::VertexId v) {
      edges.insert(edgeKey(u, v));
    });
    for (const xdgp::graph::UpdateEvent& e : events) {
      if (e.kind == xdgp::graph::UpdateEvent::Kind::kAddEdge) {
        if (e.u != e.v) edges.insert(edgeKey(e.u, e.v));
      } else if (e.kind == xdgp::graph::UpdateEvent::Kind::kRemoveEdge) {
        edges.erase(edgeKey(e.u, e.v));
      } else {
        onlyEdgeEvents = false;
      }
    }
  }

  [[nodiscard]] bool matches(const xdgp::graph::DynamicGraph& g) const {
    if (!onlyEdgeEvents || g.numEdges() != edges.size()) return false;
    bool all = true;
    g.forEachEdge([&](xdgp::graph::VertexId u, xdgp::graph::VertexId v) {
      all = all && edges.count(edgeKey(u, v)) == 1;
    });
    return all;
  }
};

/// Cut edges recounted from the graph's edges and a plain assignment.
inline std::size_t recountCut(const xdgp::graph::DynamicGraph& g,
                              const xdgp::metrics::Assignment& assignment) {
  std::size_t cut = 0;
  g.forEachEdge([&](xdgp::graph::VertexId u, xdgp::graph::VertexId v) {
    if (assignment[u] != assignment[v]) ++cut;
  });
  return cut;
}

/// Per-partition vertex counts recounted from a plain assignment.
inline std::vector<std::size_t> recountLoads(
    const xdgp::graph::DynamicGraph& g,
    const xdgp::metrics::Assignment& assignment, std::size_t k) {
  std::vector<std::size_t> loads(k, 0);
  g.forEachVertex([&](xdgp::graph::VertexId v) {
    if (assignment[v] < k) ++loads[assignment[v]];
  });
  return loads;
}

/// True when every active partition's load is within its capacity.
inline bool withinCapacity(const std::vector<std::size_t>& loads,
                           const std::vector<std::size_t>& capacities,
                           const std::vector<std::uint8_t>& activeMask) {
  if (loads.size() != capacities.size() || loads.size() != activeMask.size()) {
    return false;
  }
  for (std::size_t p = 0; p < loads.size(); ++p) {
    if (activeMask[p] != 0 && loads[p] > capacities[p]) return false;
  }
  return true;
}

/// Cut edges as a snapshot answers them: the sum of cutDegree over its
/// vertices, each cut edge seen from both ends.
inline std::size_t snapshotCutEdges(const xdgp::serve::AssignmentSnapshot& snap) {
  std::size_t twice = 0;
  for (std::size_t v = 0; v < snap.idBound(); ++v) {
    twice += snap.cutDegree(static_cast<xdgp::graph::VertexId>(v));
  }
  return twice / 2;
}

/// True when the snapshot answers partitionOf and degree exactly as the
/// graph and assignment do, for every vertex id.
inline bool snapshotMatches(const xdgp::serve::AssignmentSnapshot& snap,
                            const xdgp::graph::DynamicGraph& g,
                            const xdgp::metrics::Assignment& assignment) {
  if (snap.idBound() != g.idBound()) return false;
  for (std::size_t i = 0; i < g.idBound(); ++i) {
    const auto v = static_cast<xdgp::graph::VertexId>(i);
    if (snap.hasVertex(v) != g.hasVertex(v)) return false;
    if (!g.hasVertex(v)) continue;
    if (snap.partitionOf(v) != assignment[v]) return false;
    if (snap.degree(v) != g.degree(v)) return false;
  }
  return true;
}

/// What a reader saw in one query bundle, checked by readerBundleOk.
struct ReaderObservation {
  std::uint64_t epoch = 0;
  std::uint64_t epochTail = 0;
  std::size_t k = 0;
  std::size_t idBound = 0;
  bool hasV = false;
  xdgp::graph::PartitionId partitionOfV = 0;
  int routeCost = 0;
  std::size_t cutDegree = 0;
  std::size_t degree = 0;
  xdgp::graph::VertexId maxNeighbor = 0;
};

/// A bundle fails on a torn snapshot, an epoch older than the last one
/// this reader saw, or an answer out of range. `lastEpoch` advances.
inline bool readerBundleOk(const ReaderObservation& seen, std::uint64_t& lastEpoch) {
  bool ok = seen.epoch == seen.epochTail && seen.epoch >= lastEpoch;
  lastEpoch = std::max(lastEpoch, seen.epoch);
  if (seen.hasV) {
    ok = ok && seen.partitionOfV < seen.k && seen.cutDegree <= seen.degree &&
         (seen.degree == 0 || seen.maxNeighbor < seen.idBound);
  } else {
    ok = ok && seen.partitionOfV == xdgp::graph::kNoPartition && seen.degree == 0;
  }
  return ok && seen.routeCost >= -1 && seen.routeCost <= 1;
}

/// Order-independent hash of an assignment (vertex id and partition).
inline std::uint64_t assignmentHash(const xdgp::metrics::Assignment& assignment) {
  std::uint64_t h = 0;
  for (std::size_t v = 0; v < assignment.size(); ++v) {
    h += xdgp::util::Rng::splitmix64((static_cast<std::uint64_t>(v) << 32) ^
                                     assignment[v]);
  }
  return h;
}

/// Largest active-partition load over the mean active load.
inline double imbalanceOf(const std::vector<std::size_t>& loads,
                          const std::vector<std::uint8_t>& activeMask) {
  std::size_t total = 0;
  std::size_t largest = 0;
  std::size_t active = 0;
  for (std::size_t p = 0; p < loads.size(); ++p) {
    if (activeMask[p] == 0) continue;
    ++active;
    total += loads[p];
    largest = std::max(largest, loads[p]);
  }
  if (active == 0 || total == 0) return 0.0;
  return static_cast<double>(largest) /
         (static_cast<double>(total) / static_cast<double>(active));
}

}  // namespace churnbench
