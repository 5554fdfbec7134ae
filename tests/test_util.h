// Shared helpers for the Spade test suites: random graph construction with
// exactly-representable weights, reference validators for peeling
// sequences, the shard list of a single-node service, an audit of a
// fleet's boundary weights against its graphs, and the graph a detector
// would hold with its benign buffer folded in.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/spade.h"
#include "graph/dynamic_graph.h"
#include "graph/types.h"
#include "peel/indexed_heap.h"
#include "peel/peel_state.h"
#include "service/sharded_detection_service.h"

namespace spade::testing {

/// Builds a random multigraph with `n` vertices and `m` edges. Integer
/// weights in [1, max_weight] keep all peeling arithmetic exact in doubles,
/// so incremental and static runs must agree bit-for-bit.
inline DynamicGraph RandomGraph(Rng* rng, std::size_t n, std::size_t m,
                                int max_weight = 8,
                                int max_vertex_weight = 0) {
  DynamicGraph g(n);
  if (max_vertex_weight > 0) {
    for (std::size_t v = 0; v < n; ++v) {
      g.SetVertexWeight(
          static_cast<VertexId>(v),
          static_cast<double>(rng->NextBounded(max_vertex_weight + 1)));
    }
  }
  for (std::size_t i = 0; i < m && n >= 2; ++i) {
    auto src = static_cast<VertexId>(rng->NextBounded(n));
    auto dst = static_cast<VertexId>(rng->NextBounded(n));
    while (dst == src) dst = static_cast<VertexId>(rng->NextBounded(n));
    const auto w =
        static_cast<double>(1 + rng->NextBounded(max_weight));
    EXPECT_TRUE(g.AddEdge(src, dst, w).ok());
  }
  return g;
}

/// Draws a random non-self-loop edge with an integer weight.
inline Edge RandomEdge(Rng* rng, std::size_t n, int max_weight = 8) {
  auto src = static_cast<VertexId>(rng->NextBounded(n));
  auto dst = static_cast<VertexId>(rng->NextBounded(n));
  while (dst == src) dst = static_cast<VertexId>(rng->NextBounded(n));
  return {src, dst, static_cast<double>(1 + rng->NextBounded(max_weight)), 0};
}

/// One detector as the shard list of a one-shard ShardedDetectionService —
/// the single-node service.
inline std::vector<Spade> OneShard(Spade spade) {
  std::vector<Spade> shards;
  shards.push_back(std::move(spade));
  return shards;
}

/// Drains the fleet, recomputes every vertex's cross-home edge weight from
/// each partition's graph and benign buffer (through InspectPartition; a
/// vertex's home partition is home(v) modulo the partition count), and
/// expects it to equal what the stitch pass reads (BoundaryWeights), and
/// the cross-home edge count to equal GetStats().boundary_edges. Call it on
/// a quiesced fleet. The tolerance only absorbs summation order.
inline void ExpectBoundaryWeightsMatchGraphs(ShardedDetectionService* service,
                                             const VertexHomeFn& home) {
  service->Drain();
  const std::size_t n = service->num_partitions();
  std::unordered_map<VertexId, double> expected;
  std::uint64_t edges = 0;
  const auto count = [&](VertexId src, VertexId dst, double weight) {
    if (home(src) % n == home(dst) % n) return;
    expected[src] += weight;
    expected[dst] += weight;
    ++edges;
  };
  const auto scan = [&count](const Spade& spade) {
    const DynamicGraph& g = spade.graph();
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (const NeighborEntry& e : g.OutNeighbors(v)) {
        count(v, e.vertex, e.weight);
      }
    }
    for (const Edge& e : spade.benign_buffer()) count(e.src, e.dst, e.weight);
  };
  for (std::size_t pid = 0; pid < n; ++pid) {
    ASSERT_TRUE(service->InspectPartition(pid, scan).ok());
  }
  EXPECT_EQ(service->GetStats().boundary_edges, edges);
  const std::unordered_map<VertexId, double> actual =
      service->BoundaryWeights();
  EXPECT_EQ(actual.size(), expected.size());
  for (const auto& [v, w] : expected) {
    const auto it = actual.find(v);
    ASSERT_NE(it, actual.end()) << "vertex " << v << " has no weight";
    EXPECT_NEAR(it->second, w, 1e-6 * std::max(1.0, std::abs(w)))
        << "vertex " << v;
  }
}

/// Every edge `spade` has applied: its graph with the benign buffer added
/// (a copy; the detector keeps its buffer).
inline DynamicGraph GraphWithBuffer(const Spade& spade) {
  DynamicGraph g = spade.graph();
  for (const Edge& e : spade.benign_buffer()) {
    EXPECT_TRUE(g.AddEdge(e.src, e.dst, e.weight).ok());
  }
  return g;
}

/// Expects `got` to be `want`: the same members, and densities equal
/// within 1e-9 relative.
inline void ExpectSameCommunity(const Community& want, const Community& got) {
  std::vector<VertexId> wm = want.members;
  std::vector<VertexId> gm = got.members;
  std::sort(wm.begin(), wm.end());
  std::sort(gm.begin(), gm.end());
  EXPECT_EQ(wm, gm);
  EXPECT_NEAR(got.density, want.density,
              1e-9 * std::max(1.0, std::abs(want.density)));
}

/// Asserts two peel states are identical (same sequence, deltas within eps).
inline void ExpectStateEquals(const PeelState& expected,
                              const PeelState& actual, double eps = 1e-9) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected.VertexAt(i), actual.VertexAt(i))
        << "sequence diverges at position " << i;
    ASSERT_NEAR(expected.DeltaAt(i), actual.DeltaAt(i), eps)
        << "delta diverges at position " << i;
  }
}

/// Reference validator: replays the sequence against the graph from
/// definition, checking that (a) each step removes a minimal-weight pending
/// vertex within `eps` (with the canonical smaller-id tie-break when
/// `check_tie_break` is set — disable it for continuous weights, where ulp
/// noise legitimately reorders exact ties), and (b) the stored delta
/// matches the recomputed peeling weight. O(n * (n + E)).
inline void ValidateCanonicalSequence(const DynamicGraph& g,
                                      const PeelState& state,
                                      double eps = 1e-9,
                                      bool check_tie_break = true) {
  const std::size_t n = g.NumVertices();
  ASSERT_EQ(state.size(), n);
  std::vector<char> pending(n, 1);
  std::vector<double> weight(n);
  for (std::size_t v = 0; v < n; ++v) {
    weight[v] = g.WeightedDegree(static_cast<VertexId>(v));
  }
  for (std::size_t step = 0; step < n; ++step) {
    const VertexId u = state.VertexAt(step);
    ASSERT_TRUE(pending[u]) << "vertex repeated at step " << step;
    ASSERT_NEAR(weight[u], state.DeltaAt(step), eps)
        << "stored delta wrong at step " << step;
    // u must be canonical-minimal among pending (within eps slack on ties).
    for (std::size_t v = 0; v < n; ++v) {
      if (!pending[v] || v == u) continue;
      const bool strictly_smaller = weight[v] < weight[u] - eps;
      const bool tie_smaller_id = check_tie_break &&
                                  std::abs(weight[v] - weight[u]) <= eps &&
                                  v < u;
      ASSERT_FALSE(strictly_smaller || tie_smaller_id)
          << "step " << step << ": peeled " << u << " (w=" << weight[u]
          << ") but " << v << " (w=" << weight[v] << ") is smaller";
    }
    pending[u] = 0;
    g.ForEachIncident(u, [&](VertexId v, double w) {
      if (pending[v]) weight[v] -= w;
    });
  }
}

/// Bit-level capture of one shard detector, taken through InspectShard.
/// The recovery and corruption suites compare restored fleets against
/// captures of the live fleet at each checkpoint epoch.
struct ShardCapture {
  PeelState state;
  std::size_t num_edges = 0;
  double total_weight = 0.0;
  std::size_t pending_benign = 0;
};

/// Asserts a restored shard equals a capture exactly (same peeling
/// sequence and deltas, same graph totals, same benign-buffer depth).
inline void ExpectShardEqualsCapture(const ShardCapture& expected,
                                     const ShardCapture& actual) {
  ExpectStateEquals(expected.state, actual.state, 0.0);
  EXPECT_EQ(expected.num_edges, actual.num_edges);
  EXPECT_DOUBLE_EQ(expected.total_weight, actual.total_weight);
  EXPECT_EQ(expected.pending_benign, actual.pending_benign);
}

}  // namespace spade::testing
