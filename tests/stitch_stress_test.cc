// Concurrency stress for message-driven stitching: producers hammer the
// router while window expiry and stitch passes run against the same
// partitions' boundary weights (worker-side apply / retire updates,
// stitcher-side sums, retire-delta triggers).
//
// The invariants under test: a stitched read never OVERSTATES — the
// density it serves is at most the induced density of its own members in
// the merged graph of the final window — and once quiesced, the boundary
// weights the stitcher reads equal the ones recomputed from the shard
// graphs. Raciness is the point; the test runs in the `stress` ctest label
// and in the TSan CI leg, where the apply-side updates and the
// retire-vs-stitch fences are checked for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "metrics/density.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

constexpr VertexId kVerticesPerTenant = 48;
constexpr std::size_t kShards = 4;

std::vector<Spade> BuildEmptyShards(std::size_t num_shards, std::size_t n) {
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

TEST(StitchStressTest, ConcurrentIngestRetireAndStitchNeverOverstate) {
  const std::size_t n = kShards * kVerticesPerTenant;
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.window.span = 1'500;
  options.stitch.trigger_weight = 200.0;  // event-driven wakeups mid-run
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  std::atomic<bool> producers_done{false};
  std::atomic<Timestamp> clock{1};

  // Producers: mixed per-edge / batched submission, advancing event time so
  // the window keeps expiring behind them. Cross-tenant edges are a steady
  // fraction of the traffic, so the trigger accumulators and the boundary
  // weights stay hot. Strictly iteration-bounded — a wall-clock stop flag
  // would let a fast machine spin the event clock through thousands of
  // window strides and drown the shards in retire markers.
  constexpr int kBatchesPerProducer = 1000;
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(9000 + t);
      std::vector<Edge> batch;
      for (int iter = 0; iter < kBatchesPerProducer; ++iter) {
        const Timestamp now =
            clock.fetch_add(1, std::memory_order_relaxed);
        batch.clear();
        for (int i = 0; i < 16; ++i) {
          const auto tenant = rng.NextBounded(kShards);
          auto s = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                         rng.NextBounded(kVerticesPerTenant));
          VertexId d;
          if (i % 4 == 0) {  // cross-tenant
            const auto other = (tenant + 1 + rng.NextBounded(kShards - 1)) %
                               kShards;
            d = static_cast<VertexId>(other * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
          } else {
            d = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
            if (d == s) d = (d + 1) % (tenant * kVerticesPerTenant +
                                       kVerticesPerTenant);
          }
          if (d == s) continue;
          batch.push_back(Edge{s, d, 1.0 + 10.0 * rng.NextDouble(), now});
        }
        if (batch.size() % 2 == 0) {
          (void)service.SubmitBatch(batch);
        } else {
          for (const Edge& e : batch) (void)service.Submit(e);
        }
      }
    });
  }

  // Expirer: explicit RetireOlderThan racing the stitcher's sums.
  std::thread expirer([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      const Timestamp now = clock.load(std::memory_order_relaxed);
      if (now > 500) (void)service.RetireOlderThan(now - 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Explicit StitchNow callers race the trigger-driven background
  // stitcher (trigger_weight > 0 armed it) on the same stitch mutex, while
  // reads check the published snapshot stays well-formed.
  std::thread stitcher([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      const GlobalCommunity g = service.StitchNow();
      EXPECT_GE(g.density, 0.0);
      const GlobalCommunity read = service.CurrentGlobalCommunity();
      EXPECT_GE(read.density, 0.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& p : producers) p.join();
  producers_done.store(true, std::memory_order_release);
  expirer.join();
  stitcher.join();

  // Quiesce: drain everything, then run one final pass with no concurrent
  // mutation. Its density, and the stitched read's, must not exceed their
  // own members' induced density in the merged graph of the shards' final
  // windows. (Not the merged graph's PEEL: greedy peeling is a heuristic,
  // and a per-shard peel can find a denser set than the merged one does.)
  service.Drain();
  const GlobalCommunity final_pass = service.StitchNow();
  testing::ExpectBoundaryWeightsMatchGraphs(&service,
                                            options.partitioner.home);

  DynamicGraph merged(n);
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const Edge& e : service.ShardWindow(s)) {
      ASSERT_TRUE(merged.AddEdge(e.src, e.dst, e.weight).ok());
    }
  }
  EXPECT_LE(final_pass.density,
            SubgraphDensity(merged, final_pass.members) + 1e-9);
  const GlobalCommunity read = service.CurrentGlobalCommunity();
  EXPECT_LE(read.density, SubgraphDensity(merged, read.members) + 1e-9);

  const ShardedServiceStats stats = service.GetStats();
  EXPECT_GT(stats.edges_processed, 0u);
  EXPECT_GT(stats.retired_edges, 0u);
  // Monotone counters prove the trigger path flowed, regardless of how
  // much of the seam the final horizon expired.
  EXPECT_GE(stats.stitch_triggers, 1u);
  EXPECT_GE(stats.stitch_passes, 1u);
  service.Stop();
}

}  // namespace
}  // namespace spade
