// Concurrency stress for work-stealing rebalance: producers hammer a
// multi-partition fleet while a mover thread relocates partitions as fast
// as the quiesce protocol allows, a checkpointer saves delta epochs, an
// expirer retires the window behind the event clock, and a trigger-armed
// stitcher sums the moving partitions' boundary weights — all racing Drain
// calls.
//
// The invariants under test are order-independent: no edge is lost or
// double-applied across a move (fleet-wide processed == accepted), a
// stitched read never overstates its members' induced density in the
// merged graph of the final window, the boundary weights equal the ones
// recomputed from the partition graphs (live, and after restoring a
// checkpoint taken mid-race), and that checkpoint restores cleanly.
// Raciness is the point; the test runs in the `stress` ctest label and the
// TSan CI leg, where the partition-map publishes, the forward hand-offs
// and the detach/attach fences are checked for data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
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
constexpr std::size_t kPartitions = 8;
constexpr std::size_t kPartitionsPerShard = 2;

std::vector<Spade> BuildEmptyPartitions(std::size_t num_partitions,
                                        std::size_t n) {
  std::vector<Spade> shards;
  for (std::size_t p = 0; p < num_partitions; ++p) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

TEST(RebalanceStressTest, MovesRaceIngestRetireCheckpointAndStitch) {
  const std::size_t n = kPartitions * kVerticesPerTenant;
  const std::string dir = ::testing::TempDir() + "/spade_rebalance_stress";
  std::filesystem::remove_all(dir);

  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.rebalance.enabled = true;
  options.rebalance.partitions_per_shard = kPartitionsPerShard;
  options.rebalance.quiesce_timeout_ms = 2;
  options.window.span = 1'500;
  options.stitch.trigger_weight = 200.0;  // event-driven wakeups mid-run
  ShardedDetectionService service(BuildEmptyPartitions(kPartitions, n),
                                  nullptr, options);
  const std::size_t num_shards = service.num_shards();

  std::atomic<bool> producers_done{false};
  std::atomic<Timestamp> clock{1};
  std::atomic<std::size_t> accepted_total{0};

  // Producers: mixed per-edge / batched submission with a steady
  // cross-tenant fraction, advancing event time so the window expires
  // behind them. Iteration-bounded (see stitch_stress_test for why).
  constexpr int kBatchesPerProducer = 800;
  std::vector<std::thread> producers;
  for (int t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(4000 + t);
      std::vector<Edge> batch;
      for (int iter = 0; iter < kBatchesPerProducer; ++iter) {
        const Timestamp now = clock.fetch_add(1, std::memory_order_relaxed);
        batch.clear();
        for (int i = 0; i < 16; ++i) {
          const auto tenant = rng.NextBounded(kPartitions);
          auto s = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                         rng.NextBounded(kVerticesPerTenant));
          VertexId d;
          if (i % 4 == 0) {  // cross-tenant: boundary weights stay hot
            const auto other =
                (tenant + 1 + rng.NextBounded(kPartitions - 1)) % kPartitions;
            d = static_cast<VertexId>(other * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
          } else {
            d = static_cast<VertexId>(tenant * kVerticesPerTenant +
                                      rng.NextBounded(kVerticesPerTenant));
            if (d == s) {
              d = (d + 1) %
                  (tenant * kVerticesPerTenant + kVerticesPerTenant);
            }
          }
          if (d == s) continue;
          batch.push_back(Edge{s, d, 1.0 + 10.0 * rng.NextDouble(), now});
        }
        if (batch.size() % 2 == 0) {
          std::size_t got = 0;
          ASSERT_TRUE(service.SubmitBatch(batch, &got).ok());
          accepted_total.fetch_add(got, std::memory_order_relaxed);
        } else {
          for (const Edge& e : batch) {
            ASSERT_TRUE(service.Submit(e).ok());
            accepted_total.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Mover: relocates random partitions as fast as quiesce allows — every
  // move races live applies, forcing the forward path constantly. Each
  // call targets a shard other than the current owner (only this thread
  // moves partitions), and at least one runs however early the producers
  // finish.
  std::thread mover([&] {
    Rng rng(31);
    do {
      const std::size_t pid = rng.NextBounded(kPartitions);
      const std::size_t to = (service.PartitionShard(pid) + 1 +
                              rng.NextBounded(num_shards - 1)) %
                             num_shards;
      ASSERT_TRUE(service.RebalanceNow(pid, to).ok());
      std::this_thread::yield();
    } while (!producers_done.load(std::memory_order_acquire));
  });

  // Expirer: explicit RetireOlderThan racing moves — retire markers must
  // find every partition wherever it currently lives.
  std::thread expirer([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      const Timestamp now = clock.load(std::memory_order_relaxed);
      if (now > 500) (void)service.RetireOlderThan(now - 500);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Checkpointer: delta-chain saves racing moves — each save walks every
  // partition under the same rebalance lock the mover contends for, and
  // records the placement it found. At least one save runs however early
  // the producers finish, so the restore below always finds a manifest.
  std::thread checkpointer([&] {
    do {
      ASSERT_TRUE(service
                      .SaveState(dir,
                                 ShardedDetectionService::SaveMode::kAuto,
                                 nullptr)
                      .ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    } while (!producers_done.load(std::memory_order_acquire));
  });

  // Drain + stitch readers racing everything else.
  std::thread stitcher([&] {
    while (!producers_done.load(std::memory_order_acquire)) {
      service.Drain();
      const GlobalCommunity g = service.StitchNow();
      EXPECT_GE(g.density, 0.0);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (auto& p : producers) p.join();
  producers_done.store(true, std::memory_order_release);
  mover.join();
  expirer.join();
  checkpointer.join();
  stitcher.join();

  // Quiesce and check the order-independent invariants.
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), accepted_total.load());

  const GlobalCommunity final_pass = service.StitchNow();
  testing::ExpectBoundaryWeightsMatchGraphs(&service,
                                            options.partitioner.home);
  // The oracle is the members' own induced density in the merged window
  // graph, not the merged graph's peel: greedy peeling is a heuristic, and
  // a per-partition peel can find a denser set than the merged one does.
  DynamicGraph merged(n);
  for (std::size_t s = 0; s < num_shards; ++s) {
    for (const Edge& e : service.ShardWindow(s)) {
      ASSERT_TRUE(merged.AddEdge(e.src, e.dst, e.weight).ok());
    }
  }
  EXPECT_LE(final_pass.density,
            SubgraphDensity(merged, final_pass.members) + 1e-9);

  const ShardedServiceStats stats = service.GetStats();
  EXPECT_GT(stats.edges_processed, 0u);
  EXPECT_GT(stats.retired_edges, 0u);
  EXPECT_GT(stats.partitions_moved, 0u);
  std::size_t owned_total = 0;
  for (const std::size_t p : stats.shard_partitions) owned_total += p;
  EXPECT_EQ(owned_total, kPartitions);

  // The last checkpoint of the race restores into a fresh fleet with
  // whatever placement it recorded.
  ShardedDetectionService restored(BuildEmptyPartitions(kPartitions, n),
                                   nullptr, options);
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  std::size_t restored_edges = 0;
  for (std::size_t pid = 0; pid < kPartitions; ++pid) {
    ASSERT_TRUE(restored
                    .InspectPartition(pid,
                                      [&](const Spade& s) {
                                        restored_edges += s.graph().NumEdges();
                                      })
                    .ok());
  }
  EXPECT_GT(restored_edges, 0u);
  testing::ExpectBoundaryWeightsMatchGraphs(&restored,
                                            options.partitioner.home);

  service.Stop();
  restored.Stop();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spade
