// Cross-shard stitching: the sharded-vs-merged differential suite.
//
//  * Differential: seeded randomized streams (same generator shape as
//    differential_test.cc, insert-only since the service has no delete
//    path) driven into a stitched ShardedDetectionService at 2/4/8 shards
//    AND into one single-shard service; the stitched global
//    community's density must match the merged detector's within
//    tie-exactness — including streams whose densest community is entirely
//    cross-shard (every one of its edges is a boundary edge).
//  * Routing property: for hash, tenant and an adversarial
//    round-robin-by-edge partitioner, every submitted edge lands in exactly
//    one shard's detector, and counts in the boundary weights iff its
//    endpoints' home partitions differ (the double-count/drop seam).
//  * Tenant regression: a cross-tenant ring used to be silently routed into
//    the source tenant's shard with no record; it must now be counted and
//    detected by the stitch pass, surviving save/restore.
//
// The randomized differentials are labeled `stress` in ctest and run in a
// dedicated CI matrix leg under ASan and TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "metrics/density.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

// ------------------------------------------------------------------------
// Stream generators (differential_test.cc's shape, insert-only).
// ------------------------------------------------------------------------

/// Uniform background edge over [0, n) with a continuous weight, so peeling
/// ties are singleton and the merged-vs-stitched comparison is not at the
/// mercy of tie-break order across two different peels.
Edge BackgroundEdge(Rng* rng, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{s, d, 0.5 + 5.0 * rng->NextDouble(), 0};
}

/// Appends `edges` heavy ring edges over `ring` (consecutive pairs, cycled)
/// to `stream`, starting at `at`.
void InjectRing(std::vector<Edge>* stream, std::size_t at,
                const std::vector<VertexId>& ring, std::size_t edges,
                double weight, Rng* rng) {
  for (std::size_t i = 0; i < edges; ++i) {
    const VertexId s = ring[i % ring.size()];
    const VertexId d = ring[(i + 1) % ring.size()];
    stream->insert(
        stream->begin() + static_cast<std::ptrdiff_t>(
                              std::min(at + i, stream->size())),
        Edge{s, d, weight * (0.9 + 0.2 * rng->NextDouble()), 0});
  }
}

std::vector<Spade> BuildEmptyShards(
    std::size_t num_shards, std::size_t n,
    const FraudSemantics& semantics = MakeDW()) {
  std::vector<Spade> shards;
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(semantics);
    EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
    shards.push_back(std::move(spade));
  }
  return shards;
}

Spade BuildMergedDetector(std::size_t n) {
  Spade spade;
  spade.SetSemantics(MakeDW());
  EXPECT_TRUE(spade.BuildGraph(n, {}).ok());
  return spade;
}

/// Drives the stream into the service with a mix of per-edge and batched
/// submission (both paths must count boundary edges identically).
void SubmitAll(ShardedDetectionService* service,
               const std::vector<Edge>& stream) {
  std::size_t i = 0;
  while (i < stream.size()) {
    if (i % 3 == 0) {
      ASSERT_TRUE(service->Submit(stream[i]).ok());
      ++i;
    } else {
      const std::size_t len = std::min<std::size_t>(37, stream.size() - i);
      ASSERT_TRUE(
          service
              ->SubmitBatch(std::span<const Edge>(stream.data() + i, len))
              .ok());
      i += len;
    }
  }
}

std::vector<VertexId> Sorted(std::vector<VertexId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ------------------------------------------------------------------------
// Differential suite: stitched sharded service vs one merged detector.
// ------------------------------------------------------------------------

class StitchDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StitchDifferentialTest, StitchedDensityMatchesMergedDetector) {
  const std::size_t num_shards = GetParam();
  Rng rng(1300 + num_shards);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t n = 64 + rng.NextBounded(64);

    // Hash-routed service over empty detectors; the whole stream goes
    // through the router, so every cross-home edge is a live update.
    ShardedDetectionServiceOptions options;
    options.partitioner = HashOfSourcePartitioner();
    ShardedDetectionService service(BuildEmptyShards(num_shards, n), nullptr,
                                    options);

    // Random background plus one dominant ring at random ids (whatever
    // homes the hash assigns them) — the community every detector must
    // agree on.
    std::vector<Edge> stream;
    for (std::size_t i = 0; i < 12 * n; ++i) {
      stream.push_back(BackgroundEdge(&rng, n));
    }
    std::vector<VertexId> ring;
    while (ring.size() < 6) {
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (std::find(ring.begin(), ring.end(), v) == ring.end()) {
        ring.push_back(v);
      }
    }
    InjectRing(&stream, stream.size() / 3, ring, 120, 50.0, &rng);

    SubmitAll(&service, stream);
    service.Drain();
    const GlobalCommunity stitched = service.StitchNow();

    // Merged reference: the same stream through one single-shard service.
    ShardedDetectionService merged_service(
        testing::OneShard(BuildMergedDetector(n)), nullptr);
    for (const Edge& e : stream) ASSERT_TRUE(merged_service.Submit(e).ok());
    merged_service.Drain();
    const Community merged = merged_service.CurrentCommunity();

    EXPECT_NEAR(stitched.density, merged.density, 1e-9)
        << "shards=" << num_shards << " trial=" << trial;
    EXPECT_EQ(Sorted(stitched.members), Sorted(merged.members))
        << "shards=" << num_shards << " trial=" << trial;
    for (const VertexId v : ring) {
      EXPECT_NE(std::find(stitched.members.begin(), stitched.members.end(),
                          v),
                stitched.members.end());
    }

    // The stitched read serves the same answer, lock-free.
    const Community read = service.CurrentGlobalCommunity();
    EXPECT_NEAR(read.density, merged.density, 1e-9);

    // Exactness from definition: the stitched density equals g(S) of the
    // stitched member set on a merged graph of the whole stream (DW edge
    // suspiciousness is the raw weight, so AddEdge reproduces it).
    DynamicGraph merged_graph(n);
    for (const Edge& e : stream) {
      merged_graph.EnsureVertices(std::max(e.src, e.dst) + 1);
      ASSERT_TRUE(merged_graph.AddEdge(e.src, e.dst, e.weight).ok());
    }
    EXPECT_NEAR(SubgraphDensity(merged_graph, stitched.members),
                stitched.density, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, StitchDifferentialTest,
                         ::testing::Values(2u, 4u, 8u));

// The blind spot the stitch exists for: a community whose EVERY edge is a
// boundary edge. Ring vertices alternate between home-shard pools, so no
// single shard ever holds two consecutive members' edge.
TEST_P(StitchDifferentialTest, EntirelyCrossShardCommunityIsStitched) {
  const std::size_t num_shards = GetParam();
  const std::size_t n = 128;
  Rng rng(7100 + num_shards);

  ShardedDetectionServiceOptions options;
  options.partitioner = HashOfSourcePartitioner();
  ShardedDetectionService service(BuildEmptyShards(num_shards, n), nullptr,
                                  options);

  // Two pools by home shard; alternating between them makes every
  // consecutive ring pair cross-home.
  std::vector<VertexId> pool_a, pool_b;
  for (VertexId v = 0; v < n; ++v) {
    if (service.HomeShardOf(v) == 0) {
      pool_a.push_back(v);
    } else if (service.HomeShardOf(v) == 1) {
      pool_b.push_back(v);
    }
  }
  ASSERT_GE(pool_a.size(), 3u);
  ASSERT_GE(pool_b.size(), 3u);
  std::vector<VertexId> ring;
  for (int i = 0; i < 3; ++i) {
    ring.push_back(pool_a[static_cast<std::size_t>(i)]);
    ring.push_back(pool_b[static_cast<std::size_t>(i)]);
  }

  std::vector<Edge> stream;
  for (std::size_t i = 0; i < 8 * n; ++i) {
    stream.push_back(BackgroundEdge(&rng, n));
  }
  InjectRing(&stream, stream.size() / 2, ring, 120, 50.0, &rng);

  SubmitAll(&service, stream);
  service.Drain();

  // Every ring edge crossed homes, so all 120 are counted (plus whatever
  // the background contributed).
  EXPECT_GE(service.GetStats().boundary_edges, 120u);

  // The per-shard argmax cannot see the ring's full density: no shard holds
  // more than a fraction of its edges.
  const Community argmax = service.CurrentCommunity();

  const GlobalCommunity stitched = service.StitchNow();
  EXPECT_TRUE(stitched.stitched);
  EXPECT_GT(stitched.density, argmax.density);
  EXPECT_GE(stitched.shards.size(), 2u);
  for (const VertexId v : ring) {
    EXPECT_NE(
        std::find(stitched.members.begin(), stitched.members.end(), v),
        stitched.members.end());
  }

  // Merged reference agrees exactly.
  ShardedDetectionService merged_service(
      testing::OneShard(BuildMergedDetector(n)), nullptr);
  for (const Edge& e : stream) ASSERT_TRUE(merged_service.Submit(e).ok());
  merged_service.Drain();
  const Community merged = merged_service.CurrentCommunity();
  EXPECT_NEAR(stitched.density, merged.density, 1e-9);
  EXPECT_EQ(Sorted(stitched.members), Sorted(merged.members));
}

// ------------------------------------------------------------------------
// Routing property: exactly one detector, boundary weight iff cross-home.
// ------------------------------------------------------------------------

struct NamedPartitioner {
  const char* name;
  Partitioner partitioner;
};

std::vector<NamedPartitioner> PartitionersUnderTest() {
  std::vector<NamedPartitioner> out;
  out.push_back({"hash", HashOfSourcePartitioner()});
  out.push_back({"tenant", TenantPartitioner(16)});
  // Adversarial round-robin-by-edge: routing ignores the endpoints
  // entirely, so routed-shard and home-shard disagree almost always. Homes
  // still come from a well-defined vertex function (required: boundary
  // detection is a statement about homes, not about where an edge landed).
  auto counter = std::make_shared<std::atomic<std::size_t>>(0);
  out.push_back(
      {"round-robin",
       Partitioner(
           [counter](const Edge&) {
             return counter->fetch_add(1, std::memory_order_relaxed);
           },
           [](VertexId v) -> std::size_t { return v % 3; })});
  return out;
}

TEST(RoutingPropertyTest, ExactlyOneDetectorAndBoundaryIffCrossHome) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kVertices = 96;
  for (auto& [name, partitioner] : PartitionersUnderTest()) {
    Rng rng(555);
    ShardedDetectionServiceOptions options;
    options.partitioner = partitioner;
    ShardedDetectionService service(BuildEmptyShards(kShards, kVertices),
                                    nullptr, options);

    std::vector<Edge> stream;
    for (int i = 0; i < 600; ++i) {
      stream.push_back(BackgroundEdge(&rng, kVertices));
    }
    SubmitAll(&service, stream);
    service.Drain();

    std::uint64_t expected_boundary = 0;
    for (const Edge& e : stream) {
      if (service.HomeShardOf(e.src) != service.HomeShardOf(e.dst)) {
        ++expected_boundary;
      }
    }

    const ShardedServiceStats stats = service.GetStats();
    std::uint64_t landed = 0;
    for (const std::uint64_t per_shard : stats.shard_edges) {
      landed += per_shard;
    }
    // Exactly once in a detector...
    EXPECT_EQ(landed, stream.size()) << name;
    // ...plus the boundary weights iff the endpoints' homes differ.
    EXPECT_EQ(stats.boundary_edges, expected_boundary) << name;
    EXPECT_GT(expected_boundary, 0u) << name;

    // Per vertex, the weights the stitch pass reads are exactly the
    // cross-home edges the detectors hold.
    {
      SCOPED_TRACE(name);
      testing::ExpectBoundaryWeightsMatchGraphs(&service, partitioner.home);
    }
    service.Stop();
  }
}

TEST(RoutingPropertyTest, BuiltInPartitionersRouteToSourceHome) {
  constexpr std::size_t kShards = 4;
  for (auto& [name, partitioner] : PartitionersUnderTest()) {
    if (std::string_view(name) == "round-robin") continue;
    ShardedDetectionServiceOptions options;
    options.partitioner = partitioner;
    ShardedDetectionService service(BuildEmptyShards(kShards, 64), nullptr,
                                    options);
    Rng rng(99);
    for (int i = 0; i < 100; ++i) {
      const Edge e = BackgroundEdge(&rng, 64);
      EXPECT_EQ(service.ShardOf(e), service.HomeShardOf(e.src)) << name;
    }
  }
}

// ------------------------------------------------------------------------
// Tenant regression: cross-tenant edges are counted and stitchable.
// ------------------------------------------------------------------------

constexpr VertexId kVerticesPerTenant = 64;

TEST(TenantStitchingTest, CrossTenantRingIsRecordedAndDetected) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(2024);

  std::mutex alert_mutex;
  std::vector<GlobalCommunity> stitch_alerts;
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.stitch.on_stitch_alert = [&](const GlobalCommunity& g) {
    std::lock_guard<std::mutex> lock(alert_mutex);
    stitch_alerts.push_back(g);
  };
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  // Intra-tenant background in both tenants.
  std::vector<Edge> stream;
  for (int i = 0; i < 400; ++i) {
    const auto base = static_cast<VertexId>((i % 2) * kVerticesPerTenant);
    Edge e = BackgroundEdge(&rng, kVerticesPerTenant);
    e.src += base;
    e.dst += base;
    stream.push_back(e);
  }
  // A collusion ring alternating between tenant 0 and tenant 1 accounts:
  // every ring edge is cross-tenant.
  const std::vector<VertexId> ring = {
      10, static_cast<VertexId>(kVerticesPerTenant + 10),
      11, static_cast<VertexId>(kVerticesPerTenant + 11),
      12, static_cast<VertexId>(kVerticesPerTenant + 12)};
  InjectRing(&stream, stream.size() / 2, ring, 90, 40.0, &rng);

  SubmitAll(&service, stream);
  service.Drain();

  // The fix under regression: before it, these 90 edges were routed into
  // the source tenant's shard with no record anywhere.
  EXPECT_EQ(service.GetStats().boundary_edges, 90u);

  const Community argmax = service.CurrentCommunity();
  const GlobalCommunity stitched = service.StitchNow();
  EXPECT_TRUE(stitched.stitched);
  EXPECT_GT(stitched.density, argmax.density);
  EXPECT_EQ(stitched.shards, (std::vector<std::size_t>{0, 1}));
  for (const VertexId v : ring) {
    EXPECT_NE(
        std::find(stitched.members.begin(), stitched.members.end(), v),
        stitched.members.end());
  }
  {
    std::lock_guard<std::mutex> lock(alert_mutex);
    ASSERT_EQ(stitch_alerts.size(), 1u);
    EXPECT_EQ(stitch_alerts[0].shards, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(Sorted(stitch_alerts[0].members), Sorted(stitched.members));
  }

  // Merged reference: the ring's density is exactly what one detector over
  // everything reports.
  ShardedDetectionService merged_service(
      testing::OneShard(BuildMergedDetector(n)), nullptr);
  for (const Edge& e : stream) ASSERT_TRUE(merged_service.Submit(e).ok());
  merged_service.Drain();
  EXPECT_NEAR(stitched.density, merged_service.CurrentCommunity().density,
              1e-9);

  // Save/restore rebuilds the boundary weights from the restored graphs;
  // the restored fleet re-stitches the same ring without replaying the
  // stream.
  const std::string dir = ::testing::TempDir() + "/stitching_snapshot";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(service.SaveState(dir).ok());
  service.Stop();

  ShardedDetectionServiceOptions restore_options;
  restore_options.partitioner = TenantPartitioner(kVerticesPerTenant);
  ShardedDetectionService restored(BuildEmptyShards(kShards, n), nullptr,
                                   restore_options);
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  EXPECT_EQ(restored.GetStats().boundary_edges, 90u);
  const GlobalCommunity restitched = restored.StitchNow();
  EXPECT_TRUE(restitched.stitched);
  EXPECT_NEAR(restitched.density, stitched.density, 1e-9);
  EXPECT_EQ(Sorted(restitched.members), Sorted(stitched.members));
  std::filesystem::remove_all(dir);
}

// A background stitcher publishes without any explicit StitchNow call.
TEST(TenantStitchingTest, PeriodicStitcherPublishes) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(77);
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.stitch.interval_ms = 5;
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      3, static_cast<VertexId>(kVerticesPerTenant + 3),
      4, static_cast<VertexId>(kVerticesPerTenant + 4)};
  InjectRing(&stream, 0, ring, 60, 30.0, &rng);
  SubmitAll(&service, stream);
  service.Drain();

  // Wait (bounded) for the stitcher to observe the drained state.
  GlobalCommunity g;
  for (int i = 0; i < 500; ++i) {
    g = service.CurrentGlobalCommunity();
    if (g.stitched) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(g.stitched);
  EXPECT_GE(service.GetStats().stitch_passes, 1u);
  service.Stop();
}

// ------------------------------------------------------------------------
// Message-driven stitching: triggers, truncation, expiry, restore.
// ------------------------------------------------------------------------

// Regression: a single-shard service with interval_ms > 0 used to never
// start the stitcher (silently: stitch_passes stayed 0 and a stitched
// read never carried provenance). It must behave as the 1-shard member of
// the sharded family: passes run, the published global community is the
// shard's own argmax with shards == {0}.
TEST(MessageDrivenStitchingTest, SingleShardIntervalStitches) {
  Rng rng(501);
  ShardedDetectionServiceOptions options;
  options.stitch.interval_ms = 5;
  ShardedDetectionService service(BuildEmptyShards(1, 64), nullptr, options);

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {7, 8, 9};
  InjectRing(&stream, 0, ring, 60, 30.0, &rng);
  SubmitAll(&service, stream);
  service.Drain();

  GlobalCommunity g;
  for (int i = 0; i < 500; ++i) {
    g = service.CurrentGlobalCommunity();
    if (g.stitch_pass >= 1 && !g.members.empty()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(service.GetStats().stitch_passes, 1u);
  EXPECT_GE(g.stitch_pass, 1u);
  EXPECT_FALSE(g.stitched);  // one shard: the argmax republished, tagged
  EXPECT_EQ(g.shards, (std::vector<std::size_t>{0}));
  EXPECT_NEAR(g.density, service.CurrentCommunity().density, 1e-12);
  service.Stop();
}

// Event-driven freshness: with interval_ms == 0 and a trigger threshold,
// the cross-shard ring must become visible through
// CurrentGlobalCommunity() without any timer to wait out — the workers'
// weight deltas wake the stitcher the moment the seam accumulates enough.
TEST(MessageDrivenStitchingTest, TriggerWakesStitcherWithoutTimer) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(502);
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.stitch.interval_ms = 0;  // no timer at all
  // Below one ring edge's weight (27-33), so every cross-shard edge wakes
  // the stitcher: a triggered pass drains only what was submitted before
  // it, and a trailing edge lighter than the threshold would otherwise
  // leave the last published pass one edge short of the stream.
  options.stitch.trigger_weight = 20.0;
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      5, static_cast<VertexId>(kVerticesPerTenant + 5),
      6, static_cast<VertexId>(kVerticesPerTenant + 6)};
  InjectRing(&stream, 0, ring, 80, 30.0, &rng);
  SubmitAll(&service, stream);
  service.Drain();

  // The differential anchor: the triggered pass is exact, not heuristic.
  ShardedDetectionService merged(testing::OneShard(BuildMergedDetector(n)),
                                 nullptr);
  for (const Edge& e : stream) ASSERT_TRUE(merged.Submit(e).ok());
  merged.Drain();
  const double want = merged.CurrentCommunity().density;
  GlobalCommunity g;
  for (int i = 0; i < 500; ++i) {
    g = service.CurrentGlobalCommunity();
    if (g.stitched && std::abs(g.density - want) < 1e-9) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const ShardedServiceStats stats = service.GetStats();
  EXPECT_TRUE(g.stitched);
  EXPECT_GE(stats.stitch_triggers, 1u);
  EXPECT_GE(stats.stitch_passes, 1u);
  EXPECT_EQ(g.shards, (std::vector<std::size_t>{0, 1}));
  EXPECT_NEAR(g.density, want, 1e-9);
  service.Stop();
}

// Regression: StitchNow used to truncate the seam candidate set at
// max_seam_vertices silently. The pass must now report the truncation on
// its result and in the service stats, and the background stitcher must
// escalate a truncated triggered pass to an unbounded one so the
// published density still converges to the merged answer.
TEST(MessageDrivenStitchingTest, SeamTruncationIsReportedAndEscalated) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(503);

  // Many distinct boundary vertices (every cross-tenant pair once) so a
  // tiny budget must drop candidates.
  std::vector<Edge> stream;
  for (VertexId v = 0; v < 40; ++v) {
    stream.push_back(Edge{v, static_cast<VertexId>(kVerticesPerTenant + v),
                          5.0 + 0.1 * static_cast<double>(v), 0});
  }
  const std::vector<VertexId> ring = {
      2, static_cast<VertexId>(kVerticesPerTenant + 2),
      3, static_cast<VertexId>(kVerticesPerTenant + 3)};
  InjectRing(&stream, stream.size(), ring, 60, 30.0, &rng);

  {
    ShardedDetectionServiceOptions options;
    options.partitioner = TenantPartitioner(kVerticesPerTenant);
    options.stitch.max_seam_vertices = 2;  // binding: << 80 candidates
    ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                    options);
    SubmitAll(&service, stream);
    service.Drain();
    const GlobalCommunity g = service.StitchNow();
    EXPECT_TRUE(g.seam_truncated);
    EXPECT_GE(service.GetStats().seam_truncated, 1u);
  }
  {
    // Same workload through the trigger-driven stitcher: it runs the
    // budgeted pass, sees the truncation, and retries unbounded — the
    // eventual published density matches the merged detector exactly.
    ShardedDetectionServiceOptions options;
    options.partitioner = TenantPartitioner(kVerticesPerTenant);
    options.stitch.max_seam_vertices = 2;
    // Below every cross edge's weight, so the last one always wakes a
    // pass that covers the whole stream (see
    // TriggerWakesStitcherWithoutTimer).
    options.stitch.trigger_weight = 4.0;
    ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                    options);
    SubmitAll(&service, stream);
    service.Drain();
    ShardedDetectionService merged(testing::OneShard(BuildMergedDetector(n)),
                                   nullptr);
    for (const Edge& e : stream) ASSERT_TRUE(merged.Submit(e).ok());
    merged.Drain();
    const double want = merged.CurrentCommunity().density;
    GlobalCommunity g;
    for (int i = 0; i < 500; ++i) {
      g = service.CurrentGlobalCommunity();
      if (g.stitched && std::abs(g.density - want) < 1e-9) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(g.stitched);
    EXPECT_NEAR(g.density, want, 1e-9);
    EXPECT_GE(service.GetStats().seam_truncated, 1u);
    service.Stop();
  }
}

// Regression for the "inserts only ⇒ density only grows" fast path in
// CurrentGlobalCommunity: after a window-expiry retire pass shrinks a
// contributing shard, a stitched read must fall back to the live argmax
// instead of serving the stale (now overstated) stitched snapshot.
TEST(MessageDrivenStitchingTest, RetiredSeamIsNotServedStale) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(504);
  ShardedDetectionServiceOptions options;
  options.partitioner = TenantPartitioner(kVerticesPerTenant);
  options.window.span = 10'000;
  ShardedDetectionService service(BuildEmptyShards(kShards, n), nullptr,
                                  options);

  // Old cross-tenant ring at ts 100, newer intra-tenant background at
  // ts 500 (all inside the window so nothing expires during ingest).
  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      8, static_cast<VertexId>(kVerticesPerTenant + 8),
      9, static_cast<VertexId>(kVerticesPerTenant + 9)};
  InjectRing(&stream, 0, ring, 60, 30.0, &rng);
  for (Edge& e : stream) e.ts = 100;
  for (int i = 0; i < 200; ++i) {
    Edge e = BackgroundEdge(&rng, kVerticesPerTenant);
    e.ts = 500;
    stream.push_back(e);
  }
  SubmitAll(&service, stream);
  service.Drain();

  const GlobalCommunity before = service.StitchNow();
  ASSERT_TRUE(before.stitched);
  ASSERT_GT(before.density, 0.0);

  // Expire the ring. The retire pass announces itself before deleting
  // (and again after), so by the time the deletions land the stitched
  // snapshot is already dropped.
  ASSERT_TRUE(service.RetireOlderThan(200).ok());
  service.Drain();

  const GlobalCommunity after = service.CurrentGlobalCommunity();
  const Community argmax = service.CurrentCommunity();
  EXPECT_LT(after.density, before.density);
  EXPECT_NEAR(after.density, argmax.density, 1e-12);
  EXPECT_FALSE(after.stitched);
  EXPECT_GE(service.GetStats().retired_edges, 60u);
}

/// Benign-buffered edges across every partition of `fleet`.
std::size_t PendingBenignEdges(const ShardedDetectionService& fleet) {
  std::size_t buffered = 0;
  for (std::size_t pid = 0; pid < fleet.num_partitions(); ++pid) {
    EXPECT_TRUE(fleet
                    .InspectPartition(pid,
                                      [&](const Spade& spade) {
                                        buffered += spade.PendingBenignEdges();
                                      })
                    .ok());
  }
  return buffered;
}

// Boundary weights are derived state: a fleet restored from a base + delta
// chain, and a standby that replays the last epoch onto the base, both
// rebuild them from their graphs and benign buffers — equal to the live
// fleet's, so the seam candidates and the re-stitched answer are the same.
// The chain ends with edges still in the benign buffer (neither Drain nor
// a delta save folds it), and the rebuild counts them from there.
TEST(MessageDrivenStitchingTest, RestoredBoundaryWeightsEqualLive) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  Rng rng(505);
  const Partitioner partitioner = TenantPartitioner(kVerticesPerTenant);
  ShardedDetectionServiceOptions options;
  options.partitioner = partitioner;

  std::vector<Edge> stream;
  const std::vector<VertexId> ring = {
      10, static_cast<VertexId>(kVerticesPerTenant + 10),
      11, static_cast<VertexId>(kVerticesPerTenant + 11),
      12, static_cast<VertexId>(kVerticesPerTenant + 12)};
  InjectRing(&stream, 0, ring, 300, 20.0, &rng);
  for (int i = 0; i < 300; ++i) stream.push_back(BackgroundEdge(&rng, n));
  const std::size_t half = stream.size() / 2;

  ShardedDetectionService live(BuildEmptyShards(kShards, n), nullptr,
                               options);
  const std::string dir = ::testing::TempDir() + "/restored_boundary";
  const std::string base_dir = dir + "-base";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(base_dir);
  SubmitAll(&live, std::vector<Edge>(stream.begin(), stream.begin() + half));
  live.Drain();
  ASSERT_TRUE(live.SaveState(dir).ok());
  std::filesystem::copy(dir, base_dir);  // the chain as of epoch 1
  SubmitAll(&live, std::vector<Edge>(stream.begin() + half, stream.end()));
  live.Drain();
  ShardedDetectionService::SaveInfo info;
  ASSERT_TRUE(live.SaveState(dir, ShardedDetectionService::SaveMode::kDelta,
                             &info)
                  .ok());
  ASSERT_EQ(info.epoch, 2u);
  const GlobalCommunity stitched = live.StitchNow();
  ASSERT_TRUE(stitched.stitched);
  const std::size_t live_buffered = PendingBenignEdges(live);
  ASSERT_GT(live_buffered, 0u);
  testing::ExpectBoundaryWeightsMatchGraphs(&live, partitioner.home);
  const std::unordered_map<VertexId, double> want = live.BoundaryWeights();
  const std::uint64_t want_edges = live.GetStats().boundary_edges;
  ASSERT_GE(want_edges, 300u);

  const auto expect_weights_equal_live = [&](ShardedDetectionService* fleet) {
    testing::ExpectBoundaryWeightsMatchGraphs(fleet, partitioner.home);
    EXPECT_EQ(fleet->GetStats().boundary_edges, want_edges);
    const std::unordered_map<VertexId, double> got = fleet->BoundaryWeights();
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [v, w] : want) {
      ASSERT_EQ(got.count(v), 1u) << "vertex " << v;
      EXPECT_NEAR(got.at(v), w, 1e-9 * std::max(1.0, w)) << "vertex " << v;
    }
  };
  const auto expect_restitch_equal_live = [&](ShardedDetectionService* fleet) {
    const GlobalCommunity restitched = fleet->StitchNow();
    EXPECT_TRUE(restitched.stitched);
    EXPECT_NEAR(restitched.density, stitched.density, 1e-9);
    EXPECT_EQ(Sorted(restitched.members), Sorted(stitched.members));
  };
  {
    SCOPED_TRACE("RestoreState of the base + delta chain");
    ShardedDetectionService restored(BuildEmptyShards(kShards, n), nullptr,
                                     options);
    ASSERT_TRUE(restored.RestoreState(dir).ok());
    EXPECT_EQ(PendingBenignEdges(restored), live_buffered);
    expect_weights_equal_live(&restored);
    expect_restitch_equal_live(&restored);
  }
  {
    SCOPED_TRACE("ApplyChainEpoch of epoch 2 onto the epoch-1 base");
    ShardedDetectionService standby(BuildEmptyShards(kShards, n), nullptr,
                                    options);
    ASSERT_TRUE(standby.RestoreState(base_dir).ok());
    ASSERT_TRUE(
        standby.ApplyChainEpoch(dir, 2, std::chrono::seconds(10)).ok());
    EXPECT_EQ(PendingBenignEdges(standby), live_buffered);
    expect_weights_equal_live(&standby);
    expect_restitch_equal_live(&standby);
  }
  live.Stop();
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(base_dir);
}

// The buffered-tail history. Every DW weight w is sent as
// `units_per_weight * w` parallel unit edges: 1 sends it as written (DW),
// 4 turns 0.25 into one edge (DG, where every edge weighs 1: the same
// geometry at 4x the density).
constexpr VertexId kTailHa = 10;
constexpr VertexId kTailL1 = 11;
constexpr VertexId kTailHb = kVerticesPerTenant + 10;
constexpr VertexId kTailL2 = kVerticesPerTenant + 11;

std::vector<Edge> InUnits(const std::vector<Edge>& edges,
                          int units_per_weight) {
  if (units_per_weight == 1) return edges;
  std::vector<Edge> out;
  for (const Edge& e : edges) {
    const auto copies =
        static_cast<int>(std::lround(e.weight * units_per_weight));
    for (int i = 0; i < copies; ++i) out.push_back(Edge{e.src, e.dst, 1.0, 0});
  }
  return out;
}

/// One star per tenant, nine leaves at 11, local to its shard.
std::vector<Edge> TailStars(int units_per_weight) {
  std::vector<Edge> stars;
  for (VertexId base : {VertexId{0}, kVerticesPerTenant}) {
    for (VertexId leaf = 1; leaf <= 9; ++leaf) {
      stars.push_back(Edge{base, base + leaf, 11.0, 0});
    }
  }
  return InUnits(stars, units_per_weight);
}

/// The cross-shard community {hA, hB, l1, l2}: densest only merged
/// (13.0625 against each shard's own 9.25), and its last edge l1 -> l2 is
/// benign in shard 0 (each endpoint is at 7 + 0.25 there).
std::vector<Edge> TailCross(int units_per_weight) {
  const VertexId ha = kTailHa, l1 = kTailL1, hb = kTailHb, l2 = kTailL2;
  return InUnits({{ha, hb, 12.0, 0},
                  {hb, ha, 12.0, 0},
                  {l1, ha, 7.0, 0},
                  {hb, l1, 7.0, 0},
                  {l2, hb, 7.0, 0},
                  {ha, l2, 7.0, 0},
                  {l1, l2, 0.25, 0}},
                 units_per_weight);
}

// A stitch pass gathers benign-buffered edges along with the graphs, live
// and after a restore whose chain ends with them buffered; neither the
// pass's Drain nor the restore folds them. The cross-shard community
// {hA, hB, l1, l2} is densest only merged (13.0625 against each shard's
// own 9.25), and its last edge l1 -> l2 is benign in shard 0 (each
// endpoint is at 7 + 0.25 there): a stitch pass that gathered graphs
// without it would report 13.
TEST(MessageDrivenStitchingTest, StitchGathersBufferedBenignTail) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  const std::vector<Edge> stars = TailStars(1);
  const std::vector<Edge> cross = TailCross(1);
  const VertexId ha = kTailHa, l1 = kTailL1, hb = kTailHb, l2 = kTailL2;

  // One worker per partition, and both partitions on one worker: there
  // the second partition's restore must leave the first one's buffer.
  for (std::size_t per_worker : {1, 2}) {
    SCOPED_TRACE("partitions per worker: " + std::to_string(per_worker));
    ShardedDetectionServiceOptions options;
    options.partitioner = TenantPartitioner(kVerticesPerTenant);
    options.rebalance.partitions_per_shard = per_worker;
    ShardedDetectionService live(BuildEmptyShards(kShards, n), nullptr,
                                 options);
    const std::string dir = ::testing::TempDir() + "/restored_benign_tail";
    std::filesystem::remove_all(dir);
    SubmitAll(&live, stars);
    live.Drain();
    ASSERT_TRUE(live.SaveState(dir).ok());
    SubmitAll(&live, cross);
    live.Drain();
    ASSERT_EQ(PendingBenignEdges(live), 1u);  // l1 -> l2
    ShardedDetectionService::SaveInfo info;
    ASSERT_TRUE(live.SaveState(dir,
                               ShardedDetectionService::SaveMode::kDelta,
                               &info)
                    .ok());
    ASSERT_EQ(info.epoch, 2u);
    const GlobalCommunity stitched = live.StitchNow();
    EXPECT_EQ(PendingBenignEdges(live), 1u);
    ASSERT_TRUE(stitched.stitched);
    ASSERT_NEAR(stitched.density, 52.25 / 4, 1e-9);
    EXPECT_EQ(Sorted(stitched.members),
              (std::vector<VertexId>{ha, l1, hb, l2}));

    ShardedDetectionService restored(BuildEmptyShards(kShards, n), nullptr,
                                     options);
    ASSERT_TRUE(restored.RestoreState(dir).ok());
    ASSERT_EQ(PendingBenignEdges(restored), 1u);  // l1 -> l2
    const GlobalCommunity restitched = restored.StitchNow();
    EXPECT_EQ(PendingBenignEdges(restored), 1u);
    EXPECT_TRUE(restitched.stitched);
    EXPECT_NEAR(restitched.density, stitched.density, 1e-9);
    EXPECT_EQ(Sorted(restitched.members), Sorted(stitched.members));
    live.Stop();
    std::filesystem::remove_all(dir);
  }
}

// Drain and StitchNow fold nothing, yet answer as if they had. Windowless
// fleets at one and two partitions per worker, under DW and DG, take the
// buffered-tail history, whose cross-shard community is densest only
// merged and whose seam edges are partly buffered. After Drain(), every
// partition's community is the static peel of its graph + buffer, each
// worker publishes the densest of them, and StitchNow() equals the stitch
// of a fleet fed the same history and then folded by a full SaveState (a
// base holds no buffer).
TEST(MessageDrivenStitchingTest, DrainAndStitchMatchFoldedFleet) {
  constexpr std::size_t kShards = 2;
  const std::size_t n = kShards * kVerticesPerTenant;
  const Partitioner partitioner = TenantPartitioner(kVerticesPerTenant);
  for (const bool dg : {false, true}) {
    const int units = dg ? 4 : 1;
    std::vector<Edge> history = TailStars(units);
    const std::vector<Edge> cross = TailCross(units);
    history.insert(history.end(), cross.begin(), cross.end());
    for (std::size_t per_worker : {1, 2}) {
      SCOPED_TRACE(std::string(dg ? "DG" : "DW") +
                   ", partitions per worker: " + std::to_string(per_worker));
      ShardedDetectionServiceOptions options;
      options.partitioner = partitioner;
      options.rebalance.partitions_per_shard = per_worker;
      const auto build = [&] {
        auto fleet = std::make_unique<ShardedDetectionService>(
            BuildEmptyShards(kShards, n, dg ? MakeDG() : MakeDW()), nullptr,
            options);
        SubmitAll(fleet.get(), history);
        fleet->Drain();
        return fleet;
      };
      auto live = build();
      const GlobalCommunity stitched = live->StitchNow();
      ASSERT_TRUE(stitched.stitched);
      EXPECT_NEAR(stitched.density, units * 52.25 / 4, 1e-9);
      EXPECT_EQ(Sorted(stitched.members),
                Sorted({kTailHa, kTailL1, kTailHb, kTailL2}));

      // The seam is partly buffered: some buffered edge joins two
      // stitched members, and the Drain and the stitch pass left it there.
      std::size_t seam_buffered = 0;
      for (std::size_t pid = 0; pid < live->num_partitions(); ++pid) {
        ASSERT_TRUE(live->InspectPartition(pid, [&](const Spade& spade) {
                          testing::ExpectSameCommunity(
                              PeelStatic(testing::GraphWithBuffer(spade))
                                  .DetectCommunity(),
                              spade.peel_state().DetectCommunity());
                          for (const Edge& e : spade.benign_buffer()) {
                            const auto& m = stitched.members;
                            if (std::count(m.begin(), m.end(), e.src) > 0 &&
                                std::count(m.begin(), m.end(), e.dst) > 0) {
                              ++seam_buffered;
                            }
                          }
                        })
                        .ok());
      }
      EXPECT_GT(seam_buffered, 0u);
      // Each worker publishes its densest partition (ties: by density).
      for (std::size_t s = 0; s < live->num_shards(); ++s) {
        double densest = 0.0;
        for (std::size_t pid = 0; pid < live->num_partitions(); ++pid) {
          if (live->PartitionShard(pid) != s) continue;
          ASSERT_TRUE(live->InspectPartition(pid, [&](const Spade& spade) {
                            densest = std::max(
                                densest,
                                PeelStatic(testing::GraphWithBuffer(spade))
                                    .BestDensity());
                          })
                          .ok());
        }
        EXPECT_NEAR(live->ShardCommunity(s).density, densest,
                    1e-9 * std::max(1.0, densest))
            << "shard " << s;
      }

      auto folded = build();
      const std::string dir = ::testing::TempDir() + "/drain_stitch_folded";
      std::filesystem::remove_all(dir);
      ASSERT_TRUE(folded->SaveState(dir).ok());
      ASSERT_EQ(PendingBenignEdges(*folded), 0u);
      const GlobalCommunity want = folded->StitchNow();
      EXPECT_EQ(want.stitched, stitched.stitched);
      EXPECT_NEAR(stitched.density, want.density,
                  1e-9 * std::max(1.0, want.density));
      EXPECT_EQ(Sorted(stitched.members), Sorted(want.members));
      std::filesystem::remove_all(dir);
    }
  }
}

}  // namespace
}  // namespace spade
