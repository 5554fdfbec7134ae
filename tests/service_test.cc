// Tests for the single-node service (a one-shard ShardedDetectionService):
// multi-producer submission, draining, alerting, backpressure, shutdown
// semantics and save/restore.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "peel/static_peeler.h"
#include "service/sharded_detection_service.h"
#include "tests/test_util.h"

namespace spade {
namespace {

Spade MakeDetector(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> initial;
  for (std::size_t i = 0; i < m; ++i) {
    initial.push_back(testing::RandomEdge(&rng, n));
  }
  Spade spade;
  spade.SetSemantics(MakeDW());
  EXPECT_TRUE(spade.BuildGraph(n, initial).ok());
  return spade;
}

TEST(SingleNodeServiceTest, ProcessesSubmittedEdges) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(20, 60, 1)),
                                  nullptr);
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(service.Submit(testing::RandomEdge(&rng, 20)).ok());
  }
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 100u);
}

TEST(SingleNodeServiceTest, StateMatchesStaticAfterStop) {
  Rng rng(3);
  std::vector<Edge> updates;
  for (int i = 0; i < 200; ++i) updates.push_back(testing::RandomEdge(&rng, 25));

  ShardedDetectionService service(testing::OneShard(MakeDetector(25, 80, 3)),
                                  nullptr);
  for (const Edge& e : updates) {
    ASSERT_TRUE(service.Submit(e).ok());
  }
  service.Stop();

  // Reference: same edges through a plain single-threaded detector.
  Spade reference = MakeDetector(25, 80, 3);
  for (const Edge& e : updates) {
    ASSERT_TRUE(reference.InsertEdge(e).ok());
  }
  const Community expected = reference.Detect();
  // The service's detector is gone after Stop(); compare what it last
  // reported through CurrentCommunity before... instead restart pattern:
  // use a fresh service and compare live.
  ShardedDetectionService service2(testing::OneShard(MakeDetector(25, 80, 3)),
                                  nullptr);
  for (const Edge& e : updates) {
    ASSERT_TRUE(service2.Submit(e).ok());
  }
  service2.Drain();
  Community got = service2.CurrentCommunity();
  std::sort(got.members.begin(), got.members.end());
  Community want = expected;
  std::sort(want.members.begin(), want.members.end());
  EXPECT_EQ(got.members, want.members);
  EXPECT_NEAR(got.density, want.density, 1e-9);
}

TEST(SingleNodeServiceTest, AlertsFireOnCommunityChange) {
  std::atomic<int> alerts{0};
  std::atomic<std::size_t> last_size{0};
  ShardedDetectionService service(
      testing::OneShard(MakeDetector(12, 30, 4)),
      [&](std::size_t /*shard*/, const Community& c) {
        ++alerts;
        last_size = c.members.size();
      });
  // A burst that forms a brand-new densest ring must trigger an alert.
  for (const Edge& e : std::vector<Edge>{{0, 1, 500.0, 0},
                                         {1, 2, 500.0, 1},
                                         {2, 0, 500.0, 2}}) {
    ASSERT_TRUE(service.Submit(e).ok());
  }
  service.Drain();
  service.Stop();
  EXPECT_GT(alerts.load(), 0);
  EXPECT_GT(service.AlertsDelivered(), 0u);
  EXPECT_GT(last_size.load(), 0u);
}

TEST(SingleNodeServiceTest, ConcurrentProducers) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(30, 100, 5)),
                                  nullptr);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::vector<std::thread> producers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        if (!service.Submit(testing::RandomEdge(&rng, 30)).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& p : producers) p.join();
  service.Drain();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(service.EdgesProcessed(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(SingleNodeServiceTest, SubmitAfterStopFails) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(10, 20, 6)),
                                  nullptr);
  service.Stop();
  const Status s = service.Submit({0, 1, 1.0, 0});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(SingleNodeServiceTest, StopIsIdempotent) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(10, 20, 7)),
                                  nullptr);
  ASSERT_TRUE(service.Submit({0, 1, 1.0, 0}).ok());
  service.Stop();
  service.Stop();
  EXPECT_EQ(service.EdgesProcessed(), 1u);
}

TEST(SingleNodeServiceTest, InvalidEdgesAreDroppedNotFatal) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(10, 20, 8)),
                                  nullptr);
  ASSERT_TRUE(service.Submit({0, 0, 1.0, 0}).ok());   // self-loop: dropped
  ASSERT_TRUE(service.Submit({0, 1, -1.0, 0}).ok());  // bad weight: dropped
  ASSERT_TRUE(service.Submit({0, 1, 1.0, 0}).ok());
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 1u);
}

TEST(SingleNodeServiceTest, SubmitBatchCountsAll) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(20, 60, 9)),
                                  nullptr);
  Rng rng(10);
  std::vector<Edge> batch;
  for (int i = 0; i < 100; ++i) batch.push_back(testing::RandomEdge(&rng, 20));
  ASSERT_TRUE(service.SubmitBatch(batch).ok());
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 100u);
}

/// Blocks the worker inside the first alert callback (no service lock is
/// held there), so tests can fill the submission queue deterministically.
class WorkerStall {
 public:
  ShardAlertFn Callback() {
    return [this](std::size_t, const Community&) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stalled_once_) return;  // only the first alert stalls
      stalled_once_ = true;
      entered_ = true;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    };
  }
  void AwaitWorkerStalled() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    release_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool stalled_once_ = false;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SingleNodeServiceTest, BackpressureFailFast) {
  WorkerStall stall;
  ShardedDetectionServiceOptions options;
  options.shard.max_queue = 2;
  options.shard.block_when_full = false;
  ShardedDetectionService service(testing::OneShard(MakeDetector(12, 30, 11)),
                                  stall.Callback(), options);
  // A heavy ring edge guarantees a community change -> alert -> stall.
  ASSERT_TRUE(service.Submit({0, 1, 1e6, 0}).ok());
  stall.AwaitWorkerStalled();
  // The worker is parked inside the callback; fill the queue to the brim.
  ASSERT_TRUE(service.Submit({1, 2, 1.0, 0}).ok());
  ASSERT_TRUE(service.Submit({2, 3, 1.0, 0}).ok());
  const Status full = service.Submit({3, 4, 1.0, 0});
  ASSERT_FALSE(full.ok());
  EXPECT_EQ(full.code(), StatusCode::kOutOfRange);
  stall.Release();
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 3u);
}

TEST(SingleNodeServiceTest, BackpressureBlocking) {
  WorkerStall stall;
  ShardedDetectionServiceOptions options;
  options.shard.max_queue = 2;
  options.shard.block_when_full = true;
  ShardedDetectionService service(testing::OneShard(MakeDetector(12, 30, 11)),
                                  stall.Callback(), options);
  ASSERT_TRUE(service.Submit({0, 1, 1e6, 0}).ok());
  stall.AwaitWorkerStalled();
  // With the worker stalled and capacity 2, five submissions exceed the
  // queue; in blocking mode none may fail — the producer must block until
  // the worker frees space.
  std::atomic<int> ok_count{0};
  std::thread producer([&] {
    for (int i = 0; i < 5; ++i) {
      if (service.Submit({static_cast<VertexId>(i),
                          static_cast<VertexId>(i + 1), 1.0, 0})
              .ok()) {
        ++ok_count;
      }
    }
  });
  stall.Release();
  producer.join();
  EXPECT_EQ(ok_count.load(), 5);
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 6u);
}

// Fail-fast + partial accept: without `accepted`, SubmitBatch keeps its
// all-or-nothing contract; with it, the prefix that fits is enqueued and
// reported exactly.
TEST(SingleNodeServiceTest, FailFastPartialBatchReportsAcceptedPrefix) {
  WorkerStall stall;
  ShardedDetectionServiceOptions options;
  options.shard.max_queue = 4;
  options.shard.block_when_full = false;
  ShardedDetectionService service(testing::OneShard(MakeDetector(12, 30, 21)),
                                  stall.Callback(), options);
  ASSERT_TRUE(service.Submit({0, 1, 1e6, 0}).ok());
  stall.AwaitWorkerStalled();

  std::vector<Edge> chunk;
  for (int i = 1; i <= 6; ++i) {
    chunk.push_back({static_cast<VertexId>(i),
                     static_cast<VertexId>(i + 1), 1.0, 0});
  }
  // All-or-nothing: a chunk that can never fit is rejected outright and
  // nothing is enqueued.
  Status s = service.SubmitBatch(chunk);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);

  // Best-effort: exactly the free budget (4) is accepted as a prefix.
  std::size_t accepted = 0;
  s = service.SubmitBatch(chunk, &accepted);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(accepted, 4u);

  // Queue now full: the next best-effort call accepts exactly nothing.
  std::size_t more = 0;
  s = service.SubmitBatch(chunk, &more);
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(more, 0u);

  stall.Release();
  service.Drain();
  EXPECT_EQ(service.EdgesProcessed(), 1u + 4u);
}

// Blocking + Stop mid-wait: the already-handed-over prefix is counted
// exactly — the "shard partially accepts under backpressure" accounting
// the sharded service's `enqueued` sums rely on.
TEST(SingleNodeServiceTest, BlockingStopReportsExactAcceptedPrefix) {
  WorkerStall stall;
  ShardedDetectionServiceOptions options;
  options.shard.max_queue = 2;
  options.shard.block_when_full = true;
  ShardedDetectionService service(testing::OneShard(MakeDetector(12, 30, 22)),
                                  stall.Callback(), options);
  ASSERT_TRUE(service.Submit({0, 1, 1e6, 0}).ok());
  stall.AwaitWorkerStalled();
  ASSERT_TRUE(service.Submit({1, 2, 1.0, 0}).ok());  // queue: 1/2

  const std::vector<Edge> chunk = {{2, 3, 1.0, 0}, {3, 4, 1.0, 0},
                                   {4, 5, 1.0, 0}};
  std::size_t accepted = 0;
  Status result;
  std::thread producer([&] {
    result = service.SubmitBatch(std::span<const Edge>(chunk), &accepted);
  });
  // The first piece (1 edge, the free budget) lands; the producer then
  // blocks for the remainder.
  while (service.MaxQueueDepth() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stop() unblocks the producer with the prefix counted; the worker is
  // still parked in the stalled alert, so run Stop from its own thread
  // and release the stall for the shutdown drain.
  std::thread stopper([&] { service.Stop(); });
  producer.join();
  EXPECT_EQ(result.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(accepted, 1u);
  stall.Release();
  stopper.join();
  // Stop drains queued edges first: heavy + pre-fill + the accepted piece.
  EXPECT_EQ(service.EdgesProcessed(), 3u);
}

// "Accepted before Stop() => applied", under a race: four producers mix
// Submit and SubmitBatch (all-or-nothing and accepted-prefix) against a
// small queue while another thread calls Stop(). Every edge a call reported
// accepted must be applied, none other, and every call after Stop() must
// fail. Rounds alternate fail-fast and blocking mode, so producers race
// Stop() both at the push and parked in the backpressure wait.
TEST(SingleNodeServiceTest, AcceptedSubmitsRacingStopAreApplied) {
  constexpr int kRounds = 40;
  constexpr int kProducers = 4;
  constexpr VertexId kVertices = 20;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ShardedDetectionServiceOptions options;
    options.shard.max_queue = 32;
    options.shard.block_when_full = round % 2 == 1;
    const auto seed = 500 + static_cast<std::uint64_t>(round);
    ShardedDetectionService service(
        testing::OneShard(MakeDetector(kVertices, 60, seed)), nullptr,
        options);
    std::atomic<std::uint64_t> accepted_total{0};
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        std::vector<Edge> chunk;
        for (std::uint64_t i = 0;; ++i) {
          // Valid edges only (no self-loop), so every accepted edge counts.
          const auto edge_at = [&](std::uint64_t k) {
            const auto src = static_cast<VertexId>((k + t) % kVertices);
            const auto dst =
                static_cast<VertexId>((src + 1 + k % 7) % kVertices);
            return Edge{src, dst, 1.0, 0};
          };
          chunk.clear();
          for (std::uint64_t k = 0; k < 1 + i % 8; ++k) {
            chunk.push_back(edge_at(i + k));
          }
          Status s;
          std::uint64_t got = 0;
          switch (i % 3) {
            case 0:
              s = service.Submit(chunk.front());
              if (s.ok()) got = 1;
              break;
            case 1:
              s = service.SubmitBatch(chunk);
              if (s.ok()) got = chunk.size();
              break;
            default: {
              std::size_t accepted = 0;
              s = service.SubmitBatch(chunk, &accepted);
              got = accepted;
              break;
            }
          }
          accepted_total.fetch_add(got, std::memory_order_relaxed);
          if (s.code() == StatusCode::kFailedPrecondition) return;
          ASSERT_TRUE(s.ok() || s.code() == StatusCode::kOutOfRange)
              << s.ToString();
        }
      });
    }
    std::thread stopper([&] {
      while (service.EdgesProcessed() < 64) std::this_thread::yield();
      service.Stop();
    });
    for (auto& p : producers) p.join();
    stopper.join();
    EXPECT_EQ(service.EdgesProcessed(), accepted_total.load());

    const std::vector<Edge> late = {{0, 1, 1.0, 0}, {1, 2, 1.0, 0}};
    EXPECT_EQ(service.Submit(late[0]).code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(service.SubmitBatch(late).code(),
              StatusCode::kFailedPrecondition);
    std::size_t late_accepted = 7;
    EXPECT_EQ(service.SubmitBatch(late, &late_accepted).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(late_accepted, 0u);
    EXPECT_EQ(service.EdgesProcessed(), accepted_total.load());
  }
}

// Neither the detect_every cadence nor a Drain folds the benign buffer, so
// on a fully benign stream the detector's max_benign_buffer cap is what
// bounds it. After the Drain every fed edge is in the graph or the buffer,
// the peel state is tie-exact with a static peel of the graph, and the
// published community is that of graph + buffer.
TEST(SingleNodeServiceTest, BenignBufferCapBoundsPendingEdges) {
  constexpr std::size_t kCap = 64;
  constexpr VertexId kClique = 10;
  constexpr VertexId kVertices = 1010;
  constexpr std::size_t kFed = 1000;
  // A heavy clique sets the community density far above anything the
  // light background edges can reach, so every fed edge is benign.
  std::vector<Edge> initial;
  for (VertexId u = 0; u < kClique; ++u) {
    for (VertexId v = u + 1; v < kClique; ++v) {
      initial.push_back({u, v, 100.0, 0});
    }
  }
  Spade spade(SpadeOptions{.max_benign_buffer = kCap});
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(kVertices, initial).ok());
  ShardedDetectionService service(testing::OneShard(std::move(spade)),
                                  nullptr);

  Rng rng(64);
  std::size_t fed = 0;
  while (fed < kFed) {
    for (int i = 0; i < 50; ++i, ++fed) {
      const auto u = static_cast<VertexId>(
          kClique + rng.NextBounded(kVertices - kClique));
      auto v = static_cast<VertexId>(
          kClique + rng.NextBounded(kVertices - kClique));
      while (v == u) {
        v = static_cast<VertexId>(
            kClique + rng.NextBounded(kVertices - kClique));
      }
      ASSERT_TRUE(service.Submit({u, v, 1.0, 0}).ok());
    }
    service.InspectShard(0, [&](const Spade& s) {
      EXPECT_LE(s.PendingBenignEdges(), kCap);
    });
  }
  while (service.EdgesProcessed() < kFed) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.InspectShard(0, [&](const Spade& s) {
    EXPECT_LE(s.PendingBenignEdges(), kCap);
    // Everything but the buffered tail reached the graph: the cap folded
    // it, not the publish cadence (detect_every stays at its default 256).
    EXPECT_EQ(s.graph().NumEdges() + s.PendingBenignEdges(),
              initial.size() + kFed);
    EXPECT_GE(s.graph().NumEdges(), initial.size() + kFed - kCap);
  });

  service.Drain();
  std::size_t pending = 0;
  Community folded;
  service.InspectShard(0, [&](const Spade& s) {
    pending = s.PendingBenignEdges();
    EXPECT_GT(pending, 0u);
    EXPECT_LE(pending, kCap);
    EXPECT_EQ(s.graph().NumEdges() + pending, initial.size() + kFed);
    EXPECT_GE(s.graph().NumEdges(), initial.size() + kFed - kCap);
    testing::ExpectStateEquals(PeelStatic(s.graph()), s.peel_state(), 0.0);
    folded = PeelStatic(testing::GraphWithBuffer(s)).DetectCommunity();
  });
  EXPECT_EQ(service.GetStats().shard_pending_benign,
            std::vector<std::size_t>{pending});
  const Community published = service.CurrentCommunity();
  testing::ExpectSameCommunity(folded, published);
  EXPECT_EQ(published.members.size(), kClique);
  EXPECT_DOUBLE_EQ(published.density, 45 * 100.0 / kClique);
}

// An urgent edge that arrives over a still-benign buffer is reordered on
// its own: the shard publishes (and alerts) right away, before any Drain,
// and the buffer stays buffered through the Drain, which alerts no more.
TEST(SingleNodeServiceTest, UrgentEdgeOverBufferAlertsBeforeDrain) {
  constexpr VertexId kClique = 10;
  constexpr VertexId kVertices = 1010;
  constexpr std::size_t kBenign = 40;
  std::vector<Edge> initial;
  for (VertexId u = 0; u < kClique; ++u) {
    for (VertexId v = u + 1; v < kClique; ++v) {
      initial.push_back({u, v, 100.0, 0});
    }
  }
  Spade spade;
  spade.SetSemantics(MakeDW());
  ASSERT_TRUE(spade.BuildGraph(kVertices, initial).ok());
  std::atomic<int> alerts{0};
  std::atomic<double> alerted_density{0.0};
  ShardedDetectionService service(
      testing::OneShard(std::move(spade)),
      [&](std::size_t /*shard*/, const Community& c) {
        alerted_density = c.density;
        ++alerts;
      });
  EXPECT_DOUBLE_EQ(service.CurrentCommunity().density, 450.0);

  // Light background edges: all benign against the clique's 450.
  Rng rng(41);
  for (std::size_t i = 0; i < kBenign; ++i) {
    const auto u = static_cast<VertexId>(
        kClique + rng.NextBounded(kVertices - kClique));
    auto v = static_cast<VertexId>(
        kClique + rng.NextBounded(kVertices - kClique));
    while (v == u) {
      v = static_cast<VertexId>(
          kClique + rng.NextBounded(kVertices - kClique));
    }
    ASSERT_TRUE(service.Submit({u, v, 1.0, 0}).ok());
  }
  // A heavier clique edge raises the density to (4500 + 500) / 10.
  ASSERT_TRUE(service.Submit({0, 1, 500.0, 0}).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((service.EdgesProcessed() < kBenign + 1 || alerts.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(service.EdgesProcessed(), kBenign + 1);
  ASSERT_EQ(alerts.load(), 1);
  EXPECT_DOUBLE_EQ(alerted_density.load(), 500.0);
  EXPECT_DOUBLE_EQ(service.CurrentCommunity().density, 500.0);
  service.InspectShard(0, [&](const Spade& s) {
    EXPECT_EQ(s.PendingBenignEdges(), kBenign);
  });

  service.Drain();
  Community folded;
  service.InspectShard(0, [&](const Spade& s) {
    EXPECT_EQ(s.PendingBenignEdges(), kBenign);
    EXPECT_EQ(s.graph().NumEdges(), initial.size() + 1);
    EXPECT_EQ(s.graph().NumEdges() + s.PendingBenignEdges(),
              initial.size() + kBenign + 1);
    folded = PeelStatic(testing::GraphWithBuffer(s)).DetectCommunity();
  });
  const Community published = service.CurrentCommunity();
  testing::ExpectSameCommunity(folded, published);
  EXPECT_EQ(published.members.size(), kClique);
  EXPECT_DOUBLE_EQ(published.density, 500.0);
  EXPECT_EQ(alerts.load(), 1);
}

// The alert filter compares densities within 1e-9 relative: a reorder that
// moves BestDensity() by an ulp with the same members is no new community,
// a move of 1e-6 relative is.
TEST(SingleNodeServiceTest, SameDensityAbsorbsUlpDriftOnly) {
  for (const double d : {0.25, 1.0, 502.05, 1e7}) {
    EXPECT_TRUE(SameDensity(d, d));
    EXPECT_TRUE(SameDensity(d, std::nextafter(d, 0.0)));
    EXPECT_TRUE(SameDensity(std::nextafter(d, 1e300), d));
    EXPECT_FALSE(SameDensity(d, d * (1 + 1e-6)));
    EXPECT_FALSE(SameDensity(d * (1 - 1e-6), d));
  }
  EXPECT_FALSE(SameDensity(0.0, -1.0));  // an empty community vs no baseline
}

// The satellite concurrency stress: multiple producers while readers poll
// CurrentCommunity() and the counters. Run under TSan in CI, this also
// proves the read path touches no apply-path lock (a reader blocked behind
// a long apply would be a lost-wakeup-style regression; a racy snapshot
// would be a TSan report).
TEST(SingleNodeServiceTest, ConcurrentProducersAndReaders) {
  ShardedDetectionService service(testing::OneShard(MakeDetector(40, 150, 12)),
                                  nullptr);
  constexpr int kProducers = 4;
  constexpr int kPerThread = 250;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> reads{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_relaxed)) {
        const Community c = service.CurrentCommunity();
        if (c.density < 0.0) ++failures;  // snapshots are never invalid
        (void)service.EdgesProcessed();
        (void)service.AlertsDelivered();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      Rng rng(300 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        if (!service.Submit(testing::RandomEdge(&rng, 40)).ok()) ++failures;
      }
    });
  }
  for (auto& p : producers) p.join();
  service.Drain();
  done = true;
  for (auto& r : readers) r.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.EdgesProcessed(),
            static_cast<std::uint64_t>(kProducers * kPerThread));
}

TEST(SingleNodeServiceTest, SaveRestoreRoundTrip) {
  const std::string dir = ::testing::TempDir() + "/service_snapshot";
  std::filesystem::remove_all(dir);
  Community saved;
  {
    ShardedDetectionService service(testing::OneShard(MakeDetector(20, 60, 13)),
                                  nullptr);
    Rng rng(14);
    for (int i = 0; i < 150; ++i) {
      ASSERT_TRUE(service.Submit(testing::RandomEdge(&rng, 20)).ok());
    }
    ASSERT_TRUE(service.SaveState(dir).ok());
    service.Drain();
    saved = service.CurrentCommunity();
  }
  Spade fresh;
  fresh.SetSemantics(MakeDW());
  ASSERT_TRUE(fresh.BuildGraph(0, {}).ok());
  ShardedDetectionService restored(testing::OneShard(std::move(fresh)),
                                   nullptr);
  ASSERT_TRUE(restored.RestoreState(dir).ok());
  Community got = restored.CurrentCommunity();
  std::sort(got.members.begin(), got.members.end());
  std::sort(saved.members.begin(), saved.members.end());
  EXPECT_EQ(got.members, saved.members);
  EXPECT_NEAR(got.density, saved.density, 1e-9);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spade
