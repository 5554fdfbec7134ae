// Work-stealing rebalance benchmark: hot-tenant-skewed end-to-end
// throughput at 8 shards x 4 partitions each, rebalance OFF vs ON, plus a
// uniform-admission control.
//
// Skewed workload: 32 tenants (one partition each), four "hot" tenants
// (0, 8, 16, 24) carry ~60% of the stream. Under the identity placement
// pid % 8 every hot partition starts on shard 0, so the OFF run serializes
// the majority of the stream behind one worker while seven idle. The ON
// run lets the rebalancer steal hot partitions onto idle workers
// mid-stream. Reported per mode: end-to-end throughput (submit start ->
// drained) and the steals and forwarded edges of the fastest rep, and the
// busiest shard's share of applied edges (the balance the stealer achieves
// — meaningful at every core count) as the median over the reps. With the
// stealer on, the share counts only the edges applied after the first
// observed steal (per-shard EdgesProcessed deltas from that point), so it
// measures the placement the stealer reached, not when it first fired;
// the whole-run share is reported next to it.
//
// The 1.5x end-to-end target only materializes when workers run on their
// own cores: on a single-core box every worker time-shares one CPU, so
// moving a partition cannot change the serial apply total. The emitted
// JSON records cores_available; the CI gate applies the speedup bar only
// when the machine can express parallelism, and gates the balance + steal
// counters (and the uniform-admission control) everywhere.
//
// Uniform control: evenly spread traffic, admission measured against
// parked consumers (same latch technique as bench_ingest) — the
// partition-map indirection on the submit path must cost nothing
// measurable, OFF vs ON.
//
// Emits BENCH_rebalance.json (path = argv[1], default ./). The repo
// commits a reference copy; CI re-runs the bench, uploads the fresh JSON,
// and gates against the committed numbers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_meta.h"
#include "common/rng.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"

namespace spade::bench {
namespace {

struct RebalanceConfig {
  std::size_t partitions = 32;  // tenants == partitions
  std::size_t shards = 8;       // partitions_per_shard = 4
  std::size_t vertices_per_tenant = 2048;
  std::size_t initial_per_tenant = 500;
  std::size_t stream_edges = 60'000;
  /// Fraction (per mille) of the skewed stream on the four hot tenants.
  std::size_t hot_per_mille = 600;
  std::size_t producers = 4;
  std::size_t detect_every = 2048;
  /// Whale clique per tenant keeps routine traffic benign-buffered (see
  /// bench_ingest) so the runs measure ingest + steals, not detection.
  std::size_t whale_size = 8;
  std::size_t whale_edges = 100;
  double whale_weight = 40.0;
  std::uint64_t seed = 4321;
};

Edge RandomTenantEdge(Rng* rng, VertexId base, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{static_cast<VertexId>(base + s), static_cast<VertexId>(base + d),
              1.0 + 9.0 * rng->NextDouble(), 0};
}

std::vector<Edge> BuildInitial(const RebalanceConfig& cfg, Rng* rng) {
  std::vector<Edge> initial;
  for (std::size_t t = 0; t < cfg.partitions; ++t) {
    const auto base = static_cast<VertexId>(t * cfg.vertices_per_tenant);
    for (std::size_t i = 0; i < cfg.initial_per_tenant; ++i) {
      initial.push_back(RandomTenantEdge(rng, base, cfg.vertices_per_tenant));
    }
    for (std::size_t i = 0; i < cfg.whale_edges; ++i) {
      const auto a =
          static_cast<VertexId>(base + rng->NextBounded(cfg.whale_size));
      auto b = static_cast<VertexId>(base + rng->NextBounded(cfg.whale_size));
      while (b == a) {
        b = static_cast<VertexId>(base + rng->NextBounded(cfg.whale_size));
      }
      initial.push_back(
          Edge{a, b, cfg.whale_weight * (0.9 + 0.2 * rng->NextDouble()), 0});
    }
  }
  return initial;
}

/// `skewed` concentrates hot_per_mille of the edges on tenants ≡ 0 mod 8
/// (all of which the identity placement parks on shard 0); uniform spreads
/// them round-robin.
std::vector<Edge> BuildStream(const RebalanceConfig& cfg, bool skewed,
                              Rng* rng) {
  std::vector<Edge> stream;
  stream.reserve(cfg.stream_edges);
  const std::size_t hot_count = cfg.partitions / 8;  // tenants 0,8,16,24
  for (std::size_t i = 0; i < cfg.stream_edges; ++i) {
    std::size_t tenant;
    if (skewed) {
      tenant = rng->NextBounded(1000) < cfg.hot_per_mille
                   ? 8 * rng->NextBounded(hot_count)
                   : rng->NextBounded(cfg.partitions);
    } else {
      tenant = i % cfg.partitions;
    }
    const auto base = static_cast<VertexId>(tenant * cfg.vertices_per_tenant);
    Edge e = RandomTenantEdge(rng, base, cfg.vertices_per_tenant);
    e.ts = static_cast<Timestamp>(i);
    stream.push_back(e);
  }
  return stream;
}

std::vector<Spade> BuildPartitions(const RebalanceConfig& cfg,
                                   const std::vector<Edge>& initial) {
  const std::size_t n = cfg.partitions * cfg.vertices_per_tenant;
  std::vector<std::vector<Edge>> parts(cfg.partitions);
  for (const Edge& e : initial) {
    parts[(e.src / cfg.vertices_per_tenant) % cfg.partitions].push_back(e);
  }
  std::vector<Spade> shards;
  shards.reserve(cfg.partitions);
  for (std::size_t p = 0; p < cfg.partitions; ++p) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    const Status st = spade.BuildGraph(n, parts[p]);
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  return shards;
}

ShardedDetectionServiceOptions BaseOptions(const RebalanceConfig& cfg,
                                           bool rebalance_on) {
  ShardedDetectionServiceOptions options;
  options.partitioner =
      TenantPartitioner(static_cast<VertexId>(cfg.vertices_per_tenant));
  options.shard.detect_every = cfg.detect_every;
  options.shard.block_when_full = true;
  options.rebalance.partitions_per_shard = cfg.partitions / cfg.shards;
  options.rebalance.enabled = rebalance_on;
  if (rebalance_on) {
    options.rebalance.interval_ms = 5;
    options.rebalance.skew_ratio = 2.0;
    options.rebalance.min_queue_depth = 64;
    options.rebalance.min_improvement = 0.02;
    options.rebalance.cooldown_ms = 20;
    options.rebalance.quiesce_timeout_ms = 5;
  }
  return options;
}

struct Entry {
  bool rebalance_on = false;
  double wall_s = 0.0;
  double eps = 0.0;            // end-to-end (drained)
  double admission_eps = 0.0;  // producers-done
  /// Busiest shard's fraction of the edges applied after the first
  /// observed steal (the whole run when nothing was stolen).
  double max_share = 0.0;
  double max_share_all = 0.0;  // the same over the whole run
  std::uint64_t steals = 0;
  std::uint64_t moved = 0;
  std::uint64_t forwarded = 0;
};

/// One skewed end-to-end run: bounded queues tie the producers to the
/// workers' pace, so the wall clock is apply-side — exactly where a steal
/// pays (or visibly cannot, on one core).
Entry RunSkewed(const RebalanceConfig& cfg, const std::vector<Edge>& initial,
                const std::vector<Edge>& stream, bool rebalance_on) {
  ShardedDetectionServiceOptions options = BaseOptions(cfg, rebalance_on);
  options.shard.max_queue = 8192;
  ShardedDetectionService service(BuildPartitions(cfg, initial), nullptr,
                                  options);

  // Per-shard applied counts at the first observed steal. Polled in both
  // modes (every millisecond until drained), so OFF and ON pay the same.
  std::vector<std::uint64_t> at_first_steal(cfg.shards, 0);
  std::atomic<bool> drained{false};
  std::thread watcher([&] {
    bool seen = false;
    while (!drained.load(std::memory_order_acquire)) {
      if (!seen) {
        const ShardedServiceStats stats = service.GetStats();
        if (stats.steals > 0) {
          at_first_steal = stats.shard_edges;
          seen = true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = stream.size();
  constexpr std::size_t kChunk = 1024;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(cfg.producers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t start =
            cursor.fetch_add(kChunk, std::memory_order_relaxed);
        if (start >= n) break;
        const std::size_t end = std::min(start + kChunk, n);
        (void)service.SubmitBatch(
            std::span<const Edge>(stream.data() + start, end - start),
            nullptr);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double submit_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  service.Drain();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  drained.store(true, std::memory_order_release);
  watcher.join();

  Entry e;
  e.rebalance_on = rebalance_on;
  e.wall_s = wall_s;
  e.eps = static_cast<double>(n) / wall_s;
  e.admission_eps = static_cast<double>(n) / submit_s;
  const ShardedServiceStats stats = service.GetStats();
  const auto busiest_share = [&](const std::vector<std::uint64_t>& since) {
    std::uint64_t total = 0, peak = 0;
    for (std::size_t s = 0; s < stats.shard_edges.size(); ++s) {
      const std::uint64_t edges = stats.shard_edges[s] - since[s];
      total += edges;
      peak = std::max(peak, edges);
    }
    return total > 0 ? static_cast<double>(peak) / static_cast<double>(total)
                     : 0.0;
  };
  e.max_share = busiest_share(at_first_steal);
  e.max_share_all =
      busiest_share(std::vector<std::uint64_t>(stats.shard_edges.size(), 0));
  e.steals = stats.steals;
  e.moved = stats.partitions_moved;
  e.forwarded = stats.forwarded_edges;
  service.Stop();
  return e;
}

/// Uniform admission control with parked consumers (bench_ingest's latch):
/// measures only the router -> worker handoff, where the rebalance mode
/// adds its partition-map read.
Entry RunUniformAdmission(const RebalanceConfig& cfg,
                          const std::vector<Edge>& initial,
                          const std::vector<Edge>& stream, bool rebalance_on) {
  ShardedDetectionServiceOptions options = BaseOptions(cfg, rebalance_on);
  // Nothing drains while producers run; the whole stream must fit.
  options.shard.max_queue = stream.size() + 64;
  if (rebalance_on) {
    // Parked consumers mean unbounded apparent skew; freeze the stealer so
    // the control measures the submit path, not quiesce stalls.
    options.rebalance.interval_ms = 0;
  }

  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool latch_open = false;
  ShardedDetectionService service(
      BuildPartitions(cfg, initial),
      [&](std::size_t, const Community&) {
        std::unique_lock<std::mutex> lock(latch_mutex);
        latch_cv.wait(lock, [&] { return latch_open; });
      },
      options);

  for (std::size_t t = 0; t < cfg.partitions; ++t) {
    const auto base = static_cast<VertexId>(t * cfg.vertices_per_tenant);
    const Edge plug{base, static_cast<VertexId>(base + 1),
                    cfg.whale_weight * 1000.0, 0};
    (void)service.Submit(plug);
  }
  while (service.AlertsDelivered() < cfg.shards) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = stream.size();
  constexpr std::size_t kChunk = 1024;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(cfg.producers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t start =
            cursor.fetch_add(kChunk, std::memory_order_relaxed);
        if (start >= n) break;
        const std::size_t end = std::min(start + kChunk, n);
        std::size_t enqueued = 0;
        (void)service.SubmitBatch(
            std::span<const Edge>(stream.data() + start, end - start),
            &enqueued);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double submit_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  {
    std::lock_guard<std::mutex> lock(latch_mutex);
    latch_open = true;
  }
  latch_cv.notify_all();
  service.Drain();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

  Entry e;
  e.rebalance_on = rebalance_on;
  e.wall_s = wall_s;
  e.eps = static_cast<double>(n) / wall_s;
  e.admission_eps = static_cast<double>(n) / submit_s;
  service.Stop();
  return e;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  using namespace spade::bench;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  RebalanceConfig cfg;
  spade::Rng rng(cfg.seed);
  const std::vector<spade::Edge> initial = BuildInitial(cfg, &rng);
  const std::vector<spade::Edge> skewed_stream = BuildStream(cfg, true, &rng);
  const std::vector<spade::Edge> uniform_stream =
      BuildStream(cfg, false, &rng);
  const unsigned cores = CoresAvailable();
  std::printf("# rebalance bench: %zu partitions on %zu shards, %zu stream "
              "edges (%zu%% hot on shard 0's partitions), %u core(s)\n\n",
              cfg.partitions, cfg.shards, cfg.stream_edges,
              cfg.hot_per_mille / 10, cores);

  // Warm-up (allocator + page-fault cold start).
  (void)RunSkewed(cfg, initial, skewed_stream, false);

  constexpr int kReps = 3;
  // Throughput is the best rep's; both busiest-shard shares are medians
  // over the reps, so one rep whose steals landed late or early does not
  // decide the balance gate on its own.
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const auto best_skewed = [&](bool on) {
    Entry best;
    std::vector<double> shares, shares_all;
    for (int r = 0; r < kReps; ++r) {
      const Entry e = RunSkewed(cfg, initial, skewed_stream, on);
      std::printf("# skew-%s rep %d: %.0f eps, busiest shard %.2f%% after "
                  "the first steal, %.2f%% whole run\n",
                  on ? "on" : "off", r + 1, e.eps, 100.0 * e.max_share,
                  100.0 * e.max_share_all);
      shares.push_back(e.max_share);
      shares_all.push_back(e.max_share_all);
      if (e.eps > best.eps) best = e;
    }
    best.max_share = median(shares);
    best.max_share_all = median(shares_all);
    return best;
  };
  const auto best_uniform = [&](bool on) {
    Entry best;
    for (int r = 0; r < kReps; ++r) {
      const Entry e = RunUniformAdmission(cfg, initial, uniform_stream, on);
      if (e.admission_eps > best.admission_eps) best = e;
    }
    return best;
  };

  const Entry skew_off = best_skewed(false);
  const Entry skew_on = best_skewed(true);
  std::printf("\n%10s %9s %12s %12s %10s %7s %10s\n", "mode", "wall(s)",
              "e2e-eps", "admit-eps", "max-share", "steals", "forwarded");
  std::printf("%10s %9.3f %12.0f %12.0f %9.1f%% %7llu %10llu\n", "skew-off",
              skew_off.wall_s, skew_off.eps, skew_off.admission_eps,
              100.0 * skew_off.max_share,
              static_cast<unsigned long long>(skew_off.steals),
              static_cast<unsigned long long>(skew_off.forwarded));
  std::printf("%10s %9.3f %12.0f %12.0f %9.1f%% %7llu %10llu\n", "skew-on",
              skew_on.wall_s, skew_on.eps, skew_on.admission_eps,
              100.0 * skew_on.max_share,
              static_cast<unsigned long long>(skew_on.steals),
              static_cast<unsigned long long>(skew_on.forwarded));

  const Entry uni_off = best_uniform(false);
  const Entry uni_on = best_uniform(true);
  std::printf("%10s %9.3f %12.0f %12.0f\n", "uni-off", uni_off.wall_s,
              uni_off.eps, uni_off.admission_eps);
  std::printf("%10s %9.3f %12.0f %12.0f\n", "uni-on", uni_on.wall_s,
              uni_on.eps, uni_on.admission_eps);

  const double speedup = skew_off.eps > 0.0 ? skew_on.eps / skew_off.eps : 0.0;
  const double admission_ratio = uni_off.admission_eps > 0.0
                                     ? uni_on.admission_eps /
                                           uni_off.admission_eps
                                     : 0.0;
  std::printf("\n# skewed e2e speedup (on/off): %.2fx%s\n", speedup,
              cores < cfg.shards
                  ? "  [workers time-share cores; speedup needs cores >= "
                    "shards]"
                  : "");
  std::printf("# busiest-shard share: %.1f%% -> %.1f%% after the first "
              "steal (%.1f%% whole run)\n",
              100.0 * skew_off.max_share, 100.0 * skew_on.max_share,
              100.0 * skew_on.max_share_all);
  std::printf("# uniform admission on/off: %.2fx\n", admission_ratio);

  const std::string path = out_dir + "/BENCH_rebalance.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  {
    char cfgjson[200];
    std::snprintf(cfgjson, sizeof(cfgjson),
                  "{\"reps\": %d, \"batch_chunk\": 1024, \"producers\": %zu, "
                  "\"semantics\": \"DW\"}",
                  kReps, cfg.producers);
    WriteBenchMeta(f, cfgjson);
  }
  std::fprintf(f,
               "  \"workload\": {\"partitions\": %zu, \"shards\": %zu, "
               "\"stream_edges\": %zu, \"hot_per_mille\": %zu, "
               "\"detect_every\": %zu},\n",
               cfg.partitions, cfg.shards, cfg.stream_edges, cfg.hot_per_mille,
               cfg.detect_every);
  std::fprintf(f, "  \"cores_available\": %u,\n", cores);
  std::fprintf(f,
               "  \"skewed\": {\"off_eps\": %.0f, \"on_eps\": %.0f, "
               "\"speedup\": %.3f, \"max_share_off\": %.4f, "
               "\"max_share_on\": %.4f, \"max_share_on_all\": %.4f, "
               "\"steals\": %llu, "
               "\"partitions_moved\": %llu, \"forwarded_edges\": %llu},\n",
               skew_off.eps, skew_on.eps, speedup, skew_off.max_share,
               skew_on.max_share, skew_on.max_share_all,
               static_cast<unsigned long long>(skew_on.steals),
               static_cast<unsigned long long>(skew_on.moved),
               static_cast<unsigned long long>(skew_on.forwarded));
  std::fprintf(f,
               "  \"uniform_admission\": {\"off_eps\": %.0f, \"on_eps\": "
               "%.0f, \"ratio\": %.3f}\n}\n",
               uni_off.admission_eps, uni_on.admission_eps, admission_ratio);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
