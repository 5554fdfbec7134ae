// Ingest-pipeline sweep: producers × shards × handoff mode.
//
// Admission methodology: each run first submits one heavy "plug" edge per
// tenant; the resulting per-shard alert callback parks every shard worker
// on a latch (the same consumer-parked technique the backpressure tests
// use). With consumers parked and the queue budget sized to hold the whole
// stream, the producers' wall time measures exactly the router→worker
// handoff — partitioner evaluations, queue-mutex pushes — with
// no interference from apply work (which matters especially when
// cores < shards and workers would otherwise time-share the producers'
// CPUs). Boundary weights update on the worker side of the handoff —
// inside the apply path — so neither mode pays for them during admission. The
// latch then opens and Drain() completes the run; end-to-end time is
// reported alongside.
//
// Modes per configuration:
//   * per-edge  — every edge goes through Submit(), paying the partitioner
//     and the queue-mutex push individually. This is the baseline.
//   * batched   — SubmitBatch chunks of 1024 edges: one RouterScratch
//     partition pass, one queued chunk per shard per chunk.
//
// A final pinned run repeats the best configuration with shard workers
// pinned round-robin onto the available cores (ShardedDetectionService-
// Options::shard_cpus). The emitted BENCH_ingest.json records
// cores_available so single-core CI boxes are honestly labeled — the
// pinned figures only demonstrate multi-core scaling when cores > 1.
//
// Emits BENCH_ingest.json (path = argv[1], default ./). The repo commits a
// reference copy; CI re-runs the bench, uploads the fresh JSON, and fails
// if the batched 8-shard admission throughput regresses more than 30%
// against the committed reference.

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

#include "common/rng.h"
#include "bench/bench_meta.h"
#include "core/spade.h"
#include "metrics/semantics.h"
#include "service/sharded_detection_service.h"
#include "stream/labeled_stream.h"

namespace spade::bench {
namespace {

/// The single-core 8-shard aggregate throughput from the committed
/// BENCH_service.json (detect-heavy workload) — the cross-bench reference
/// the pinned ingest run is compared against.
constexpr double kServiceRef8ShardEps = 83186.0;

struct IngestConfig {
  std::size_t tenants = 8;
  std::size_t vertices_per_tenant = 4096;
  std::size_t initial_per_tenant = 2000;
  /// With the queue budget sized to the whole stream, neither handoff mode
  /// throttles during the admission phase even at 1 shard — the admission
  /// comparison then measures the router+handoff cost itself, not queue
  /// backpressure.
  std::size_t stream_per_tenant = 8000;
  /// Fraction (per mille) of stream edges rewired to a cross-tenant
  /// destination, so the workers' boundary-weight updates (and the
  /// stitch-trigger accumulators behind them) are exercised under load, not
  /// just in tests.
  std::size_t cross_per_mille = 100;
  /// Coarse detection cadence: ingest (routing + handoff + apply) stays
  /// the dominant term, not community extraction.
  std::size_t detect_every = 2048;
  /// Legitimate dense clique per tenant (same device as bench_service):
  /// it pins the benign-classification threshold well above random
  /// traffic, so stream edges buffer benignly instead of each forcing an
  /// urgent flush + detection — without it the sweep would measure
  /// detection cost, not the handoff.
  std::size_t whale_size = 8;
  std::size_t whale_edges = 100;
  double whale_weight = 40.0;
  std::uint64_t seed = 1234;
};

struct IngestWorkload {
  std::size_t num_vertices = 0;
  std::vector<Edge> initial;
  LabeledStream stream;
};

Edge RandomTenantEdge(Rng* rng, VertexId base, std::size_t n) {
  auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{static_cast<VertexId>(base + s), static_cast<VertexId>(base + d),
              1.0 + 9.0 * rng->NextDouble(), 0};
}

IngestWorkload BuildIngestWorkload(const IngestConfig& cfg) {
  IngestWorkload w;
  w.num_vertices = cfg.tenants * cfg.vertices_per_tenant;
  Rng rng(cfg.seed);
  std::vector<std::vector<Edge>> tenant_stream(cfg.tenants);
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    const auto base = static_cast<VertexId>(t * cfg.vertices_per_tenant);
    for (std::size_t i = 0; i < cfg.initial_per_tenant; ++i) {
      w.initial.push_back(
          RandomTenantEdge(&rng, base, cfg.vertices_per_tenant));
    }
    for (std::size_t i = 0; i < cfg.whale_edges; ++i) {
      const auto a =
          static_cast<VertexId>(base + rng.NextBounded(cfg.whale_size));
      auto b = static_cast<VertexId>(base + rng.NextBounded(cfg.whale_size));
      while (b == a) {
        b = static_cast<VertexId>(base + rng.NextBounded(cfg.whale_size));
      }
      w.initial.push_back(
          Edge{a, b, cfg.whale_weight * (0.9 + 0.2 * rng.NextDouble()), 0});
    }
    for (std::size_t i = 0; i < cfg.stream_per_tenant; ++i) {
      Edge e = RandomTenantEdge(&rng, base, cfg.vertices_per_tenant);
      if (rng.NextBounded(1000) < cfg.cross_per_mille) {
        // Rewire the destination into a random other tenant: a boundary
        // edge under tenant routing.
        const std::size_t other =
            (t + 1 + rng.NextBounded(cfg.tenants - 1)) % cfg.tenants;
        e.dst = static_cast<VertexId>(other * cfg.vertices_per_tenant +
                                      rng.NextBounded(cfg.vertices_per_tenant));
      }
      tenant_stream[t].push_back(e);
    }
  }
  Timestamp ts = 0;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t t = 0; t < cfg.tenants; ++t) {
      if (i >= tenant_stream[t].size()) continue;
      any = true;
      Edge e = tenant_stream[t][i];
      e.ts = ts++;
      w.stream.Append(e, kNormalEdge);
    }
    if (!any) break;
  }
  return w;
}

std::vector<Spade> BuildShards(const IngestWorkload& w,
                               const IngestConfig& cfg,
                               std::size_t num_shards) {
  std::vector<std::vector<Edge>> parts(num_shards);
  for (const Edge& e : w.initial) {
    parts[(e.src / cfg.vertices_per_tenant) % num_shards].push_back(e);
  }
  std::vector<Spade> shards;
  shards.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    Spade spade;
    spade.SetSemantics(MakeDW());
    const Status st = spade.BuildGraph(w.num_vertices, parts[s]);
    if (!st.ok()) {
      std::fprintf(stderr, "BuildGraph failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
    shards.push_back(std::move(spade));
  }
  return shards;
}

struct Entry {
  std::size_t shards = 0;
  std::size_t producers = 0;
  bool batched = false;
  bool pinned = false;
  double wall_s = 0.0;
  double eps = 0.0;            // end-to-end (drained)
  double admission_eps = 0.0;  // producers-done (the handoff capacity)
  std::size_t queue_hwm = 0;
  std::uint64_t boundary_edges = 0;
};

Entry Run(const IngestWorkload& w, const IngestConfig& cfg,
          std::size_t num_shards, std::size_t producers, bool batched,
          const std::vector<int>& shard_cpus = {}) {
  ShardedDetectionServiceOptions options;
  options.shard.block_when_full = true;
  options.shard.detect_every = cfg.detect_every;
  // The whole stream must fit: admission is measured against parked
  // consumers, so nothing drains while producers run.
  options.shard.max_queue = w.stream.size() + 64;
  options.partitioner =
      TenantPartitioner(static_cast<VertexId>(cfg.vertices_per_tenant));
  options.shard_cpus = shard_cpus;

  // Consumer-parking latch: the first alert on each shard (triggered by
  // the per-tenant plug edges below) blocks its worker until the
  // producers have finished, so the admission phase measures only the
  // ingest path.
  std::mutex latch_mutex;
  std::condition_variable latch_cv;
  bool latch_open = false;
  ShardedDetectionService service(
      BuildShards(w, cfg, num_shards),
      [&](std::size_t, const Community&) {
        std::unique_lock<std::mutex> lock(latch_mutex);
        latch_cv.wait(lock, [&] { return latch_open; });
      },
      options);

  // Plugs: one community-changing heavy edge per tenant (tenants cover
  // every shard at every swept shard count; extra plugs for a shard just
  // queue behind its parked worker).
  for (std::size_t t = 0; t < cfg.tenants; ++t) {
    const auto base = static_cast<VertexId>(t * cfg.vertices_per_tenant);
    const Edge plug{base, static_cast<VertexId>(base + 1),
                    cfg.whale_weight * 1000.0, 0};
    (void)service.Submit(plug);
  }
  // Every shard alerting means every worker is parked (or a few
  // instructions from parking) inside the latch callback.
  while (service.AlertsDelivered() < num_shards) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = w.stream.size();
  constexpr std::size_t kChunk = 1024;
  std::atomic<std::size_t> cursor{0};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&] {
      for (;;) {
        const std::size_t start =
            cursor.fetch_add(kChunk, std::memory_order_relaxed);
        if (start >= n) break;
        const std::size_t end = std::min(start + kChunk, n);
        if (batched) {
          std::size_t enqueued = 0;
          (void)service.SubmitBatch(
              std::span<const Edge>(w.stream.edges.data() + start,
                                    end - start),
              &enqueued);
        } else {
          for (std::size_t i = start; i < end; ++i) {
            (void)service.Submit(w.stream.edges[i]);
          }
        }
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
  e.shards = num_shards;
  e.producers = producers;
  e.batched = batched;
  e.pinned = !shard_cpus.empty();
  e.wall_s = wall_s;
  e.eps = static_cast<double>(n) / wall_s;
  e.admission_eps = static_cast<double>(n) / submit_s;
  const ShardedServiceStats stats = service.GetStats();
  for (const std::size_t hwm : stats.shard_queue_hwm) {
    e.queue_hwm = std::max(e.queue_hwm, hwm);
  }
  e.boundary_edges = stats.boundary_edges;
  service.Stop();
  return e;
}

}  // namespace
}  // namespace spade::bench

int main(int argc, char** argv) {
  using namespace spade::bench;
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  IngestConfig cfg;
  const IngestWorkload w = BuildIngestWorkload(cfg);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# ingest sweep: %zu tenants, %zu vertices, %zu stream edges, "
              "%u core(s) available\n\n",
              cfg.tenants, w.num_vertices, w.stream.size(), cores);
  std::printf("%7s %10s %9s %9s %12s %12s %9s %10s %10s\n", "shards",
              "producers", "mode", "wall(s)", "e2e-eps", "admit-eps",
              "vs-edge", "queue-hwm", "boundary");

  // Warm-up: allocator + page-fault cold start must not penalize the first
  // measured configuration.
  (void)Run(w, cfg, 1, 1, /*batched=*/true);

  // The admission phase of one run is a few milliseconds; repeat each
  // configuration and keep the best admission (classic microbench floor —
  // the run least perturbed by scheduling) with its run's e2e numbers.
  constexpr int kReps = 5;
  const auto best_of = [&](std::size_t shards, std::size_t producers,
                           bool batched) {
    Entry best;
    for (int r = 0; r < kReps; ++r) {
      const Entry e = Run(w, cfg, shards, producers, batched);
      if (e.admission_eps > best.admission_eps) best = e;
    }
    return best;
  };

  std::vector<Entry> entries;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    for (const std::size_t producers : {1, 4}) {
      const Entry per_edge = best_of(shards, producers, false);
      const Entry batched = best_of(shards, producers, true);
      for (const Entry& e : {per_edge, batched}) {
        // The handoff comparison is on admission throughput: end-to-end is
        // apply-bound whenever cores < shards (the workers and producers
        // time-share), which would hide the handoff cost entirely.
        const double ratio = e.batched && per_edge.admission_eps > 0.0
                                 ? e.admission_eps / per_edge.admission_eps
                                 : 1.0;
        std::printf("%7zu %10zu %9s %9.3f %12.0f %12.0f %8.2fx %10zu %10llu\n",
                    e.shards, e.producers, e.batched ? "batch" : "per-edge",
                    e.wall_s, e.eps, e.admission_eps, ratio, e.queue_hwm,
                    static_cast<unsigned long long>(e.boundary_edges));
        entries.push_back(e);
      }
    }
  }

  // Pinned run: the best sweep configuration (8 shards, 4 producers,
  // batched) with shard workers pinned round-robin onto real cores.
  std::vector<int> cpus;
  for (unsigned c = 0; c < cores; ++c) cpus.push_back(static_cast<int>(c));
  Entry pinned;
  for (int r = 0; r < kReps; ++r) {
    const Entry e = Run(w, cfg, 8, 4, /*batched=*/true, cpus);
    if (e.admission_eps > pinned.admission_eps) pinned = e;
  }
  std::printf("%7zu %10zu %9s %9.3f %12.0f %12.0f %8s %10zu %10llu  "
              "(pinned on %u core%s)\n",
              pinned.shards, pinned.producers, "batch", pinned.wall_s,
              pinned.eps, pinned.admission_eps, "-", pinned.queue_hwm,
              static_cast<unsigned long long>(pinned.boundary_edges), cores,
              cores == 1 ? "" : "s");
  std::printf("\n# service-bench reference (single-core 8-shard, "
              "detect-heavy): %.0f edges/s; pinned ingest run: %.0f "
              "(%.1fx)\n",
              kServiceRef8ShardEps, pinned.eps,
              pinned.eps / kServiceRef8ShardEps);

  const std::string path = out_dir + "/BENCH_ingest.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  {
    char cfgjson[160];
    std::snprintf(cfgjson, sizeof(cfgjson),
                  "{\"reps\": %d, \"batch_chunk\": 1024, "
                  "\"semantics\": \"DW\"}",
                  kReps);
    spade::bench::WriteBenchMeta(f, cfgjson);
  }
  std::fprintf(f,
               "  \"workload\": {\"tenants\": %zu, \"vertices\": %zu, "
               "\"initial_edges\": %zu, \"stream_edges\": %zu, "
               "\"cross_per_mille\": %zu, \"detect_every\": %zu},\n",
               cfg.tenants, w.num_vertices, w.initial.size(), w.stream.size(),
               cfg.cross_per_mille, cfg.detect_every);
  std::fprintf(f, "  \"cores_available\": %u,\n", cores);
  std::fprintf(f, "  \"service_ref_8shard_eps\": %.0f,\n",
               kServiceRef8ShardEps);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"producers\": %zu, \"mode\": "
                 "\"%s\", \"wall_s\": %.4f, \"edges_per_s\": %.0f, "
                 "\"admission_eps\": %.0f, \"queue_hwm\": %zu, "
                 "\"boundary_edges\": %llu},\n",
                 e.shards, e.producers, e.batched ? "batch" : "per_edge",
                 e.wall_s, e.eps, e.admission_eps, e.queue_hwm,
                 static_cast<unsigned long long>(e.boundary_edges));
  }
  // The pinned entry closes the sweep array so the regression gate can
  // address it uniformly.
  std::fprintf(f,
               "    {\"shards\": %zu, \"producers\": %zu, \"mode\": "
               "\"batch_pinned\", \"wall_s\": %.4f, \"edges_per_s\": %.0f, "
               "\"admission_eps\": %.0f, \"queue_hwm\": %zu, "
               "\"boundary_edges\": %llu}\n  ],\n",
               pinned.shards, pinned.producers, pinned.wall_s, pinned.eps,
               pinned.admission_eps, pinned.queue_hwm,
               static_cast<unsigned long long>(pinned.boundary_edges));
  std::fprintf(f, "  \"pinned_beats_service_ref\": %s\n}\n",
               pinned.eps > kServiceRef8ShardEps ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
