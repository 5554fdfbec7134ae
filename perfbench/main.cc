// The repository benchmark: one binary, three workloads, end-to-end metrics
// from untraced runs and a per-layer split from a traced run. NOTES.md in
// this directory says why each workload exists and which layer metric
// should move which end-to-end metric; run.py builds and runs this binary.
//
//   spade_perfbench --workload paper-stream|fleet-saturate|fleet-live
//                   --seed N --seconds S --trace 0|1 --out-dir DIR
//                   [--ladder-eps R1,R2,...] [--alert-lag-limit-ms L]
//
// Every input is generated from --seed before any timer starts.
// paper-stream and fleet-saturate repeat rounds of fixed work (set up, then
// measure), a number of rounds set by --seconds, so every commit runs the
// same rounds; fleet-live runs one open-loop ladder of --seconds.
// Human-readable metric lines go to stdout first;
// the last stdout line is one JSON object with the result. A failed
// correctness check counts in `failed` and makes the exit code 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "core/spade.h"
#include "datagen/workload.h"
#include "metrics/semantics.h"
#include "peel/static_peeler.h"
#include "service/sharded_detection_service.h"
#include "stream/replayer.h"
#include "trace.h"

namespace perfbench {
namespace {

using spade::Community;
using spade::Edge;
using spade::PeelState;
using spade::PeelStatic;
using spade::ShardedDetectionService;
using spade::ShardedDetectionServiceOptions;
using spade::Spade;
using spade::Status;
using spade::VertexId;

// ------------------------------------------------------------- arguments --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::vector<double> ladder_eps;
  double alert_lag_limit_ms = 0;
};

/// Parses `--key value` pairs; false on an unknown key or a malformed
/// number.
bool ParseArgs(int argc, char** argv, Args* args) try {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::stoull(value);
    } else if (key == "--seconds") {
      args->seconds = std::stod(value);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--ladder-eps") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        std::size_t end = value.find(',', pos);
        if (end == std::string::npos) end = value.size();
        args->ladder_eps.push_back(std::stod(value.substr(pos, end - pos)));
        pos = end + 1;
      }
    } else if (key == "--alert-lag-limit-ms") {
      args->alert_lag_limit_ms = std::stod(value);
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
} catch (const std::logic_error&) {  // std::stod / std::stoull
  return false;
}

// ---------------------------------------------------------------- report --

// Every per-layer metric, in print order. Traced runs print all of them;
// a layer a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"core.apply_us_p50", "us"},
    {"core.apply_us_p99", "us"},
    {"core.reorder_vertices_per_edge", "count"},
    {"core.reorder_edges_per_edge", "count"},
    {"core.detect_us_p50", "us"},
    {"core.detect_us_p99", "us"},
    {"core.urgent_share", "share"},
    {"core.build_s", "s"},
    {"core.urgent_update_us_p50", "us"},
    {"core.speedup_vs_static", "x"},
    {"peel.static_ms", "ms"},
    {"service.submit_us_p50", "us"},
    {"service.submit_us_p99", "us"},
    {"service.queue_hwm", "count"},
    {"service.busy_frac_max", "share"},
    {"service.busy_frac_min", "share"},
    {"service.detections_per_kedge", "count"},
    {"service.reorder_vertices_per_edge", "count"},
    {"service.retired_edges", "count"},
    {"service.retire_share", "share"},
    {"service.stitch_ms_p50", "ms"},
    {"service.stitch_ms_p99", "ms"},
    {"service.seam_vertices", "count"},
    {"service.seam_truncated_passes", "count"},
    {"service.unconsumed_boundary_edges", "count"},
    {"service.read_us_p50", "us"},
    {"service.read_us_p99", "us"},
    {"service.serial_max_shard_s", "s"},
    {"service.overhead_share", "share"},
    {"storage.save_full_ms", "ms"},
    {"storage.save_delta_ms_p50", "ms"},
    {"storage.save_delta_ms_max", "ms"},
    {"storage.save_bytes", "bytes"},
    {"storage.restore_ms", "ms"},
    {"storage.replayed_records", "count"},
    {"storage.restore_us_per_record", "us"},
    {"gen.late_ms_p99", "ms"},
    {"gen.backlog_end_per_rung", "count"},
    {"trace.overhead_share", "share"},
    {"bench.self_s", "s"},
    {"core.self_s", "s"},
    {"peel.self_s", "s"},
    {"service.self_s", "s"},
    {"storage.self_s", "s"},
};


/// Collects metrics and failures; prints the human lines and the final
/// JSON object.
class Report {
 public:
  /// An end-to-end metric: printed as a human line with its sample count.
  void Metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples, const std::string& note = "") {
    std::printf("metric %-32s %14.6f %-6s n=%zu%s%s\n", name.c_str(), value,
                unit.c_str(), samples, note.empty() ? "" : "  ",
                note.c_str());
  }

  /// A metric that also goes into the final JSON object.
  void Result(const std::string& name, double value, const std::string& unit) {
    results_.push_back({name, value, unit});
  }

  /// A per-layer metric; `name` must be one of kLayerMetrics.
  void Layer(const std::string& name, double value) {
    for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      if (name == kLayerMetrics[i].name) {
        layers_[i] = value;
        return;
      }
    }
    std::fprintf(stderr, "unlisted layer metric %s\n", name.c_str());
    std::abort();
  }

  void Attempt(std::uint64_t n = 1) { attempted_ += n; }

  void Fail(const std::string& what, std::uint64_t n = 1) {
    failed_ += n;
    std::printf("FAILED %s (x%llu)\n", what.c_str(),
                static_cast<unsigned long long>(n));
  }

  std::uint64_t failed() const { return failed_; }

  /// Prints every per-layer metric (0 where the workload does not
  /// exercise the layer), failed_share, and the final JSON line: the
  /// end-to-end results, or with `trace` the per-layer metrics.
  void Finish(bool trace) const {
    std::vector<Entry> layers;
    for (std::size_t i = 0; i < std::size(kLayerMetrics); ++i) {
      layers.push_back({kLayerMetrics[i].name, layers_[i],
                        kLayerMetrics[i].unit});
      if (trace) {
        std::printf("layer  %-32s %14.6f %s\n", kLayerMetrics[i].name,
                    layers_[i], kLayerMetrics[i].unit);
      }
    }
    const std::uint64_t attempted = std::max<std::uint64_t>(attempted_, 1);
    std::printf("metric %-32s %14.6f %-6s n=%llu\n", "failed_share",
                static_cast<double>(failed_) / static_cast<double>(attempted),
                "share", static_cast<unsigned long long>(attempted));
    const auto& list = trace ? layers : results_;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < list.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", list[i].name.c_str(), list[i].value,
                  list[i].unit.c_str());
    }
    std::printf("}}\n");
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> results_;
  std::vector<double> layers_ = std::vector<double>(std::size(kLayerMetrics));
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Percentile `pct` (in [0, 100]) of a sample, by the library's exact
/// definition; 0 for an empty sample.
double Percentile(const std::vector<double>& sample, double pct) {
  spade::Summary summary;
  for (double x : sample) summary.Add(x);
  return summary.Percentile(pct);
}

double Median(const std::vector<double>& sample) {
  return Percentile(sample, 50);
}

/// The benchmark's set-up time: the fastest of a run's set-ups. A set-up
/// is a short single-threaded call (BuildGraph), interference from the
/// rest of a shared host only ever slows it, and the median of a run's
/// set-ups moved with the host's speed far more than the fastest did
/// (NOTES.md gives the figures).
double FastestSetup(const std::vector<double>& setup_s) {
  return setup_s.empty() ? 0.0
                         : *std::min_element(setup_s.begin(), setup_s.end());
}

/// Rounds in a run: `--seconds` sets the run's length as an amount of work,
/// a fixed number of rounds at `rounds_per_second` (a workload's rounds
/// per second on the 4-core host the benchmark was tuned on), so every
/// commit runs the same rounds and reports the same statistic over them.
std::uint32_t RoundsFor(double seconds, double rounds_per_second) {
  return std::max<std::uint32_t>(
      3, static_cast<std::uint32_t>(std::lround(seconds * rounds_per_second)));
}

/// The highest quantile of an n-sample set that leaves at least ten
/// samples beyond it, never below the median.
double TailQuantile(std::size_t n) {
  return std::max(0.5, 1.0 - 10.0 / static_cast<double>(std::max<std::size_t>(n, 1)));
}

/// Prints a latency sample as its median and its supported tail, and
/// returns {median, tail}.
std::pair<double, double> LatencyMetric(Report* report,
                                        const std::string& base,
                                        const std::vector<double>& sample,
                                        const std::string& unit,
                                        double wanted_tail) {
  const double tail_q = std::min(wanted_tail, TailQuantile(sample.size()));
  const double p50 = Median(sample);
  const double tail = Percentile(sample, tail_q * 100);
  report->Metric(base + "_p50", p50, unit, sample.size());
  char label[16];
  std::snprintf(label, sizeof(label), "_p%d",
                static_cast<int>(wanted_tail * 100 + 0.5));
  char note[64] = "";
  if (tail_q < wanted_tail) {
    std::snprintf(note, sizeof(note), "(sample too small: value is p%.1f)",
                  tail_q * 100);
  }
  report->Metric(base + label, tail, unit, sample.size(), note);
  return {p50, tail};
}

// --------------------------------------------------------------- helpers --

std::vector<VertexId> SortedMembers(const Community& c) {
  std::vector<VertexId> m = c.members;
  std::sort(m.begin(), m.end());
  return m;
}

/// Tie-exact comparison of a maintained community against a from-scratch
/// peel, to the standard of the repository's differential suite: the same
/// member set, and densities equal to 1e-9 relative (with continuous
/// weights the incremental and static paths sum in different orders, so
/// the last bits may differ).
bool SameCommunity(const Community& a, const Community& b) {
  const double scale = std::max({1.0, std::abs(a.density), std::abs(b.density)});
  return std::abs(a.density - b.density) <= 1e-9 * scale &&
         SortedMembers(a) == SortedMembers(b);
}

Spade NewDetector() {
  Spade s;
  s.SetSemantics(spade::MakeDW());
  return s;
}

std::size_t FleetShards() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

/// Layer self times of a traced run, one metric per layer.
void ReportSelfTimes(Report* report, const Tracer& tracer) {
  const auto self = tracer.SelfSeconds();
  for (const char* layer : {"bench", "core", "peel", "service", "storage"}) {
    const auto it = self.find(layer);
    report->Layer(std::string(layer) + ".self_s",
                  it == self.end() ? 0.0 : it->second);
  }
}

/// Tracing overhead: traced minus untraced median round wall time, as a
/// share of the untraced one.
void ReportTraceOverhead(Report* report, const std::vector<double>& untraced,
                         const std::vector<double>& traced) {
  const double base = Median(untraced);
  report->Layer("trace.overhead_share",
                base > 0 ? (Median(traced) - base) / base : 0.0);
}

// ----------------------------------------------------------- paper-stream --

/// Grab1 at this scale: 39.9k vertices, 90k initial edges and 10.9k stream
/// edges, three injected fraud instances among them.
constexpr double kPaperScale = 0.01;
/// About 1.2 s per round (set-up plus replay).
constexpr double kPaperRoundsPerSecond = 0.8;

struct PaperRound {
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> update_us;            // per stream edge
  std::vector<std::uint8_t> urgent_edge;    // per stream edge
  std::size_t urgent = 0;
  spade::ReorderStats stats;
};

/// One round: build the detector, then insert every stream edge in a closed
/// loop. With `split` a round takes the worker's path instead of
/// InsertEdge: ApplyEdge, then Detect when the edge was urgent; only split
/// rounds are traced.
PaperRound PaperStreamRound(const spade::Workload& w, Tracer* tracer,
                            bool split, bool traced, Report* report) {
  PaperRound r;
  auto round_span = tracer->Open("bench", "round", traced);
  Spade spade = NewDetector();
  spade.TurnOnEdgeGrouping();
  {
    const auto t0 = Clock::now();
    Status st;
    {
      auto span = tracer->Open("core", "BuildGraph", traced);
      st = spade.BuildGraph(w.num_vertices, w.initial);
    }
    r.setup_s = SecondsSince(t0);
    report->Attempt();
    if (!st.ok()) {
      report->Fail("paper-stream BuildGraph: " + st.ToString());
      return r;
    }
  }

  const auto& stream = w.stream;
  r.update_us.reserve(stream.size());
  r.urgent_edge.reserve(stream.size());

  const auto t_begin = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Edge& e = stream.edges[i];
    bool ok = true;
    bool urgent = false;
    const auto t0 = Clock::now();
    if (!split) {
      ok = spade.InsertEdge(e).ok();
      urgent = spade.PendingBenignEdges() == 0;
    } else {
      Status st;
      {
        auto span = tracer->Open("core", "ApplyEdge", traced);
        st = spade.ApplyEdge(e);
      }
      ok = st.ok();
      urgent = spade.PendingBenignEdges() == 0;
      if (ok && urgent) {
        auto span = tracer->Open("core", "Detect", traced);
        spade.Detect();
      }
    }
    r.update_us.push_back(MicrosBetween(t0, Clock::now()));
    r.urgent_edge.push_back(ok && urgent);
    if (!ok) report->Fail("paper-stream InsertEdge");
    if (ok && urgent) ++r.urgent;
  }
  r.wall_s = SecondsSince(t_begin);
  report->Attempt(stream.size());
  r.stats = spade.cumulative_stats();

  // Check: the final Detect is tie-exact with a from-scratch peel.
  const Community live = spade.Detect();
  PeelState reference;
  {
    auto span = tracer->Open("peel", "PeelStatic", traced);
    reference = PeelStatic(spade.graph());
  }
  report->Attempt();
  if (!SameCommunity(live, reference.DetectCommunity())) {
    report->Fail("paper-stream final Detect differs from PeelStatic");
  }
  return r;
}

void RunPaperStream(const Args& args, Report* report, Tracer* tracer) {
  spade::FraudMix mix;  // one instance of each of the three patterns
  const spade::Workload w =
      spade::BuildWorkload("Grab1", kPaperScale, args.seed, &mix);
  std::printf("paper-stream: %zu vertices, %zu initial edges, %zu stream "
              "edges, %zu fraud groups\n",
              w.num_vertices, w.initial.size(), w.stream.size(),
              w.stream.group_vertices.size());

  // Every InsertEdge round replays the same deterministic work, so each
  // stream edge's update time is taken as its best over the rounds, and
  // throughput and percentiles come from those per-edge times. This
  // workload runs on one thread, and interference from the rest of a
  // shared host only ever slows a call, so the per-edge best of a fixed
  // number of rounds is the steadiest estimate of the program's own cost
  // (NOTES.md gives the spreads).
  std::vector<double> setup_s, best_us;
  std::vector<std::uint8_t> urgent_edge;  // the same in every round
  std::vector<double> traced_wall, untraced_wall;
  std::size_t urgent = 0, edges = 0, measured = 0;
  spade::ReorderStats stats;
  const std::uint32_t rounds = RoundsFor(args.seconds, kPaperRoundsPerSecond);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    tracer->set_run(round);
    // A traced run cycles through three kinds of round: InsertEdge (the
    // end-to-end figures), the split path untraced, and the split path
    // traced; the last two give the tracing overhead on one call path.
    const bool split = args.trace && round % 3 != 0;
    const bool traced = args.trace && round % 3 == 2;
    PaperRound r = PaperStreamRound(w, tracer, split, traced, report);
    setup_s.push_back(r.setup_s);
    if (report->failed() > 0) break;
    if (split) {
      (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
      if (traced) {
        urgent += r.urgent;
        edges += r.update_us.size();
        stats.Accumulate(r.stats);
      }
      continue;
    }
    ++measured;
    if (best_us.empty()) {
      best_us = std::move(r.update_us);
      urgent_edge = std::move(r.urgent_edge);
      continue;
    }
    for (std::size_t i = 0; i < best_us.size(); ++i) {
      best_us[i] = std::min(best_us[i], r.update_us[i]);
    }
  }

  // The paper's R by the repository's own definition: one replay of the
  // same stream through stream::Replay, outside the measured rounds.
  double prevention_ratio = 0;
  if (report->failed() == 0) {
    Spade spade = NewDetector();
    report->Attempt();
    if (!spade.BuildGraph(w.num_vertices, w.initial).ok()) {
      report->Fail("paper-stream replay BuildGraph");
    } else {
      spade::ReplayOptions options;
      options.use_edge_grouping = true;
      prevention_ratio = spade::Replay(&spade, w.stream, options).prevention_ratio;
    }
  }

  std::vector<double> urgent_us;
  double total_us = 0;
  for (std::size_t i = 0; i < best_us.size(); ++i) {
    total_us += best_us[i];
    if (urgent_edge[i]) urgent_us.push_back(best_us[i]);
  }
  const double setup = FastestSetup(setup_s);
  const double eps =
      total_us > 0 ? static_cast<double>(best_us.size()) * 1e6 / total_us : 0.0;
  const double urgent_p50 = Median(urgent_us);
  const double tail_us = Percentile(best_us, 99);
  const std::string note =
      "(per-edge best of " + std::to_string(measured) + " rounds)";
  const std::size_t update_n = best_us.size() * measured;
  const std::size_t urgent_n = urgent_us.size() * measured;
  report->Metric("setup_s", setup, "s", setup_s.size(), "(fastest)");
  report->Metric("stream_eps", eps, "1/s", update_n, note);
  report->Metric("update_us_p50", Median(best_us), "us", update_n, note);
  report->Metric("update_us_p99", tail_us, "us", update_n, note);
  report->Metric("urgent_update_us_p50", urgent_p50, "us", urgent_n, note);
  report->Metric("urgent_update_us_p99", Percentile(urgent_us, 99), "us",
                 urgent_n, note);
  report->Metric("prevention_ratio", prevention_ratio, "share", 1);
  report->Result("setup_s", setup, "s");
  report->Result("throughput_eps", eps, "1/s");
  report->Result("latency_us_p50", urgent_p50, "us");
  report->Result("latency_us_tail", tail_us, "us");

  if (!args.trace) return;
  const auto apply = tracer->Durations("ApplyEdge");
  const auto detect = tracer->Durations("Detect");
  const double n = static_cast<double>(std::max<std::size_t>(edges, 1));
  report->Layer("core.apply_us_p50", Median(apply));
  report->Layer("core.apply_us_p99", Percentile(apply, 99));
  report->Layer("core.reorder_vertices_per_edge",
                static_cast<double>(stats.affected_vertices) / n);
  report->Layer("core.reorder_edges_per_edge",
                static_cast<double>(stats.touched_edges) / n);
  report->Layer("core.detect_us_p50", Median(detect));
  report->Layer("core.detect_us_p99", Percentile(detect, 99));
  report->Layer("core.urgent_share", static_cast<double>(urgent) / n);
  const auto build = tracer->Durations("BuildGraph");
  const double static_ms = Median(tracer->Durations("PeelStatic")) / 1e3;
  report->Layer("core.build_s", Median(build) / 1e6);
  report->Layer("peel.static_ms", static_ms);
  report->Layer("core.urgent_update_us_p50", urgent_p50);
  report->Layer("core.speedup_vs_static",
                urgent_p50 > 0 ? static_ms * 1e3 / urgent_p50 : 0.0);
  ReportTraceOverhead(report, untraced_wall, traced_wall);
}

// ---------------------------------------------------------- fleet inputs --

/// The fleet graph recipe (bench_ingest's, scaled up): per tenant a random
/// intra-tenant graph plus one heavy legitimate "whale" clique, and a
/// stream with a share of cross-tenant edges. The top kReserved ids of each
/// tenant carry no background traffic; fleet-live plants its fraud signals
/// there.
constexpr std::size_t kTenants = 12;
constexpr VertexId kVerticesPerTenant = 16384;
constexpr std::size_t kInitialPerTenant = 40000;
constexpr std::size_t kWhaleSize = 8;
constexpr std::size_t kWhaleEdges = 100;
constexpr double kWhaleWeight = 40.0;
constexpr std::size_t kCrossPerMille = 100;
constexpr VertexId kReserved = 2048;
constexpr std::size_t kChunk = 1024;

struct FleetInputs {
  std::size_t num_vertices = kTenants * kVerticesPerTenant;
  std::size_t shards = 1;
  std::vector<std::vector<Edge>> initial_parts;  // per shard
  std::vector<std::vector<Edge>> streams;        // one per round
};

std::size_t TenantOf(VertexId v) { return v / kVerticesPerTenant; }

Edge RandomTenantEdge(spade::Rng* rng, std::size_t tenant) {
  const auto base = static_cast<VertexId>(tenant * kVerticesPerTenant);
  const VertexId n = kVerticesPerTenant - kReserved;
  const auto s = static_cast<VertexId>(rng->NextBounded(n));
  auto d = static_cast<VertexId>(rng->NextBounded(n));
  while (d == s) d = static_cast<VertexId>(rng->NextBounded(n));
  return Edge{base + s, base + d, 1.0 + 9.0 * rng->NextDouble(), 0};
}

/// Background stream edge of `tenant`; kCrossPerMille of them point into
/// another tenant (a boundary edge under tenant routing).
Edge StreamEdge(spade::Rng* rng, std::size_t tenant) {
  Edge e = RandomTenantEdge(rng, tenant);
  if (rng->NextBounded(1000) < kCrossPerMille) {
    const std::size_t other =
        (tenant + 1 + rng->NextBounded(kTenants - 1)) % kTenants;
    e.dst = static_cast<VertexId>(
        other * kVerticesPerTenant +
        rng->NextBounded(kVerticesPerTenant - kReserved));
  }
  return e;
}

/// Initial graph split by tenant routing (tenant id modulo shard count, as
/// TenantPartitioner routes), plus `num_streams` streams of `stream_edges`
/// edges each whose tenants are drawn Zipf(s=1).
FleetInputs BuildFleetInputs(std::uint64_t seed, std::size_t stream_edges,
                             std::size_t num_streams) {
  FleetInputs in;
  in.shards = FleetShards();
  in.initial_parts.resize(in.shards);
  spade::Rng rng(seed);
  for (std::size_t t = 0; t < kTenants; ++t) {
    auto& part = in.initial_parts[t % in.shards];
    for (std::size_t i = 0; i < kInitialPerTenant; ++i) {
      part.push_back(RandomTenantEdge(&rng, t));
    }
    const auto whale = static_cast<VertexId>(t * kVerticesPerTenant);
    for (std::size_t i = 0; i < kWhaleEdges; ++i) {
      const auto a = static_cast<VertexId>(rng.NextBounded(kWhaleSize));
      auto b = static_cast<VertexId>(rng.NextBounded(kWhaleSize));
      while (b == a) b = static_cast<VertexId>(rng.NextBounded(kWhaleSize));
      part.push_back(Edge{whale + a, whale + b,
                          kWhaleWeight * (0.9 + 0.2 * rng.NextDouble()), 0});
    }
  }
  std::vector<double> cdf(kTenants);
  double total = 0;
  for (std::size_t t = 0; t < kTenants; ++t) {
    total += 1.0 / static_cast<double>(t + 1);
    cdf[t] = total;
  }
  in.streams.resize(num_streams);
  for (auto& stream : in.streams) {
    stream.reserve(stream_edges);
    for (std::size_t i = 0; i < stream_edges; ++i) {
      const double u = rng.NextDouble() * total;
      const auto t = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      Edge e = StreamEdge(&rng, std::min(t, kTenants - 1));
      e.ts = static_cast<spade::Timestamp>(i);
      stream.push_back(e);
    }
  }
  return in;
}

/// Builds one DW detector per shard from the shard's initial part.
bool BuildShards(const FleetInputs& in, Tracer* tracer, bool traced,
                 Report* report, std::vector<Spade>* shards) {
  for (std::size_t s = 0; s < in.shards; ++s) {
    Spade spade = NewDetector();
    Status st;
    {
      auto span = tracer->Open("core", "BuildGraph", traced);
      st = spade.BuildGraph(in.num_vertices, in.initial_parts[s]);
    }
    report->Attempt();
    if (!st.ok()) {
      report->Fail("BuildGraph: " + st.ToString());
      return false;
    }
    shards->push_back(std::move(spade));
  }
  return true;
}

ShardedDetectionServiceOptions FleetOptions(spade::Timestamp window_span) {
  ShardedDetectionServiceOptions options;
  options.partitioner = spade::TenantPartitioner(kVerticesPerTenant);
  options.window.span = window_span;
  return options;
}

/// Checks each shard's detector against a from-scratch peel of its graph
/// (call on a drained fleet) and returns the summed reorder counters.
spade::ReorderStats CheckShards(ShardedDetectionService* fleet,
                                Tracer* tracer, bool traced, Report* report,
                                const char* workload) {
  spade::ReorderStats stats;
  for (std::size_t s = 0; s < fleet->num_shards(); ++s) {
    bool exact = false;
    auto span = tracer->Open("service", "InspectShard", traced);
    fleet->InspectShard(s, [&](const Spade& spade) {
      PeelState reference;
      {
        auto peel = tracer->Open("peel", "PeelStatic", traced);
        reference = PeelStatic(spade.graph());
      }
      exact = SameCommunity(spade.peel_state().DetectCommunity(),
                            reference.DetectCommunity());
      stats.Accumulate(spade.cumulative_stats());
    });
    report->Attempt();
    if (!exact) {
      report->Fail(std::string(workload) + " shard " + std::to_string(s) +
                   " community differs from PeelStatic");
    }
  }
  return stats;
}

/// Per-layer service metrics read from GetStats at the end of a round.
struct ServiceCounters {
  std::size_t queue_hwm = 0;
  double busy_max = 0;
  double busy_min = 0;
  std::uint64_t detections = 0;
  std::uint64_t retired = 0;
  std::uint64_t processed = 0;
  std::uint64_t unconsumed_boundary = 0;
};

ServiceCounters ReadCounters(const ShardedDetectionService& fleet,
                             Tracer* tracer, bool traced) {
  spade::ShardedServiceStats st;
  {
    auto span = tracer->Open("service", "GetStats", traced);
    st = fleet.GetStats();
  }
  ServiceCounters c;
  for (std::size_t h : st.shard_queue_hwm) c.queue_hwm = std::max(c.queue_hwm, h);
  if (!st.shard_busy_fraction.empty()) {
    c.busy_max = *std::max_element(st.shard_busy_fraction.begin(),
                                   st.shard_busy_fraction.end());
    c.busy_min = *std::min_element(st.shard_busy_fraction.begin(),
                                   st.shard_busy_fraction.end());
  }
  for (auto d : st.shard_detections) c.detections += d;
  c.retired = st.retired_edges;
  c.processed = st.edges_processed;
  c.unconsumed_boundary = st.boundary_unconsumed_edges;
  return c;
}

void ReportServiceCounters(Report* report, const ServiceCounters& c,
                           const spade::ReorderStats& stats) {
  const double n = static_cast<double>(std::max<std::uint64_t>(c.processed, 1));
  report->Layer("service.queue_hwm", static_cast<double>(c.queue_hwm));
  report->Layer("service.busy_frac_max", c.busy_max);
  report->Layer("service.busy_frac_min", c.busy_min);
  report->Layer("service.detections_per_kedge",
                static_cast<double>(c.detections) * 1e3 / n);
  report->Layer("service.reorder_vertices_per_edge",
                static_cast<double>(stats.affected_vertices) / n);
  report->Layer("service.retired_edges", static_cast<double>(c.retired));
  report->Layer("service.retire_share", static_cast<double>(c.retired) / n);
}

/// Checks a read against the union of every shard's graph (call on a
/// drained fleet): the density it claims must not exceed the density its
/// members have there, or the read overstates its community. (A greedy
/// peel of the merged graph is no upper bound: a shard's own peel can find
/// a denser set than the peel of the whole graph.)
void CheckNoOverclaim(ShardedDetectionService* fleet, const Community& read,
                      std::size_t num_vertices, Tracer* tracer, bool traced,
                      Report* report, const char* workload) {
  std::vector<std::uint8_t> member(num_vertices, 0);
  for (VertexId v : read.members) member[v] = 1;
  double weight = 0;
  for (std::size_t s = 0; s < fleet->num_shards(); ++s) {
    auto span = tracer->Open("service", "InspectShard", traced);
    fleet->InspectShard(s, [&](const Spade& spade) {
      const auto& g = spade.graph();
      for (VertexId u = 0; u < g.NumVertices(); ++u) {
        if (!member[u]) continue;
        for (const auto& nb : g.OutNeighbors(u)) {
          if (member[nb.vertex]) weight += nb.weight;
        }
      }
    });
  }
  const double actual =
      read.members.empty() ? 0.0 : weight / static_cast<double>(read.members.size());
  std::printf("%s read: density %.9f, its %zu members' merged density %.9f\n",
              workload, read.density, read.members.size(), actual);
  report->Attempt();
  if (read.density > actual + 1e-9 * std::max(1.0, std::abs(actual))) {
    report->Fail(std::string(workload) +
                 " read density above its members' merged density");
  }
}

/// Restores checkpoint `dir` into a fresh fleet and checks it equals the
/// stopped `live` fleet in each shard's community, edge count and window
/// log. Returns the RestoreState wall time.
double RestoreAndCompare(const ShardedDetectionService& live,
                         const std::string& dir, const std::string& what,
                         const FleetInputs& in, spade::Timestamp window_span,
                         Tracer* tracer, bool traced, Report* report,
                         ShardedDetectionService::RestoreInfo* info) {
  std::vector<Spade> empty;
  for (std::size_t s = 0; s < in.shards; ++s) {
    Spade spade = NewDetector();
    (void)spade.BuildGraph(in.num_vertices, {});
    empty.push_back(std::move(spade));
  }
  ShardedDetectionService restored(std::move(empty),
                                   [](std::size_t, const Community&) {},
                                   FleetOptions(window_span));
  const auto t = Clock::now();
  Status st;
  {
    auto span = tracer->Open("storage", "RestoreState", traced);
    st = restored.RestoreState(dir, info);
  }
  const double seconds = SecondsSince(t);
  report->Attempt();
  if (!st.ok()) report->Fail(what + ": " + st.ToString());
  for (std::size_t s = 0; s < in.shards; ++s) {
    std::size_t live_edges = 0, restored_edges = 0;
    live.InspectShard(s, [&](const Spade& sp) {
      live_edges = sp.graph().NumEdges();
    });
    restored.InspectShard(s, [&](const Spade& sp) {
      restored_edges = sp.graph().NumEdges();
    });
    const auto live_window = live.ShardWindow(s);
    const auto restored_window = restored.ShardWindow(s);
    std::printf("%s shard %zu: edges live %zu restored %zu, window log live "
                "%zu restored %zu\n",
                what.c_str(), s, live_edges, restored_edges,
                live_window.size(), restored_window.size());
    const std::string shard = what + " shard " + std::to_string(s);
    report->Attempt(3);
    if (!SameCommunity(live.ShardCommunity(s), restored.ShardCommunity(s))) {
      report->Fail(shard + ": community differs");
    }
    if (live_edges != restored_edges) {
      report->Fail(shard + ": edge count differs");
    }
    if (live_window != restored_window) {
      report->Fail(shard + ": window log differs");
    }
  }
  restored.Stop();
  return seconds;
}

/// The stitch, read and checkpoint calls a fleet workload makes, timed.
struct FleetPasses {
  std::vector<double> stitch_ms, read_us, seam_vertices, save_full_ms,
      save_delta_ms;
  std::size_t truncated_passes = 0;
  std::uint64_t save_bytes = 0;

  /// StitchNow, then a CurrentGlobalCommunity read; returns the read.
  spade::GlobalCommunity StitchAndRead(ShardedDetectionService* fleet,
                                       Tracer* tracer, bool traced) {
    auto t = Clock::now();
    spade::GlobalCommunity g;
    {
      auto span = tracer->Open("service", "StitchNow", traced);
      g = fleet->StitchNow();
    }
    stitch_ms.push_back(MicrosBetween(t, Clock::now()) / 1e3);
    seam_vertices.push_back(static_cast<double>(g.seam_vertices));
    if (g.seam_truncated) ++truncated_passes;
    t = Clock::now();
    {
      auto span = tracer->Open("service", "CurrentGlobalCommunity", traced);
      g = fleet->CurrentGlobalCommunity();
    }
    read_us.push_back(MicrosBetween(t, Clock::now()));
    return g;
  }

  Status Save(ShardedDetectionService* fleet, const std::string& dir,
              ShardedDetectionService::SaveMode mode, Tracer* tracer,
              bool traced) {
    ShardedDetectionService::SaveInfo info;
    const auto t = Clock::now();
    Status st;
    {
      auto span = tracer->Open("storage", "SaveState", traced);
      st = fleet->SaveState(dir, mode, &info);
    }
    if (st.ok()) {
      (info.delta ? save_delta_ms : save_full_ms)
          .push_back(MicrosBetween(t, Clock::now()) / 1e3);
      save_bytes += info.bytes_written;
    }
    return st;
  }
};

/// The per-layer stitch and storage metrics of a fleet workload.
void ReportPasses(Report* report, const FleetPasses& p,
                  std::uint64_t unconsumed_boundary,
                  const ShardedDetectionService::RestoreInfo& restore) {
  report->Layer("service.stitch_ms_p50", Median(p.stitch_ms));
  report->Layer("service.stitch_ms_p99", Percentile(p.stitch_ms, 99));
  report->Layer("service.seam_vertices", Median(p.seam_vertices));
  report->Layer("service.seam_truncated_passes",
                static_cast<double>(p.truncated_passes));
  report->Layer("service.unconsumed_boundary_edges",
                static_cast<double>(unconsumed_boundary));
  report->Layer("service.read_us_p50", Median(p.read_us));
  report->Layer("service.read_us_p99", Percentile(p.read_us, 99));
  report->Layer("storage.save_full_ms", Median(p.save_full_ms));
  report->Layer("storage.save_delta_ms_p50", Median(p.save_delta_ms));
  report->Layer("storage.save_delta_ms_max",
                p.save_delta_ms.empty()
                    ? 0.0
                    : *std::max_element(p.save_delta_ms.begin(),
                                        p.save_delta_ms.end()));
  report->Layer("storage.save_bytes", static_cast<double>(p.save_bytes));
  report->Layer("storage.restore_ms", restore.restore_millis);
  report->Layer("storage.replayed_records",
                static_cast<double>(restore.delta_edges_replayed));
  report->Layer("storage.restore_us_per_record",
                restore.delta_edges_replayed == 0
                    ? 0.0
                    : restore.restore_millis * 1e3 /
                          static_cast<double>(restore.delta_edges_replayed));
}

// --------------------------------------------------------- fleet-saturate --

/// Stream edges per fleet-saturate round, and rounds per second of
/// `--seconds` (about 2.5 s per round on three shards).
constexpr std::size_t kSaturateEdges = 24 * 1024;
constexpr double kSaturateRoundsPerSecond = 0.4;
/// Closed loop: the producer keeps at most this many chunks submitted but
/// not yet applied. A chunk counts as applied once the fleet's lock-free
/// EdgesProcessed() total reaches the number of edges submitted up to and
/// including it (the benchmark does not poll GetStats, whose per-shard
/// reads take the lock the workers' apply path holds).
constexpr std::size_t kInFlightChunks = 8;

struct SaturateRound {
  double setup_s = 0;
  double wall_s = 0;
  std::vector<double> lag_us;     // chunk submit -> applied
  std::vector<double> submit_us;  // SubmitBatch call time
  ServiceCounters counters;
  spade::ReorderStats stats;
};

SaturateRound SaturateRoundRun(const FleetInputs& in,
                               const std::vector<Edge>& stream, Tracer* tracer,
                               bool traced, Report* report) {
  SaturateRound r;
  auto round_span = tracer->Open("bench", "round", traced);
  const auto t_setup = Clock::now();
  std::vector<Spade> shards;
  if (!BuildShards(in, tracer, traced, report, &shards)) return r;
  ShardedDetectionService fleet(std::move(shards),
                                [](std::size_t, const Community&) {},
                                FleetOptions(0));
  r.setup_s = SecondsSince(t_setup);

  const std::size_t chunks = (stream.size() + kChunk - 1) / kChunk;
  std::vector<Clock::time_point> sent(chunks);
  std::vector<std::uint64_t> through(chunks);  // edges submitted through k
  std::size_t done = 0;  // chunks known to be applied
  std::uint64_t submitted = 0;
  auto poll = [&](std::size_t sent_chunks) {
    const std::uint64_t applied = fleet.EdgesProcessed();
    const auto now = Clock::now();
    for (; done < sent_chunks && applied >= through[done]; ++done) {
      r.lag_us.push_back(MicrosBetween(sent[done], now));
    }
  };

  const auto t_begin = Clock::now();
  for (std::size_t k = 0; k < chunks; ++k) {
    while (k - done >= kInFlightChunks) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      poll(k);
    }
    const std::size_t begin = k * kChunk;
    const std::size_t size = std::min(kChunk, stream.size() - begin);
    std::size_t enqueued = 0;
    sent[k] = Clock::now();
    Status st;
    {
      auto span = tracer->Open("service", "SubmitBatch", traced);
      st = fleet.SubmitBatch(
          std::span<const Edge>(stream.data() + begin, size), &enqueued);
    }
    r.submit_us.push_back(MicrosBetween(sent[k], Clock::now()));
    report->Attempt(size);
    if (!st.ok() || enqueued != size) {
      report->Fail("fleet-saturate rejected submit", size - enqueued);
    }
    submitted += enqueued;
    through[k] = submitted;
  }
  while (done < chunks) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    poll(chunks);
  }
  {
    auto span = tracer->Open("service", "Drain", traced);
    fleet.Drain();
  }
  r.wall_s = SecondsSince(t_begin);

  report->Attempt();
  if (fleet.EdgesProcessed() != submitted) {
    report->Fail("fleet-saturate EdgesProcessed " +
                 std::to_string(fleet.EdgesProcessed()) + " != submitted " +
                 std::to_string(submitted));
  }
  r.counters = ReadCounters(fleet, tracer, traced);
  r.stats = CheckShards(&fleet, tracer, traced, report, "fleet-saturate");
  fleet.Stop();
  return r;
}

/// Single-threaded baseline: each shard's sub-stream of the first round's
/// stream replayed serially into a bare detector with grouping on and the
/// worker's detect cadence.
/// Returns the slowest shard's replay time. With `traced`, every ApplyEdge
/// and Detect is a span and `urgent` and `stats` are filled in.
double SerialMaxShardSeconds(const FleetInputs& in, Tracer* tracer,
                             bool traced, Report* report, std::size_t* urgent,
                             spade::ReorderStats* stats) {
  const std::size_t detect_every = spade::DetectionServiceOptions{}.detect_every;
  double worst = 0;
  for (std::size_t s = 0; s < in.shards; ++s) {
    Spade spade = NewDetector();
    spade.TurnOnEdgeGrouping();
    if (!spade.BuildGraph(in.num_vertices, in.initial_parts[s]).ok()) {
      report->Fail("serial baseline BuildGraph");
      return 0;
    }
    std::vector<Edge> sub;
    for (const Edge& e : in.streams[0]) {
      if (TenantOf(e.src) % in.shards == s) sub.push_back(e);
    }
    std::size_t since_detect = 0;
    const auto t0 = Clock::now();
    for (const Edge& e : sub) {
      Status st;
      {
        auto span = tracer->Open("core", "ApplyEdge", traced);
        st = spade.ApplyEdge(e);
      }
      if (!st.ok()) {
        report->Fail("serial baseline ApplyEdge");
        return 0;
      }
      ++since_detect;
      const bool flushed = spade.PendingBenignEdges() == 0;
      if (flushed) ++*urgent;
      if (flushed || since_detect >= detect_every) {
        auto span = tracer->Open("core", "Detect", traced);
        spade.Detect();
        since_detect = 0;
      }
    }
    if (since_detect > 0) {
      auto span = tracer->Open("core", "Detect", traced);
      spade.Detect();
    }
    worst = std::max(worst, SecondsSince(t0));
    stats->Accumulate(spade.cumulative_stats());
  }
  return worst;
}

/// The stream is submitted in this many parts in the storage run, each
/// followed by a stitch pass, a read and a delta checkpoint.
constexpr std::size_t kStorageParts = 8;

/// Storage and stitching on the fleet-saturate graph, once per run after
/// the measured rounds (which stay insert-only, so these calls do not touch
/// ingest_eps). A base checkpoint of the initial graph, then the stream in
/// kStorageParts parts, each followed by StitchNow, a read and a delta
/// SaveState; then the last read is checked against the merged graph, and
/// the chain is restored into a fresh fleet and compared strictly with the
/// live one. The fleet has no window, so its window logs are empty on both
/// sides.
void SaturateStorageRun(const FleetInputs& in, const std::string& dir,
                        Tracer* tracer, bool traced, Report* report,
                        FleetPasses* passes, std::uint64_t* unconsumed_boundary,
                        ShardedDetectionService::RestoreInfo* restore,
                        double* restore_s) {
  auto round_span = tracer->Open("bench", "storage-run", traced);
  std::vector<Spade> shards;
  if (!BuildShards(in, tracer, traced, report, &shards)) return;
  ShardedDetectionService fleet(std::move(shards),
                                [](std::size_t, const Community&) {},
                                FleetOptions(0));
  std::filesystem::remove_all(dir);
  const std::vector<Edge>& stream = in.streams[0];
  auto save = [&] {
    const Status st = passes->Save(
        &fleet, dir, ShardedDetectionService::SaveMode::kAuto, tracer, traced);
    report->Attempt();
    if (!st.ok()) report->Fail("fleet-saturate SaveState: " + st.ToString());
  };
  save();
  spade::GlobalCommunity stitched;
  const std::size_t part = (stream.size() + kStorageParts - 1) / kStorageParts;
  for (std::size_t begin = 0; begin < stream.size(); begin += part) {
    const std::size_t end = std::min(begin + part, stream.size());
    for (std::size_t at = begin; at < end; at += kChunk) {
      const std::size_t size = std::min(kChunk, end - at);
      std::size_t enqueued = 0;
      Status st;
      {
        auto span = tracer->Open("service", "SubmitBatch", traced);
        st = fleet.SubmitBatch(std::span<const Edge>(stream.data() + at, size),
                               &enqueued);
      }
      report->Attempt(size);
      if (!st.ok() || enqueued != size) {
        report->Fail("fleet-saturate rejected submit", size - enqueued);
      }
    }
    stitched = passes->StitchAndRead(&fleet, tracer, traced);
    save();
  }
  CheckNoOverclaim(&fleet, stitched, in.num_vertices, tracer, traced, report,
                   "fleet-saturate");
  *unconsumed_boundary = ReadCounters(fleet, tracer, traced).unconsumed_boundary;
  fleet.Stop();
  *restore_s = RestoreAndCompare(fleet, dir, "fleet-saturate chain restore",
                                 in, 0, tracer, traced, report, restore);
}

void RunFleetSaturate(const Args& args, Report* report, Tracer* tracer) {
  // Each round sends its own stream (all drawn from the seed before any
  // timer starts): how a stream's tenants fall sets much of a round's lag
  // tail, so a run averages over as many draws as it has rounds. Each
  // metric is the median over rounds of a per-round value. (The shard
  // threads' scheduling makes a round faster or slower than usual about
  // equally often here, so the median is steadier than the best round.)
  // The lag tail is the round's upper quartile: a round has only 24
  // chunks, and its p90 (about the third-largest lag) spread too widely
  // between runs. NOTES.md gives the spreads.
  const std::uint32_t rounds =
      RoundsFor(args.seconds, kSaturateRoundsPerSecond);
  const FleetInputs in = BuildFleetInputs(args.seed, kSaturateEdges, rounds);
  std::printf("fleet-saturate: %zu shards, %zu tenants (Zipf s=1), %zu "
              "stream edges per round, %u rounds\n",
              in.shards, kTenants, kSaturateEdges, rounds);

  std::vector<double> setup_s, round_eps, lag_p50, lag_p75, submit_us;
  std::vector<double> traced_wall, untraced_wall;
  std::size_t lag_n = 0;
  SaturateRound last_traced;
  for (std::uint32_t round = 0; round < rounds; ++round) {
    tracer->set_run(round);
    const bool traced = args.trace && (round % 2 == 1);
    SaturateRound r =
        SaturateRoundRun(in, in.streams[round], tracer, traced, report);
    if (report->failed() > 0) break;
    setup_s.push_back(r.setup_s);
    (traced ? traced_wall : untraced_wall).push_back(r.wall_s);
    if (traced) {
      submit_us.insert(submit_us.end(), r.submit_us.begin(), r.submit_us.end());
      last_traced = std::move(r);
      continue;
    }
    round_eps.push_back(static_cast<double>(kSaturateEdges) / r.wall_s);
    lag_p50.push_back(Median(r.lag_us));
    lag_p75.push_back(Percentile(r.lag_us, 75));
    lag_n += r.lag_us.size();
  }

  tracer->set_run(999);
  FleetPasses passes;
  std::uint64_t unconsumed_boundary = 0;
  ShardedDetectionService::RestoreInfo restore;
  double restore_s = 0;
  SaturateStorageRun(in, args.out_dir + "/fleet-saturate-checkpoint", tracer,
                     args.trace, report, &passes, &unconsumed_boundary,
                     &restore, &restore_s);

  const double setup = FastestSetup(setup_s);
  const double eps = Median(round_eps);
  const std::string note = "(median over " +
                           std::to_string(round_eps.size()) + " rounds)";
  report->Metric("setup_s", setup, "s", setup_s.size(), "(fastest)");
  report->Metric("ingest_eps", eps, "1/s", round_eps.size());
  report->Metric("apply_lag_us_p50", Median(lag_p50), "us", lag_n, note);
  report->Metric("apply_lag_us_p75", Median(lag_p75), "us", lag_n, note);
  report->Metric("restore_s", restore_s, "s", 1);
  report->Result("setup_s", setup, "s");
  report->Result("throughput_eps", eps, "1/s");
  report->Result("latency_us_p50", Median(lag_p50), "us");
  report->Result("latency_us_tail", Median(lag_p75), "us");

  if (!args.trace) return;
  // The baseline is timed untraced, then replayed traced for core.*.
  std::size_t urgent = 0;
  spade::ReorderStats serial_stats;
  const double serial_max =
      SerialMaxShardSeconds(in, tracer, false, report, &urgent, &serial_stats);
  urgent = 0;
  serial_stats.Reset();
  tracer->set_run(1000);
  SerialMaxShardSeconds(in, tracer, true, report, &urgent, &serial_stats);
  const auto apply = tracer->Durations("ApplyEdge");
  const auto detect = tracer->Durations("Detect");
  const double n = static_cast<double>(std::max<std::size_t>(apply.size(), 1));
  report->Layer("core.apply_us_p50", Median(apply));
  report->Layer("core.apply_us_p99", Percentile(apply, 99));
  report->Layer("core.reorder_vertices_per_edge",
                static_cast<double>(serial_stats.affected_vertices) / n);
  report->Layer("core.reorder_edges_per_edge",
                static_cast<double>(serial_stats.touched_edges) / n);
  report->Layer("core.detect_us_p50", Median(detect));
  report->Layer("core.detect_us_p99", Percentile(detect, 99));
  report->Layer("core.urgent_share", static_cast<double>(urgent) / n);
  report->Layer("core.build_s",
                Median(tracer->Durations("BuildGraph")) / 1e6);
  report->Layer("peel.static_ms",
                Median(tracer->Durations("PeelStatic")) / 1e3);
  report->Layer("service.submit_us_p50", Median(submit_us));
  report->Layer("service.submit_us_p99", Percentile(submit_us, 99));
  ReportServiceCounters(report, last_traced.counters, last_traced.stats);
  ReportPasses(report, passes, unconsumed_boundary, restore);
  const double fleet_wall = Median(untraced_wall);
  report->Layer("service.serial_max_shard_s", serial_max);
  report->Layer("service.overhead_share",
                fleet_wall > 0 ? 1.0 - serial_max / fleet_wall : 0.0);
  ReportTraceOverhead(report, untraced_wall, traced_wall);
}

// ------------------------------------------------------------- fleet-live --

/// Window span in event-time units (stream timestamps are the schedule's
/// due times in microseconds): two seconds of traffic stay resident. The
/// schedule opens with one span of warm-up traffic at the lowest rate, so
/// every rung runs with expiry in steady state.
constexpr spade::Timestamp kLiveWindowUs = 2'000'000;
/// Background edges are due in ticks of this many microseconds.
constexpr double kTickUs = 5'000;
/// A planted signal is due every 100 ms; every twentieth one is a
/// cross-shard ring, the rest are single-tenant bursts. Rings need at
/// least two shards.
constexpr double kSignalPeriodUs = 100'000;
constexpr std::size_t kRingEvery = 20;
constexpr std::size_t kBurstSize = 5;  // a 5-clique, every pair once
constexpr std::size_t kRingSize = 6;   // a 6-cycle across two shards
constexpr std::size_t kRingCopies = 2;
/// Signal weights grow 1% per signal, so each burst (density 2w) is denser
/// than every earlier signal and than the whale (density ~500). A ring's
/// edges weigh 1.8x the current burst weight: the ring (density 3.6w) is
/// the densest community in the fleet until the next ring (2 s later),
/// while its pieces inside one shard (density 1.8w) stay lighter than the
/// next burst.
constexpr double kFirstSignalWeight = 300.0;
constexpr double kSignalGrowth = 1.01;
constexpr double kRingWeightFactor = 1.8;
/// The control thread starts a pass every 10 ms (at once when a pass
/// overran) and checkpoints on every sixth pass: with the default
/// CheckpointPolicy that folds the chain into a new base about once a
/// second, well inside one window span.
constexpr std::int64_t kControlTickUs = 10'000;
constexpr std::size_t kSaveEvery = 6;
/// A rung keeps up when its backlog at the end is at most this many
/// seconds of its offered traffic.
constexpr double kBacklogSeconds = 0.1;

struct Send {
  double due_us = 0;
  std::size_t begin = 0;  // range in LiveInputs::edges
  std::size_t size = 0;
  int signal = -1;  // index in LiveInputs::signals, -1 = background
};

struct Signal {
  bool ring = false;
  std::size_t rung = 0;
  double due_us = 0;
  std::vector<VertexId> members;
};

struct LiveInputs {
  FleetInputs fleet;
  std::vector<Edge> edges;
  std::vector<Send> sends;  // in due order
  std::vector<Signal> signals;
  std::vector<int> burst_of_vertex;  // signal index of a burst member, else -1
  /// Rung k runs from boundary_us[k] to boundary_us[k + 1]; before
  /// boundary_us[0] is the warm-up.
  std::vector<double> boundary_us;
};

/// The open-loop schedule: one window span of warm-up at the lowest rate,
/// then background traffic at each ladder rate for an equal share of
/// `seconds`, with the planted signals.
LiveInputs BuildLiveInputs(std::uint64_t seed, const std::vector<double>& ladder,
                           double seconds) {
  LiveInputs in;
  in.fleet = BuildFleetInputs(seed, 0, 0);  // graph only; the stream is below
  in.burst_of_vertex.assign(in.fleet.num_vertices, -1);
  spade::Rng rng(seed ^ 0x11feull);
  const double rung_us = seconds * 1e6 / static_cast<double>(ladder.size());
  const auto warmup_us = static_cast<double>(kLiveWindowUs);
  for (std::size_t k = 0; k <= ladder.size(); ++k) {
    in.boundary_us.push_back(warmup_us + rung_us * static_cast<double>(k));
  }
  std::vector<VertexId> next_reserved(kTenants, 0);
  auto reserved = [&](std::size_t tenant) {
    const VertexId slot = next_reserved[tenant]++ % kReserved;
    return static_cast<VertexId>(tenant * kVerticesPerTenant +
                                 kVerticesPerTenant - kReserved + slot);
  };

  std::vector<Send> signal_sends;
  double weight = kFirstSignalWeight;
  for (double due = warmup_us + kSignalPeriodUs / 2;
       due < in.boundary_us.back();
       due += kSignalPeriodUs, weight *= kSignalGrowth) {
    Signal sig;
    sig.ring = in.signals.size() % kRingEvery == kRingEvery - 1;
    sig.due_us = due;
    sig.rung = static_cast<std::size_t>((due - warmup_us) / rung_us);
    const auto ts = static_cast<spade::Timestamp>(due);
    Send send{due, in.edges.size(), 0, static_cast<int>(in.signals.size())};
    if (sig.ring) {
      // Members alternate between the tenants of two shards, so no two
      // ring edges that share a vertex land in one shard: each shard holds
      // only disjoint pairs (density 1.8w), never a longer piece.
      const std::size_t shards = in.fleet.shards;
      const std::size_t ring = in.signals.size() / kRingEvery;
      for (std::size_t j = 0; j < kRingSize; ++j) {
        const std::size_t shard = (ring + j % 2) % shards;
        const std::size_t per_shard = (kTenants - shard + shards - 1) / shards;
        sig.members.push_back(reserved(shard + shards * ((j / 2) % per_shard)));
      }
      for (std::size_t c = 0; c < kRingCopies; ++c) {
        for (std::size_t j = 0; j < kRingSize; ++j) {
          in.edges.push_back(Edge{sig.members[j],
                                  sig.members[(j + 1) % kRingSize],
                                  weight * kRingWeightFactor, ts});
        }
      }
    } else {
      const std::size_t tenant = in.signals.size() % kTenants;
      for (std::size_t j = 0; j < kBurstSize; ++j) {
        const VertexId v = reserved(tenant);
        sig.members.push_back(v);
        in.burst_of_vertex[v] = static_cast<int>(in.signals.size());
      }
      for (std::size_t a = 0; a < kBurstSize; ++a) {
        for (std::size_t b = a + 1; b < kBurstSize; ++b) {
          in.edges.push_back(Edge{sig.members[a], sig.members[b], weight, ts});
        }
      }
    }
    send.size = in.edges.size() - send.begin;
    signal_sends.push_back(send);
    in.signals.push_back(std::move(sig));
  }

  std::vector<Send> background;
  double owed = 0;
  for (std::size_t k = 0; k <= ladder.size(); ++k) {
    // Phase 0 is the warm-up; phase k > 0 is rung k - 1.
    const double begin = k == 0 ? 0.0 : in.boundary_us[k - 1];
    const double rate = ladder[k == 0 ? 0 : k - 1];
    for (double due = begin; due < in.boundary_us[k]; due += kTickUs) {
      owed += rate * kTickUs / 1e6;
      Send send{due, in.edges.size(), 0, -1};
      for (; owed >= 1.0; owed -= 1.0) {
        Edge e = StreamEdge(&rng, rng.NextBounded(kTenants));
        e.ts = static_cast<spade::Timestamp>(due);
        in.edges.push_back(e);
      }
      send.size = in.edges.size() - send.begin;
      if (send.size > 0) background.push_back(send);
    }
  }
  std::merge(background.begin(), background.end(), signal_sends.begin(),
             signal_sends.end(), std::back_inserter(in.sends),
             [](const Send& a, const Send& b) { return a.due_us < b.due_us; });
  return in;
}

void RunFleetLive(const Args& args, Report* report, Tracer* tracer) {
  if (args.ladder_eps.empty() || args.alert_lag_limit_ms <= 0 ||
      FleetShards() < 2 || FleetShards() > kTenants) {
    std::fprintf(stderr, "fleet-live needs --ladder-eps, "
                         "--alert-lag-limit-ms and 2 to %zu shards\n",
                 kTenants);
    std::exit(2);
  }
  const LiveInputs in = BuildLiveInputs(args.seed, args.ladder_eps,
                                        args.seconds);
  const std::size_t rungs = args.ladder_eps.size();
  std::printf("fleet-live: %zu shards, %zu tenants, window %.1f s, %zu "
              "rungs, %zu scheduled edges, %zu signals\n",
              in.fleet.shards, kTenants, kLiveWindowUs / 1e6, rungs,
              in.edges.size(), in.signals.size());
  const bool traced = args.trace;
  const std::string ckpt = args.out_dir + "/fleet-live-checkpoint";
  std::filesystem::remove_all(ckpt);

  // Alerts: the first alert that holds a member of each burst.
  std::vector<std::atomic<std::int64_t>> first_alert_ns(in.signals.size());
  for (auto& a : first_alert_ns) a.store(-1);
  auto clock_ns = [](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  auto on_alert = [&](std::size_t, const Community& c) {
    const std::int64_t now = clock_ns(Clock::now());
    for (VertexId v : c.members) {
      const int b = v < in.burst_of_vertex.size() ? in.burst_of_vertex[v] : -1;
      std::int64_t unset = -1;
      if (b >= 0) first_alert_ns[b].compare_exchange_strong(unset, now);
    }
  };

  // Set up several times; the last fleet serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<ShardedDetectionService> fleet;
  for (int k = 0; k < 3; ++k) {
    if (fleet) fleet->Stop();
    fleet.reset();
    const auto t_setup = Clock::now();
    std::vector<Spade> shards;
    if (!BuildShards(in.fleet, tracer, traced, report, &shards)) return;
    fleet = std::make_unique<ShardedDetectionService>(
        std::move(shards), on_alert, FleetOptions(kLiveWindowUs));
    setup_s.push_back(SecondsSince(t_setup));
  }

  // Control thread: stitch, read, and every kSaveEvery-th pass checkpoint.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> sends_done{0};
  FleetPasses passes;
  std::vector<double> ring_seen_s(in.signals.size(), -1);
  Status save_status;
  const Clock::time_point t0 = Clock::now();  // the schedule's time zero
  std::thread control([&] {
    std::vector<VertexId> read_members;
    auto tick = Clock::now();
    for (std::size_t pass = 1; !stop.load(); ++pass) {
      tick += std::chrono::microseconds(kControlTickUs);
      std::this_thread::sleep_until(tick);
      read_members =
          SortedMembers(passes.StitchAndRead(fleet.get(), tracer, traced));
      const std::size_t sent = sends_done.load();
      for (std::size_t i = 0; i < sent; ++i) {
        const int sig = in.sends[i].signal;
        if (sig < 0 || !in.signals[sig].ring || ring_seen_s[sig] >= 0) continue;
        bool all = true;
        for (VertexId v : in.signals[sig].members) {
          all = all && std::binary_search(read_members.begin(),
                                          read_members.end(), v);
        }
        if (all) ring_seen_s[sig] = SecondsSince(t0);
      }
      if (pass % kSaveEvery != 0) continue;
      save_status = passes.Save(fleet.get(), ckpt,
                                ShardedDetectionService::SaveMode::kAuto,
                                tracer, traced);
      if (!save_status.ok()) return;
    }
  });

  // Producer: the open-loop schedule. Lateness is send time minus due time.
  std::vector<double> late_ms;
  std::vector<double> rung_backlog(rungs, 0), rung_applied_eps(rungs, 0);
  std::vector<double> submit_us;
  std::uint64_t submitted = 0;
  std::size_t boundary = 0;  // next rung boundary to cross
  std::uint64_t rung_start_processed = 0;
  for (std::size_t i = 0; i <= in.sends.size(); ++i) {
    const double due = i < in.sends.size() ? in.sends[i].due_us : 1e300;
    for (; boundary <= rungs && due >= in.boundary_us[boundary]; ++boundary) {
      std::this_thread::sleep_until(
          t0 + std::chrono::microseconds(
                   static_cast<std::int64_t>(in.boundary_us[boundary])));
      const std::uint64_t processed = fleet->EdgesProcessed();
      if (boundary > 0) {
        const std::size_t k = boundary - 1;
        rung_backlog[k] = static_cast<double>(submitted - processed);
        rung_applied_eps[k] =
            static_cast<double>(processed - rung_start_processed) /
            (in.boundary_us[boundary] - in.boundary_us[k]) * 1e6;
      }
      rung_start_processed = processed;
    }
    if (i == in.sends.size()) break;
    const Send& send = in.sends[i];
    std::this_thread::sleep_until(
        t0 + std::chrono::microseconds(static_cast<std::int64_t>(due)));
    const auto t = Clock::now();
    late_ms.push_back(MicrosBetween(t0, t) / 1e3 - due / 1e3);
    std::size_t enqueued = 0;
    Status st;
    {
      auto span = tracer->Open("service", "SubmitBatch", traced);
      st = fleet->SubmitBatch(
          std::span<const Edge>(in.edges.data() + send.begin, send.size),
          &enqueued);
    }
    submit_us.push_back(MicrosBetween(t, Clock::now()));
    report->Attempt(send.size);
    if (!st.ok() || enqueued != send.size) {
      report->Fail("fleet-live rejected submit", send.size - enqueued);
    }
    submitted += enqueued;
    sends_done.store(i + 1);
  }
  ServiceCounters counters = ReadCounters(*fleet, tracer, traced);
  {
    auto span = tracer->Open("service", "Drain", traced);
    fleet->Drain();
  }
  stop.store(true);
  control.join();
  report->Attempt();
  if (!save_status.ok()) report->Fail("fleet-live SaveState: " + save_status.ToString());

  // Checks on the drained fleet.
  std::uint64_t retired = 0;
  {
    auto span = tracer->Open("service", "EdgesRetired", traced);
    retired = fleet->EdgesRetired();
  }
  counters.retired = retired;
  counters.processed = fleet->EdgesProcessed();
  const spade::ReorderStats stats =
      CheckShards(fleet.get(), tracer, traced, report, "fleet-live");
  spade::GlobalCommunity final_stitch;
  {
    auto span = tracer->Open("service", "StitchNow", traced);
    final_stitch = fleet->StitchNow();
  }
  CheckNoOverclaim(fleet.get(), final_stitch, in.fleet.num_vertices, tracer,
                   traced, report, "fleet-live");

  // Planted signals. Every burst must alert. A ring that no read showed
  // fails the check only on a rung that kept up: above capacity the open
  // loop queues the next ring (denser by design) before a stitch pass can
  // show this one, which is overload, counted against the rung instead.
  std::vector<bool> keeps_up(rungs);
  for (std::size_t k = 0; k < rungs; ++k) {
    keeps_up[k] = rung_backlog[k] <= args.ladder_eps[k] * kBacklogSeconds;
  }
  std::vector<std::vector<double>> alert_lag_ms(rungs);
  std::vector<std::size_t> rung_rings_missed(rungs, 0);
  std::vector<double> stitch_lag_ms;
  std::size_t bursts_missed = 0, rings_missed = 0;
  for (std::size_t b = 0; b < in.signals.size(); ++b) {
    const Signal& sig = in.signals[b];
    if (sig.ring) {
      if (ring_seen_s[b] >= 0) {
        stitch_lag_ms.push_back(ring_seen_s[b] * 1e3 - sig.due_us / 1e3);
        continue;
      }
      ++rung_rings_missed[sig.rung];
      if (keeps_up[sig.rung]) {
        report->Attempt();
        ++rings_missed;
      }
      continue;
    }
    report->Attempt();
    const std::int64_t ns = first_alert_ns[b].load();
    if (ns < 0) {
      ++bursts_missed;
      continue;
    }
    alert_lag_ms[sig.rung].push_back(
        static_cast<double>(ns - clock_ns(t0)) / 1e6 - sig.due_us / 1e3);
  }
  if (bursts_missed > 0) {
    report->Fail("fleet-live burst never alerted", bursts_missed);
  }
  if (rings_missed > 0) {
    report->Fail("fleet-live ring never visible on a rung that kept up",
                 rings_missed);
  }

  // End of run: checkpoint (the chain the control loop built, plus one full
  // checkpoint into a second directory, so the base-snapshot path is
  // checked however old the chain's base is), stop, restore each into a
  // fresh fleet and compare it with the live one.
  const std::string full_ckpt = args.out_dir + "/fleet-live-full-checkpoint";
  std::filesystem::remove_all(full_ckpt);
  for (const auto& [dir, mode] :
       {std::pair{ckpt, ShardedDetectionService::SaveMode::kAuto},
        std::pair{full_ckpt, ShardedDetectionService::SaveMode::kFull}}) {
    const Status st = passes.Save(fleet.get(), dir, mode, tracer, traced);
    report->Attempt();
    if (!st.ok()) report->Fail("fleet-live final SaveState: " + st.ToString());
  }
  fleet->Stop();
  ShardedDetectionService::RestoreInfo rinfo;
  const double restore_s =
      RestoreAndCompare(*fleet, ckpt, "fleet-live chain restore", in.fleet,
                        kLiveWindowUs, tracer, traced, report, &rinfo);
  ShardedDetectionService::RestoreInfo full_rinfo;
  const double full_restore_s =
      RestoreAndCompare(*fleet, full_ckpt, "fleet-live full restore",
                        in.fleet, kLiveWindowUs, tracer, traced, report,
                        &full_rinfo);

  // Ladder: a rung is sustained when its backlog did not grow, every ring
  // due in it became visible, and its bursts alerted within the lag limit
  // at their supported tail.
  double sustainable = 0;
  for (std::size_t k = 0; k < rungs; ++k) {
    const auto& lags = alert_lag_ms[k];
    const double tail =
        Percentile(lags, std::min(0.9, TailQuantile(lags.size())) * 100);
    const bool ok = keeps_up[k] && rung_rings_missed[k] == 0 &&
                    !lags.empty() && tail <= args.alert_lag_limit_ms;
    std::printf("rung %zu: offered %.0f eps, applied %.1f eps, backlog %.0f, "
                "alert lag p50 %.2f ms tail %.2f ms (n=%zu), rings missed "
                "%zu -> %s\n",
                k, args.ladder_eps[k], rung_applied_eps[k], rung_backlog[k],
                Median(lags), tail, lags.size(), rung_rings_missed[k],
                ok ? "sustained" : "not sustained");
    if (ok) sustainable = rung_applied_eps[k];
  }

  const double setup = FastestSetup(setup_s);
  report->Metric("setup_s", setup, "s", setup_s.size(), "(fastest)");
  report->Metric("sustainable_eps", sustainable, "1/s", rungs);
  const auto [lag_p50, lag_p90] =
      LatencyMetric(report, "alert_lag_ms", alert_lag_ms[0], "ms", 0.90);
  LatencyMetric(report, "stitch_lag_ms", stitch_lag_ms, "ms", 0.90);
  report->Metric("restore_s", restore_s, "s", 1);
  report->Metric("full_restore_s", full_restore_s, "s", 1);
  report->Result("setup_s", setup, "s");
  report->Result("throughput_eps", sustainable, "1/s");
  report->Result("latency_us_p50", lag_p50 * 1e3, "us");
  report->Result("latency_us_tail", lag_p90 * 1e3, "us");

  report->Layer("service.submit_us_p50", Median(submit_us));
  report->Layer("service.submit_us_p99", Percentile(submit_us, 99));
  ReportServiceCounters(report, counters, stats);
  ReportPasses(report, passes, counters.unconsumed_boundary, rinfo);
  report->Layer("gen.late_ms_p99", Percentile(late_ms, 99));
  report->Layer("gen.backlog_end_per_rung",
                *std::max_element(rung_backlog.begin(), rung_backlog.end()));
  report->Layer("core.build_s", Median(tracer->Durations("BuildGraph")) / 1e6);
  report->Layer("peel.static_ms", Median(tracer->Durations("PeelStatic")) / 1e3);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: spade_perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--out-dir D] [--ladder-eps R,..] "
                 "[--alert-lag-limit-ms L]\n");
    return 2;
  }
  Report report;
  Tracer tracer(args.trace);
  if (args.workload == "paper-stream") {
    RunPaperStream(args, &report, &tracer);
  } else if (args.workload == "fleet-saturate") {
    RunFleetSaturate(args, &report, &tracer);
  } else if (args.workload == "fleet-live") {
    RunFleetLive(args, &report, &tracer);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const double rss = PeakRssMb();
  report.Metric("peak_rss_mb", rss, "MB", 1);
  report.Result("peak_rss_mb", rss, "MB");
  if (args.trace) {
    ReportSelfTimes(&report, tracer);
    std::filesystem::create_directories(args.out_dir);
    const std::string path =
        args.out_dir + "/trace-" + args.workload + "-" +
        std::to_string(args.seed) + ".tsv";
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
    } else {
      std::printf("trace: %s\n", path.c_str());
    }
  }
  report.Finish(args.trace);
  return report.failed() == 0 ? 0 : 1;
}
