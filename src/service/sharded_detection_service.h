// ShardedDetectionService: N independent ShardWorker pipelines behind a
// pluggable partitioner — the service-layer analogue of κ-Join's
// vertex-cover decomposition (PAPERS.md): split the workload into parts
// whose updates never interact, run each part's detector on its own core,
// and combine answers at read time.
//
// Partitioner contract: a Partitioner carries two functions. `edge_key`
// maps an edge to an arbitrary std::size_t routing key (reduced modulo the
// shard count) and decides which shard applies the edge; `home` maps a
// vertex to its home-shard key. For the built-in partitioners (hash-of-src,
// tenant) routing IS home-of-source, so an edge whose endpoints share a
// home is fully visible to its shard. When the endpoints' homes differ the
// edge still lands in exactly one shard's detector, and the partition that
// applies it adds its applied weight to both endpoints' boundary weights
// (ShardWorker::Partition::boundary) inside the same critical section — so
// the stitcher knows the seam exists. A bare PartitionFn still converts
// implicitly; its `home` defaults to the key of a synthetic self-edge,
// which is exact for any partitioner that only reads `src`.
//
// Cross-shard reads: CurrentCommunity() is the densest community over all
// shard snapshots (per-shard argmax). The stitch pass (StitchNow,
// or a background stitcher when StitchOptions::interval_ms > 0 runs it on
// a timer and/or StitchOptions::trigger_weight > 0 wakes it the moment a
// partition pair's accumulated unstitched weight crosses the threshold)
// closes the argmax's blind spot: it sums the partitions' boundary weights,
// builds a seam graph over the heaviest boundary vertices plus every
// shard's snapshot members, gathers that vertex set's induced edges from
// the shard detectors (each edge lives in exactly one shard, so the union
// is the exact global induced subgraph), peels it with the static peeler,
// and publishes the result as an atomically-swapped GlobalCommunity
// snapshot — same non-blocking read protocol as the shard snapshots.
// CurrentGlobalCommunity() returns the denser of the stitched snapshot and
// the live argmax. Boundary weights are derived from the shard graphs, so
// they need no file and expire with the window. DESIGN.md §4.4 has the
// exactness, freshness and staleness statements.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/spade.h"
#include "graph/types.h"
#include "service/partition_map.h"
#include "service/shard_worker.h"
#include "storage/sharded_snapshot.h"

namespace spade {

/// Maps an edge to a routing key; the service takes it modulo num_shards.
using PartitionFn = std::function<std::size_t(const Edge&)>;

/// Maps a vertex to its home-shard key (modulo num_shards).
using VertexHomeFn = std::function<std::size_t(VertexId)>;

/// Edge routing plus vertex home assignment. `home` drives boundary-edge
/// detection and the stitch pass's shard tagging; when null it is derived
/// from `edge_key` on a synthetic self-edge (exact whenever the edge key
/// only reads the source vertex — true for every built-in partitioner).
struct Partitioner {
  Partitioner() = default;
  // NOLINTNEXTLINE(google-explicit-constructor): a bare edge-routing
  // function is still a complete partitioner (see `home` above).
  Partitioner(PartitionFn edge) : edge_key(std::move(edge)) {}
  Partitioner(PartitionFn edge, VertexHomeFn home_fn)
      : edge_key(std::move(edge)), home(std::move(home_fn)) {}

  PartitionFn edge_key;
  VertexHomeFn home;
  /// Promise that edge_key(e) % n == home(e.src) % n for every edge and
  /// every shard count n. When set, the batched router skips the edge_key
  /// evaluation entirely and routes by the source home it already computed
  /// for the boundary decision — one partitioner-function evaluation saved
  /// per edge. Both built-in partitioners satisfy (and set) it; leave it
  /// false for a custom edge_key unless the identity genuinely holds, or
  /// batched and per-edge routing will disagree.
  bool routes_by_src_home = false;

  explicit operator bool() const { return static_cast<bool>(edge_key); }
};

/// Alert callback with the originating shard id. Invoked from that shard's
/// worker thread; callbacks from different shards run concurrently.
using ShardAlertFn = std::function<void(std::size_t shard, const Community&)>;

/// Default partitioner: a mixed hash of the source vertex (home = the same
/// hash of the vertex, so routing equals home-of-source).
Partitioner HashOfSourcePartitioner();

/// Tenant routing for id spaces laid out as [tenant * vertices_per_tenant,
/// (tenant+1) * vertices_per_tenant): home(v) = v / vertices_per_tenant and
/// an edge routes to its source's tenant. A cross-tenant edge is applied in
/// the source tenant's shard AND counted in its endpoints' boundary
/// weights, so a community spanning tenants is reachable by the stitch pass
/// instead of silently invisible.
Partitioner TenantPartitioner(VertexId vertices_per_tenant);

/// Result of a stitch pass (and the stitched read): a community whose
/// density was evaluated on the exact global induced subgraph of its
/// members, tagged with the home shards that contribute members.
struct GlobalCommunity : Community {
  /// True when the seam-graph peel produced this answer (strictly denser
  /// than every single-shard snapshot); false when the pass fell back to
  /// the per-shard argmax.
  bool stitched = false;
  /// Sorted unique home shards of the members.
  std::vector<std::size_t> shards;
  /// Monotone stitch-pass counter that produced this snapshot (0 = never).
  std::uint64_t stitch_pass = 0;
  /// Seam-graph size of the producing pass (diagnostics).
  std::size_t seam_vertices = 0;
  std::size_t seam_edges = 0;
  /// True when the producing pass dropped boundary-candidate vertices at
  /// the max_seam_vertices budget — the answer may under-report a global
  /// community that needed the dropped vertices. The background stitcher
  /// escalates to an unbounded pass when it sees this.
  bool seam_truncated = false;
};

/// Invoked after a stitch pass whose winning community came from the seam
/// peel and differs from the previous stitched detection. Runs on the
/// calling (or background stitcher) thread with no service lock held.
using StitchAlertFn = std::function<void(const GlobalCommunity&)>;

/// Stitch-pass configuration.
struct StitchOptions {
  /// Cap on the seam-graph vertex count. Shard snapshot members are always
  /// included; boundary vertices fill the remainder in decreasing order of
  /// live cross-home edge weight.
  std::size_t max_seam_vertices = 4096;
  /// When > 0, a background thread runs a stitch pass at this period.
  std::uint32_t interval_ms = 0;
  /// Event-driven stitching: when > 0, every applied (or retired)
  /// cross-home edge adds its applied weight to a per-partition-pair
  /// accumulator, and the pair crossing this threshold wakes the
  /// background stitcher immediately — freshness becomes "bounded edges
  /// behind the threshold crossing" instead of "interval_ms behind".
  /// Works alone (interval_ms == 0: the stitcher only wakes on triggers)
  /// or combined (triggers cut the wait short). Accumulators reset at
  /// every pass. 0 = timer-only stitching.
  double trigger_weight = 0.0;
  /// Stitched-detection alerts (see StitchAlertFn).
  StitchAlertFn on_stitch_alert;
};

/// Work-stealing rebalance policy (DESIGN.md §10). Off by default: with
/// `enabled` false and `partitions_per_shard` 1 the service behaves (and
/// persists) exactly as a fixed-placement fleet.
struct RebalanceOptions {
  /// Detector partitions per worker. The constructor's `shards` vector has
  /// one detector per PARTITION; the worker count is
  /// shards.size() / partitions_per_shard (must divide evenly). More
  /// partitions per shard = finer-grained steals, at the cost of one
  /// routing-table entry and one detector per partition.
  std::size_t partitions_per_shard = 1;
  /// Master switch for partition moves (the rebalancer thread AND manual
  /// RebalanceNow). When false partitions never move, so no edge is ever
  /// forwarded.
  bool enabled = false;
  /// Rebalancer scan period; 0 = no background rebalancer (manual
  /// RebalanceNow only).
  std::uint32_t interval_ms = 0;
  /// Steal when the loaded worker's recent queue high-water exceeds
  /// skew_ratio x the idlest worker's.
  double skew_ratio = 4.0;
  /// ... and that high-water is at least this deep (don't shuffle
  /// partitions over noise).
  std::size_t min_queue_depth = 512;
  /// ... and moving the chosen partition shrinks the victim-vs-thief load
  /// gap by at least this fraction (hysteresis against ping-ponging a
  /// partition between two workers).
  double min_improvement = 0.15;
  /// Minimum wait between moves.
  std::uint32_t cooldown_ms = 200;
  /// Best-effort drain of the victim before detaching (bounds how many
  /// in-flight edges the move turns into forwards; the protocol is correct
  /// at 0, just chattier).
  std::uint32_t quiesce_timeout_ms = 5;
};

/// Sliding-window expiry policy. With `span > 0` every shard keeps a
/// window log (applied weight + event timestamp per edge), the router
/// tracks a high-water event-time watermark over submitted edges, and
/// whenever the watermark advances a stride past the last expiry horizon
/// the service enqueues a retire marker on every shard: edges older than
/// `watermark - span` are deleted from the detectors with their recorded
/// applied weights, through the same queue and drain protocol as inserts;
/// each retired cross-home edge leaves its endpoints' boundary weights in
/// the same step, so resident state is O(window), not O(history).
/// `span == 0` (default) disables everything: the service is insert-only
/// and pays nothing.
struct WindowOptions {
  /// Window span in event-time units (same clock as Edge::ts); 0 = off.
  Timestamp span = 0;
  /// Minimum watermark advance between automatic retire passes. 0 picks
  /// span / 8 — ~8 passes per window of traffic, amortizing the marker +
  /// deletion cost while keeping resident overshoot under ~12% of span.
  Timestamp stride = 0;
};

/// When an auto-mode SaveState folds the delta chain back into a fresh
/// base instead of appending another segment. Either trigger alone forces
/// compaction; both bound the restore-time replay work (chain length) and
/// the directory's byte overhead relative to one full snapshot.
struct CheckpointPolicy {
  /// Compact when the chain already holds this many delta epochs.
  std::size_t max_chain_length = 16;
  /// Compact when accumulated delta bytes exceed this fraction of the
  /// base-snapshot bytes.
  double max_delta_base_ratio = 0.5;
};

struct ShardedDetectionServiceOptions {
  /// Knobs applied to every shard worker.
  DetectionServiceOptions shard;
  /// Edge routing + vertex homes; null selects HashOfSourcePartitioner().
  Partitioner partitioner;
  /// Cross-shard stitching knobs.
  StitchOptions stitch;
  /// Delta-chain compaction triggers for auto-mode SaveState.
  CheckpointPolicy checkpoint;
  /// Sliding-window expiry (span == 0 = insert-only service, no window
  /// log, no watermark tracking).
  WindowOptions window;
  /// CPU pinning for the shard workers: shard i pins to
  /// shard_cpus[i % shard_cpus.size()] (empty = unpinned). Linux-only;
  /// elsewhere, and for CPUs that do not exist, the worker logs a warning
  /// and runs unpinned — never an error.
  std::vector<int> shard_cpus;
  /// Threads used by RestoreState's chain replay: 0 = one per shard (the
  /// default — each shard's chain replays only into its own detector, so
  /// the replays are independent and bit-identical to a serial restore),
  /// 1 = serial, n = capped worker pool.
  std::size_t restore_threads = 0;
  /// Work-stealing rebalance (partition granularity, steal policy).
  RebalanceOptions rebalance;
};

/// Merged + per-shard service counters. All reads are lock-free (queue
/// depths come from a relaxed mirror, not the queue mutex).
struct ShardedServiceStats {
  std::uint64_t edges_processed = 0;
  std::uint64_t alerts_delivered = 0;
  /// Republishes that kept the last alert's members and moved its density
  /// only within 1e-9 relative (SameDensity): ulp drift from a deferred
  /// reorder, not delivered as an alert.
  std::uint64_t alerts_suppressed = 0;
  /// Live cross-home edges (applied and not retired).
  std::uint64_t boundary_edges = 0;
  std::uint64_t stitch_passes = 0;
  std::uint64_t stitched_alerts = 0;
  /// Stitch passes that dropped seam candidates at the max_seam_vertices
  /// budget (each also logs once). A growing value means the budget is
  /// binding and stitched answers may under-report; raise the budget or
  /// rely on the stitcher's escalation pass.
  std::uint64_t seam_truncated = 0;
  /// Event-driven stitcher wakeups (trigger_weight crossings observed).
  std::uint64_t stitch_triggers = 0;
  /// Stitched-read freshness in edges: cross-home applies and retires
  /// since the last stitch pass read the boundary weights (0 = the seam
  /// candidates are fully caught up).
  std::uint64_t boundary_unconsumed_edges = 0;
  /// Edges removed by window expiry across all shards (0 when window off).
  std::uint64_t retired_edges = 0;
  /// Detector partitions in the fleet (== num_shards unless
  /// partitions_per_shard > 1).
  std::size_t num_partitions = 0;
  /// Partition moves initiated by the background rebalancer's steal policy.
  std::uint64_t steals = 0;
  /// All partition moves (steals + manual RebalanceNow calls).
  std::uint64_t partitions_moved = 0;
  /// Edges that arrived at a stale owner after a move and were re-submitted
  /// to the current owner (each counted once per successful forward hop).
  std::uint64_t forwarded_edges = 0;
  std::vector<std::uint64_t> shard_edges;
  std::vector<std::uint64_t> shard_alerts;
  std::vector<std::uint64_t> shard_retired;
  std::vector<std::uint64_t> shard_detections;
  std::vector<std::size_t> shard_queue_depth;
  /// Highest queue depth each shard reached since the last
  /// ResetQueueHighWater() (or ever): the handoff-pressure gauge — a
  /// high-water mark near max_queue means producers outran that shard.
  std::vector<std::size_t> shard_queue_hwm;
  /// Fraction of wall time each worker spent applying edges (vs parked):
  /// the skew gauge the steal policy acts on.
  std::vector<double> shard_busy_fraction;
  /// Partitions each worker currently owns.
  std::vector<std::size_t> shard_partitions;
  /// Benign-buffered edges each worker holds across its partitions:
  /// applied and published, but not yet reordered into the peel state.
  /// Drain leaves them buffered; each partition holds at most
  /// SpadeOptions::max_benign_buffer.
  std::vector<std::size_t> shard_pending_benign;
};

/// Partition-parallel streaming front-end over N Spade detectors. With one
/// shard it is the single-node service: the paper's Figure 1 deployment
/// loop, one detector fed by concurrent producers.
class ShardedDetectionService {
 public:
  /// Takes ownership of one fully built detector per PARTITION (all built
  /// with the same semantics; each should hold its partition's initial
  /// graph). With the default RebalanceOptions a partition is a shard and
  /// this is one detector per shard; with partitions_per_shard = k the
  /// fleet runs shards.size() / k workers and partition pid starts on
  /// worker pid % num_shards. Workers start immediately.
  ShardedDetectionService(std::vector<Spade> shards, ShardAlertFn on_alert,
                          ShardedDetectionServiceOptions options = {});

  /// Stops all shards.
  ~ShardedDetectionService();

  ShardedDetectionService(const ShardedDetectionService&) = delete;
  ShardedDetectionService& operator=(const ShardedDetectionService&) = delete;

  std::size_t num_shards() const { return workers_.size(); }

  /// Detector partitions in the fleet (>= num_shards; the routing
  /// granularity and the unit of rebalance).
  std::size_t num_partitions() const { return map_.num_partitions(); }

  /// Worker currently owning partition `pid` (lock-free; advisory under a
  /// concurrent move).
  std::size_t PartitionShard(std::size_t pid) const {
    return map_.ShardOf(pid);
  }

  /// Routes the edge to its shard and enqueues it; callable from any
  /// thread. Per-shard FIFO order is preserved per producer thread. An
  /// edge whose endpoint homes differ enters its endpoints' boundary
  /// weights when the owning partition applies it (at the applied semantic
  /// weight, inside the detector critical section), so a rejected edge is
  /// never counted.
  Status Submit(const Edge& raw_edge);

  /// Bulk submit, the multi-producer throughput path: a thread-local
  /// RouterScratch partitions the chunk with one routing pass (flat
  /// reusable arenas, no per-call vector-of-vectors) and each shard
  /// receives its contiguous part as one queued chunk (one queue-mutex
  /// acquisition per shard, the part's vector moved in, not copied).
  /// Boundary weights update worker-side, exactly as in Submit. Order
  /// within the chunk is preserved per shard. Best-effort across shards:
  /// every shard's part is attempted and the first failure is returned.
  /// With `enqueued` non-null, `*enqueued` is the exact number of edges
  /// accepted — including prefixes a shard partially accepted under
  /// backpressure, which may reach the worker in pieces while the producer
  /// blocks (see ShardWorker::SubmitBatch); with it null, each shard's part
  /// is all-or-nothing, and a blocking shard hands it over in one piece.
  Status SubmitBatch(std::span<const Edge> raw_edges,
                     std::size_t* enqueued = nullptr);

  /// The shard `raw_edge` would be routed to.
  std::size_t ShardOf(const Edge& raw_edge) const;

  /// The shard currently owning a vertex's home partition.
  std::size_t HomeShardOf(VertexId v) const;

  /// Blocks until every shard has applied and republished everything
  /// submitted before this call. Benign buffers stay buffered (an applied
  /// edge is in its partition's graph or benign buffer). Edges submitted
  /// concurrently need not be covered, so a producer that keeps submitting
  /// does not hold it up.
  void Drain();

  /// Bounded-wait Drain: true when every shard became exact within
  /// `timeout` (one shared deadline, not per shard), false when the
  /// deadline passed with at least one shard still behind. Replication
  /// seals and follower promotion use this so a wedged shard degrades to a
  /// reported failure instead of hanging the control plane.
  bool DrainFor(std::chrono::milliseconds timeout);

  /// Drains and stops all shard workers (and the background stitcher).
  /// Idempotent.
  void Stop();

  /// Densest community over all shard snapshots (ties break toward the
  /// lower shard id; never blocks on any apply path). Never sees a
  /// community that spans shards; CurrentGlobalCommunity() does.
  Community CurrentCommunity() const;

  /// Stitched read with provenance: the denser of the latest stitched
  /// snapshot and the live argmax, tagged with contributing shards — still
  /// lock-free, but only as fresh as the last stitch pass. While no retire
  /// pass has touched a contributing shard, a stitched snapshot's density
  /// is a valid lower bound of its member set's current density (inserts
  /// only grow a fixed set's induced density). Window expiry breaks that
  /// bound — deletions can make a stale stitched density OVERSTATE the
  /// live one — so every retire pass that removes edges from a
  /// contributing shard drops the published stitched snapshot, and
  /// stitched reads fall back to the live argmax until the next pass.
  GlobalCommunity CurrentGlobalCommunity() const;

  /// Runs a stitch pass now: drain, sum the boundary weights, gather the
  /// seam graph from the shard detectors, peel it, publish and return the
  /// winner. Concurrent calls serialize. See class comment.
  GlobalCommunity StitchNow();

  /// What the stitch pass ranks seam candidates by: per vertex, the
  /// summed applied weight of its live cross-home edges, over every
  /// partition (each worker read under its detector mutex, placement
  /// frozen). Edges still queued are not included; Drain first for an
  /// exact read.
  std::unordered_map<VertexId, double> BoundaryWeights() const;

  /// Shard id whose snapshot wins the density argmax. Advisory under
  /// concurrent updates: the shard may republish between this call and a
  /// subsequent read (CurrentCommunity() does its argmax and read in one
  /// pass and is not subject to that race).
  std::size_t TopShard() const;

  /// Latest published snapshot of one shard (never blocks).
  std::shared_ptr<const Community> ShardSnapshot(std::size_t shard) const;
  Community ShardCommunity(std::size_t shard) const;

  /// Runs `fn` on one shard's detector under its detector mutex (tests and
  /// diagnostics: peel-state differentials, graph audits). Blocks that
  /// shard's apply path for the duration. With partitions_per_shard > 1 the
  /// shard's FIRST owned partition is inspected; use InspectPartition for a
  /// specific one.
  void InspectShard(std::size_t shard,
                    const std::function<void(const Spade&)>& fn) const;

  /// Runs `fn` on one partition's detector, wherever it currently lives
  /// (takes the rebalance lock so the partition cannot move mid-inspect).
  Status InspectPartition(std::size_t pid,
                          const std::function<void(const Spade&)>& fn) const;

  /// Moves partition `pid` to worker `to_shard` at a drain boundary: the
  /// current owner is (best-effort) quiesced, the partition detaches,
  /// attaches to the target, and the routing entry republishes with a
  /// bumped epoch. Edges routed under the old entry are forwarded by the
  /// old owner — none lost, none double-applied. Fails with
  /// kFailedPrecondition unless RebalanceOptions::enabled; concurrent moves
  /// serialize. A no-op (OK) when `pid` already lives on `to_shard`.
  Status RebalanceNow(std::size_t pid, std::size_t to_shard);

  /// Explicit window expiry: enqueues a retire marker on every shard
  /// (edges with ts < `horizon` are deleted with their recorded applied
  /// weights — same queue and drain protocol as inserts, so Drain() after
  /// this call implies the expiry has fully applied). Requires
  /// WindowOptions::span > 0. The first shard enqueue error is returned;
  /// shards that accepted the marker still retire.
  Status RetireOlderThan(Timestamp horizon);

  /// High-water event timestamp over all submitted edges (relaxed; 0 until
  /// the first submit). Only tracked when the window is on.
  Timestamp Watermark() const {
    return watermark_.load(std::memory_order_relaxed);
  }

  /// Edges removed by window expiry across all shards.
  std::uint64_t EdgesRetired() const;

  /// Copy of one shard's window log (tests and diagnostics; takes that
  /// shard's detector mutex).
  std::vector<Edge> ShardWindow(std::size_t shard) const;

  /// Merged counters plus per-shard breakdown.
  ShardedServiceStats GetStats() const;
  std::uint64_t EdgesProcessed() const;
  std::uint64_t AlertsDelivered() const;

  /// Deepest current queue across the shards (relaxed reads). Adaptive
  /// producers use it to size their next chunk.
  std::size_t MaxQueueDepth() const;

  /// Zeroes every shard's queue high-water mark. Phase-structured
  /// measurements (admission vs drain) reset between phases so the second
  /// phase's peak is not masked by the first's.
  void ResetQueueHighWater();

  /// Checkpoint flavor for SaveState.
  enum class SaveMode {
    /// Delta when a chain is active in `dir` and the CheckpointPolicy
    /// allows it; full (base rewrite) otherwise.
    kAuto,
    /// Always rewrite the base snapshots (and start a fresh chain).
    kFull,
    /// Always append a delta epoch; fails with kFailedPrecondition when no
    /// chain is active in `dir` (bench/tests that must isolate delta cost).
    kDelta,
  };

  /// What one SaveState actually did.
  struct SaveInfo {
    bool delta = false;        // wrote only delta segments
    bool compacted = false;    // auto mode folded the chain into a new base
    std::uint64_t epoch = 0;   // checkpoint epoch this save produced
    std::uint64_t bytes_written = 0;  // all files incl. manifest
    std::size_t chain_length = 0;     // delta epochs now in the manifest
    std::size_t delta_edges = 0;      // edge records across all segments
  };

  /// What one RestoreState actually recovered.
  struct RestoreInfo {
    std::uint64_t manifest_epoch = 0;  // epoch the manifest claims
    std::uint64_t restored_epoch = 0;  // epoch actually reconstructed
    std::size_t delta_edges_replayed = 0;
    /// True when a torn/corrupt chain tail forced recovery to an earlier
    /// durable epoch (restored_epoch < manifest_epoch).
    bool truncated_chain = false;
    /// Wall-clock duration of the whole restore (validation + parallel
    /// chain replay; see ShardedDetectionServiceOptions::restore_threads).
    double restore_millis = 0.0;
  };

  /// Checkpoints all shards into `dir` (created if needed). The first save
  /// into a directory writes full base snapshots; subsequent saves into
  /// the same directory append one delta epoch — per-shard segments
  /// holding only the edges applied since the previous checkpoint, and a
  /// rewritten (tiny) manifest — so checkpoint cost tracks traffic, not
  /// graph size. The
  /// CheckpointPolicy folds the chain back into a fresh base when it grows
  /// past its bounds. Drains each shard first. Crash-safe at every point:
  /// the manifest is written last and atomically, and every bulk file
  /// carries a CRC trailer, so a torn save either leaves the previous
  /// manifest in charge or is detected at restore.
  Status SaveState(const std::string& dir, SaveMode mode = SaveMode::kAuto,
                   SaveInfo* info = nullptr);

  /// Restores a directory written by SaveState. The manifest's shard count
  /// must match this service's — validated (like everything else) before
  /// any side effect: the whole chain is parsed and CRC-checked first, and
  /// only then installed, so a failed restore never leaves a partial
  /// graph. A torn chain tail (crash during the last delta save) recovers
  /// to the last epoch whose files are all intact; a torn base or manifest
  /// fails cleanly. Delta chains replay through the live apply path
  /// (ApplyEdgeDeferred), so restored detectors are bit-identical to the
  /// ones that wrote the chain. Delta chains replay in parallel, one
  /// thread per shard by default (each chain replays only into its own
  /// detector, so the result is bit-identical to a serial restore;
  /// `restore_threads` caps or serializes the pool). Detectors keep their
  /// installed semantics.
  /// Boundary weights are rebuilt from the restored graphs, and the
  /// stitched snapshot *and* the stitch counters are reset — stats()
  /// afterwards describes the restored run, not the one that wrote the
  /// snapshot.
  Status RestoreState(const std::string& dir, RestoreInfo* info = nullptr);

  /// Warm-standby increment: applies exactly checkpoint epoch
  /// `target_epoch` from `dir` on top of the service's current state —
  /// the follower that already restored (or replayed up to) epoch E calls
  /// this with E+1 as each replicated epoch commits, instead of re-running
  /// a full RestoreState over the whole chain. Two-phase like
  /// RestoreState: every segment is parsed, CRC-checked and
  /// chain-validated (shard index, prev_epoch contiguity against
  /// `target_epoch - 1`) before any detector is touched, so a
  /// corrupt replicated epoch fails cleanly with the fleet intact.
  /// Replays through ShardWorker::ReplayPartitionSegment (bit-identity
  /// preserved).
  /// Requires a quiesced service (the follower takes no writes); a shard
  /// that cannot drain within `drain_timeout` fails the call. Invalidates
  /// the cached save chain: the next SaveState into any directory writes
  /// a full base. `edges_replayed` (optional) reports the replayed edge
  /// records — the tail-chain replay cost bench_replication measures.
  Status ApplyChainEpoch(const std::string& dir, std::uint64_t target_epoch,
                         std::chrono::milliseconds drain_timeout,
                         std::uint64_t* edges_replayed = nullptr);

 private:
  /// Single-pass density argmax over the shard snapshots: (shard, snapshot).
  std::pair<std::size_t, std::shared_ptr<const Community>> ArgmaxSnapshot()
      const;

  std::shared_ptr<const GlobalCommunity> LoadStitched() const;
  void StoreStitched(std::shared_ptr<const GlobalCommunity> snap);
  void StitcherLoop();

  /// The stitch pass body (StitchNow with the default budget; the
  /// stitcher's escalation retry with an unbounded seam).
  GlobalCommunity StitchPass(bool unbounded_seam);

  /// Worker-side classifier body (BoundaryFn): true iff the edge's
  /// endpoints have different home PARTITIONS (stable across moves, unlike
  /// owner shards); a live cross-home update also feeds the trigger
  /// accumulators. `num_partitions` is captured, not read from members —
  /// workers start (and may call this) while the constructor is still
  /// building later shards.
  bool OnBoundaryUpdate(std::size_t num_partitions, const Edge& edge,
                        bool live);

  /// Cross-home applies and retires so far, summed over the workers
  /// (monotone; lock-free).
  std::uint64_t BoundaryUpdates() const;

  /// The stable partition id of an edge (edge_key or source home, modulo
  /// num_partitions).
  std::size_t PartitionOf(const Edge& raw_edge) const;

  /// ForwardFn body for worker `from`: re-submits edges whose partitions
  /// moved away to their current owners via the never-blocking OfferBatch.
  /// Returns the accepted prefix length; stops early at the first edge
  /// whose partition came back home (`from` re-applies it locally).
  std::size_t RouteForward(std::size_t from, std::span<const Edge> edges);

  /// Shared body of RebalanceNow and the rebalancer's steals (takes
  /// rebalance_mutex_). `stolen` tags the steals counter.
  Status MovePartition(std::size_t pid, std::size_t to_shard, bool stolen);

  /// Background steal loop (started when rebalance.enabled and
  /// rebalance.interval_ms > 0).
  void RebalancerLoop();

  /// Forwarded-edge count (acquire; pairs with RouteForward's release).
  /// Drain's fixpoint loop: a forwarded edge re-enters a queue possibly
  /// AFTER its new owner's Drain returned, so the pass repeats until no
  /// edge was forwarded during it. Steady producer traffic does not move
  /// this count, so it cannot keep the loop spinning.
  std::uint64_t ForwardsSoFar() const {
    return forwarded_edges_.load(std::memory_order_acquire);
  }

  /// Window-mode submit hook: CAS-max the watermark over `ts` and, when it
  /// has advanced a full stride past the last automatic horizon, enqueue a
  /// retire pass on every shard. No-op when the window is off.
  void ObserveTimestamp(Timestamp ts);
  /// Highest event timestamp in `raw_edges` (one scan per batch chunk).
  void ObserveBatchTimestamps(std::span<const Edge> raw_edges);
  /// Fired from a shard worker's retire pass: drop the published stitched
  /// snapshot when the shrinking shard contributed to it (a stale stitched
  /// density can overstate under expiry — see CurrentCommunity).
  void OnShardRetire(std::size_t shard);

  /// Full checkpoint: base snapshots + chainless manifest at `epoch`.
  /// Caller holds save_mutex_.
  Status SaveFull(const std::string& dir, std::uint64_t epoch,
                  SaveInfo* info);
  /// Incremental checkpoint appending epoch `chain_.epoch + 1`. Caller
  /// holds save_mutex_.
  Status SaveDeltaEpoch(const std::string& dir, SaveInfo* info);
  /// Deletes base/delta files in `dir` that the just-written manifest no
  /// longer references (best effort; orphans are harmless but untidy).
  void RemoveStaleChainFiles(const std::string& dir) const;

  ShardedDetectionServiceOptions options_;
  ShardAlertFn on_alert_;  // outlives the workers (declared first)
  std::string semantics_;
  /// Partition -> current owner shard (lock-free reads on every Submit;
  /// declared before workers_ so forward closures can capture it safely).
  PartitionMap map_;
  std::vector<std::unique_ptr<ShardWorker>> workers_;

  // --- rebalance state ---------------------------------------------------
  /// Serializes partition moves (and excludes them from checkpoints and
  /// stitch gathers: Save*/StitchPass hold it so placement is frozen while
  /// they read multiple workers). Ordered AFTER save_mutex_ and
  /// stitch_mutex_: those paths acquire it, never the reverse.
  mutable std::mutex rebalance_mutex_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> partitions_moved_{0};
  /// Edges handed from a stale owner to the current one. Also the key of
  /// the Drain fixpoint (see ForwardsSoFar).
  std::atomic<std::uint64_t> forwarded_edges_{0};
  std::mutex rebalancer_mutex_;
  std::condition_variable rebalancer_cv_;
  bool rebalancer_stop_ = false;
  std::thread rebalancer_;

  // --- checkpoint chain state (guarded by save_mutex_; Save/Restore
  // serialize against each other, never against producers or readers) ----
  mutable std::mutex save_mutex_;
  /// Directory of the active delta chain ("" = none; next save is full).
  std::string chain_dir_;
  /// Cached manifest of `chain_dir_` (what a restore would read).
  ShardManifest chain_;
  /// Byte accounting driving CheckpointPolicy::max_delta_base_ratio.
  std::uint64_t chain_base_bytes_ = 0;
  std::uint64_t chain_delta_bytes_ = 0;

  // --- window expiry state (lock-free; submit hot path touches only the
  // watermark CAS-max when the window is on) ------------------------------
  /// High-water event timestamp over all submitted edges.
  std::atomic<Timestamp> watermark_{0};
  /// Horizon of the last automatically triggered retire pass; the next
  /// trigger fires when watermark - span >= last_horizon_ + stride.
  std::atomic<Timestamp> last_horizon_{0};

  // --- stitch state (all guarded by stitch_mutex_; passes serialize) -----
  mutable std::mutex stitch_mutex_;
  std::vector<VertexId> last_stitched_members_;  // sorted
  double last_stitched_density_ = -1.0;

  // --- published stitched snapshot (lock-free readers; same TSan-aware
  // protocol as ShardWorker's shard snapshot) ----------------------------
#if defined(SPADE_SNAPSHOT_PTR_ATOMIC)
  std::atomic<std::shared_ptr<const GlobalCommunity>> stitched_;
#else
  mutable std::mutex stitched_mutex_;
  std::shared_ptr<const GlobalCommunity> stitched_;
#endif
  std::atomic<std::uint64_t> stitch_passes_{0};
  std::atomic<std::uint64_t> stitched_alerts_{0};
  std::atomic<std::uint64_t> seam_truncated_{0};
  std::atomic<std::uint64_t> stitch_triggers_{0};
  /// The workers' summed cross-home update count read by the last stitch
  /// pass; the live sum minus this is the stitched read's freshness in
  /// edges (GetStats, lock-free).
  std::atomic<std::uint64_t> stitched_updates_{0};

  // --- trigger accumulators (written from worker apply paths; one atomic
  // double per ordered PARTITION pair, CAS-add — allocated only when
  // trigger_weight > 0 and the fleet has > 1 partition) -------------------
  std::unique_ptr<std::atomic<double>[]> pair_weight_;

  // --- background stitcher (started when stitch.interval_ms > 0 or the
  // trigger is armed) -----------------------------------------------------
  std::mutex stitcher_mutex_;
  std::condition_variable stitcher_cv_;
  bool stitcher_stop_ = false;
  /// A trigger crossed the threshold since the last pass started
  /// (guarded by stitcher_mutex_, like stitcher_stop_).
  bool trigger_pending_ = false;
  std::thread stitcher_;
};

}  // namespace spade
