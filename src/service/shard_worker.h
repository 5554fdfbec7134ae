// ShardWorker: one worker thread draining a chunk queue through a set of
// exclusively-owned detector partitions.
//
// Historically a worker WAS a detector. Work-stealing rebalance (DESIGN.md
// §10) splits that fusion: a worker now owns a set of epoch-versioned
// *partitions* — each a Spade detector plus its window log, delta log and
// alert baseline — and a partition can be detached from a loaded worker
// and attached to an idle one at a drain boundary, moving the detector by
// pointer. With a single partition and no partition function (a fleet
// with fixed placement) every routed edge belongs to that one partition.
//
// The three client-visible paths are decoupled so none of them serializes
// on an in-flight reorder:
//
//   * Submit / SubmitBatch: producers push whole chunks of edges onto a
//     std::deque under `queue_mutex_` (DESIGN.md §6.2). The mutex guards
//     only the push, the edge budget and the stop flag; the worker holds it
//     only to pop a round of chunks, never while it applies them.
//   * CurrentCommunity / CurrentSnapshot: the worker publishes the densest
//     community across its partitions as an atomically-swapped shared_ptr
//     snapshot. Readers load the pointer and never touch any mutex on the
//     apply path.
//   * EdgesProcessed / AlertsDelivered / QueueDepth: relaxed atomics.
//
// Forwarding protocol: an edge popped off the queue whose partition this
// worker does NOT own (it was routed under a stale partition-map entry
// while the partition moved) goes to a worker-local forward backlog and is
// re-submitted to the current owner via the service-provided ForwardFn —
// applied exactly once, at the owner. The applied cursor (a chunk count)
// only advances while the backlog is empty, so Drain() still means
// "everything this worker accepted has been applied somewhere or handed to
// its owner".
//
// Alerts are delivered from the worker thread with no service lock held
// (the snapshot is taken first), so a slow moderator callback can delay the
// next detection but never blocks producers or readers.
//
// Boundary weights: given a cross-home classifier, each partition keeps the
// cross-home edge mass of every vertex incident to one of its cross-home
// edges (Partition::boundary). Apply and retire update it under the detector
// mutex; construction, restore and replay rebuild it from the graph and the
// benign buffer. It is derived state with no file of its own, so it holds
// exactly the applied edges by construction. The sharded service's stitch
// pass sums it across partitions (DESIGN.md §4.4).
//
// Snapshot-publication protocol (DESIGN.md §4.2): the worker applies
// through Spade::ApplyEdgeDeferred, publishes after every urgent edge (which
// is reordered on its own while the benign buffer stays benign, and folds
// the buffer otherwise) and republishes at least every `detect_every`
// edges. No publication folds: benign-buffered edges cannot have changed
// the community (Lemma 4.4), so the peel state's community is already the
// community of graph + buffer. Every fold happens inside Spade — when an
// urgent edge leaves the buffer no longer benign, at
// SpadeOptions::max_benign_buffer, and before a window retire — so a chain
// replay through the same entry points repeats each one; the only fold
// outside Spade is the Flush before a full base, which restarts the chain.
// Since every peel-state change is published when its edge applies, the
// snapshot is current at the end of every gathered round: the worker then
// advances the applied cursor, and Drain() waits for it to pass the chunks
// pushed before the call — so Drain() returning means every edge submitted
// before the call has been applied (to its graph or its benign buffer) and
// its community published. Readers that need the edges themselves read
// graph() and benign_buffer() together (the stitch gather, the boundary
// rebuild). The benign buffer can grow to the cap; under state-dependent
// semantics (FD) a longer buffer weighs later edges against a staler graph,
// identically live and on chain replay.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/spade.h"
#include "graph/types.h"
#include "storage/delta_segment.h"

// Snapshot publication uses std::atomic<std::shared_ptr> when the standard
// library provides it — except under ThreadSanitizer: libstdc++'s
// _Sp_atomic hides a lock bit inside the pointer word that TSan cannot see
// through, yielding false data-race reports. The fallback is a dedicated
// pointer-swap mutex, which is still never the apply-path lock, so the
// non-blocking read guarantee holds in both configurations.
#if defined(__SANITIZE_THREAD__)
#define SPADE_SNAPSHOT_PTR_MUTEX 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPADE_SNAPSHOT_PTR_MUTEX 1
#endif
#endif
#if !defined(SPADE_SNAPSHOT_PTR_MUTEX) && \
    defined(__cpp_lib_atomic_shared_ptr)
#define SPADE_SNAPSHOT_PTR_ATOMIC 1
#endif

namespace spade {

/// Invoked from the worker thread after a detection whose community differs
/// from the previously reported one. No service lock is held.
using FraudAlertFn = std::function<void(const Community&)>;

/// The alert filter's density comparison: equal within 1e-9 relative (the
/// tie-exact standard), so a reorder that moves BestDensity() by a few ulps
/// without changing the members does not read as a new community.
inline bool SameDensity(double a, double b) {
  return std::abs(a - b) <=
         1e-9 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Invoked from the worker thread around a retire pass. Fires TWICE per
/// pass that deletes anything: once with count 0 BEFORE the first deletion
/// (so a consumer can drop state the deletions are about to invalidate —
/// e.g. a stale stitched snapshot — before any reader can observe the
/// shrunken graph), and once after the pass with the number of edges
/// retired. No service lock is held.
using RetireNotifyFn = std::function<void(std::size_t)>;

/// Classifies an edge (carrying its applied semantic weight) for the
/// per-partition boundary weights: true iff its endpoints have different
/// home partitions. Called under the detector mutex for every applied and
/// every window-expired edge (`live` true — the sharded service feeds those
/// into its stitch trigger accumulators) and for every edge of the rebuild
/// pass after construction, restore and replay (`live` false). Keep it
/// cheap; it is on the apply hot path.
using BoundaryFn = std::function<bool(const Edge&, bool live)>;

/// Maps an edge to its stable partition id. Evaluated under the detector
/// mutex for every applied edge, so keep it cheap. Null = the worker owns
/// exactly one partition and every routed edge belongs to it.
using PartitionOfFn = std::function<std::size_t(const Edge&)>;

/// Re-submits edges that arrived at a worker which no longer owns their
/// partition to the current owner. Must NOT block (it runs on the victim's
/// worker thread; a blocking forward between two full workers deadlocks) —
/// it returns the length of the accepted PREFIX, and the worker retries
/// the remainder later. Called with no worker lock held.
using ForwardFn = std::function<std::size_t(std::span<const Edge>)>;

/// Per-shard configuration, applied to every worker of a
/// ShardedDetectionService.
struct DetectionServiceOptions {
  /// Republish (and possibly alert) after at most this many applied edges
  /// even if no urgent edge arrived. A cadence hit does NOT fold the benign
  /// buffer: by Lemma 4.4 buffered edges cannot change the community, so it
  /// republishes the partition's cached one. The buffer folds only inside
  /// Spade (an urgent edge that leaves it no longer benign,
  /// SpadeOptions::max_benign_buffer, a window retire) and before a full
  /// checkpoint base; Drain, delta checkpoints, stitching and shutdown
  /// leave it buffered.
  std::size_t detect_every = 256;
  /// Bound on edges accepted but not yet taken off the queue by the worker
  /// (a retire marker counts as one edge).
  std::size_t max_queue = 1 << 20;
  /// When the buffer is full: false = Submit fails fast with kOutOfRange;
  /// true = Submit blocks until the worker frees space (backpressure
  /// propagates to producers instead of dropping transactions).
  bool block_when_full = false;
  /// Cap on the in-memory delta log (applied-history records kept for the
  /// next incremental checkpoint), per partition. A worker whose owner
  /// stops checkpointing must not grow without bound: at the cap the log
  /// is dropped and the next checkpoint falls back to a full snapshot.
  std::size_t max_delta_log = 1 << 20;
};

/// One worker: a background thread draining a chunk queue through a set of
/// exclusively-owned Spade detector partitions.
class ShardWorker {
 public:
  /// One movable unit of detector state: the Spade instance plus every
  /// piece of per-detector bookkeeping that must travel with it in a
  /// steal — window log, delta log, alert baseline, cached community.
  /// Owned by exactly one worker at a time (or by the service, briefly,
  /// between Detach and Attach); all fields are guarded by the owning
  /// worker's detector mutex.
  struct Partition {
    /// Applied cross-home edges incident to one vertex: their summed
    /// applied weight and their count.
    struct BoundaryMass {
      double weight = 0.0;
      std::uint64_t edges = 0;
    };

    Partition(std::size_t id, Spade detector)
        : pid(id), spade(std::move(detector)) {}

    const std::size_t pid;
    Spade spade;
    /// Alert baseline: last reported community (sorted) + density.
    std::vector<VertexId> last_reported;
    double last_density = -1.0;
    std::size_t since_detect = 0;
    /// Applied-history log for incremental checkpoints (DESIGN.md §5).
    bool delta_tracking = false;
    bool delta_overflow = false;
    std::vector<DeltaRecord> delta_log;
    /// Window log (windowed workers only, see the constructor): applied
    /// edges in arrival order with applied weight + event timestamp.
    std::deque<Edge> window_log;
    /// Latest detected community for this partition (feeds the worker's
    /// published argmax snapshot).
    std::shared_ptr<const Community> current;
    /// Edges applied since the last PartitionLoads() scan — the steal
    /// policy's per-partition load signal.
    std::uint64_t recent_load = 0;
    /// Boundary weights (DESIGN.md §4.4): every vertex incident to a
    /// cross-home edge of this partition's graph or benign buffer, with
    /// that edge mass. Apply and retire keep it in step; an entry goes when
    /// its count reaches 0, so float residue never keeps a vertex.
    std::unordered_map<VertexId, BoundaryMass> boundary;
    /// Cross-home edges in the graph and benign buffer.
    std::uint64_t boundary_edges = 0;
  };

  /// Initial partition assignment for the constructor.
  struct PartitionSeed {
    std::size_t pid = 0;
    Spade spade;
  };

  /// Takes ownership of fully built detectors (graph loaded, semantics
  /// installed), one per seed; edge grouping is turned on and the worker
  /// starts immediately. `total_partitions` sizes the pid lookup table (a
  /// detached partition's slot goes null; AttachPartition refills it).
  /// `partition_of` maps an edge to its pid (null = fixed placement:
  /// requires exactly one seed); `forward` re-submits edges for partitions
  /// this worker does not own (null = unowned edges are dropped with a
  /// warning — only sound when partitions never move). `cpu` pins the
  /// worker thread (-1 = unpinned; Linux-only — elsewhere, and for CPUs
  /// that do not exist, the worker logs a warning and runs unpinned).
  /// `on_retire` (optional) makes the worker windowed: it keeps a window
  /// log so SubmitRetire can expire edges, and the callback fires around
  /// every retire pass that removes at least one edge (see RetireNotifyFn);
  /// null = insert-only, no window log. `is_boundary` (optional; null =
  /// no boundary weights) classifies edges for Partition::boundary (see
  /// BoundaryFn).
  ShardWorker(std::vector<PartitionSeed> seeds, std::size_t total_partitions,
              PartitionOfFn partition_of, ForwardFn forward,
              FraudAlertFn on_alert, DetectionServiceOptions options, int cpu,
              RetireNotifyFn on_retire, BoundaryFn is_boundary);

  /// Stops the worker, draining queued edges first.
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Enqueues one transaction; callable from any thread. Fails with
  /// kFailedPrecondition after Stop(); when the buffer is full it either
  /// fails with kOutOfRange or blocks, per `block_when_full`. Holds
  /// queue_mutex_ for the push only.
  Status Submit(const Edge& raw_edge);

  /// Bulk enqueue: one mutex acquisition, one queued chunk and (at most)
  /// one worker wakeup for the whole chunk — the high-throughput producer
  /// path.
  ///
  /// Without `accepted` the call is all-or-nothing: it fails with
  /// kOutOfRange (or blocks until the whole chunk fits) when the chunk does
  /// not fit, and with kInvalidArgument when it can never fit
  /// (chunk > max_queue); on failure nothing was enqueued.
  ///
  /// With `accepted` the call is best-effort and `*accepted` is always the
  /// exact number of edges enqueued (a prefix of the chunk): in fail-fast
  /// mode a full queue accepts the prefix that fits and returns
  /// kOutOfRange; in blocking mode the chunk may be handed over in pieces
  /// as space frees up (pieces from concurrent producers can interleave
  /// between them), and a Stop() arriving mid-wait returns
  /// kFailedPrecondition with the already-handed-over prefix counted.
  Status SubmitBatch(std::span<const Edge> raw_edges,
                     std::size_t* accepted = nullptr);

  /// Move-through variant: when the whole chunk is accepted in one piece
  /// (the common case), the vector becomes the queued chunk directly —
  /// zero edge copies on this call. Falls back to copying (leaving `chunk`
  /// intact for the unaccepted suffix accounting) when backpressure splits
  /// or truncates the handoff; same contract as the span overload
  /// otherwise.
  Status SubmitBatch(std::vector<Edge>&& chunk,
                     std::size_t* accepted = nullptr);

  /// Never-blocking best-effort enqueue: accepts the prefix that fits
  /// right now and returns its length (0 when the queue is full or the
  /// worker stopped), regardless of `block_when_full`. This is the
  /// forwarding entry point — a victim's worker thread re-submitting
  /// moved-partition edges must not park inside another worker's
  /// backpressure wait.
  std::size_t OfferBatch(std::span<const Edge> edges);

  /// Enqueues a retire marker: when the worker reaches it, every window-log
  /// edge with ts < `horizon` (in every owned partition) is retired
  /// (deleted with its recorded applied weight) and logged as a retire
  /// record for the delta chain. The marker rides the same queue as edge
  /// chunks — it costs one unit of queue budget and obeys the same drain
  /// protocol, so Drain() after a successful SubmitRetire
  /// implies the retire pass has fully applied. Requires a windowed worker
  /// (one built with `on_retire`); each window log is popped oldest-first,
  /// so an out-of-timestamp-order arrival delays expiry of the edges queued
  /// behind it until the horizon passes it too (conservative, never
  /// over-retires). Same full-queue behavior as Submit.
  Status SubmitRetire(Timestamp horizon);

  /// Blocks until every edge submitted before this call has been applied
  /// (or handed to its current owner, for partitions that moved away) AND
  /// the published snapshot reflects the locally-applied ones. Benign
  /// buffers stay buffered: an applied edge is in its partition's graph or
  /// its benign buffer. Returns immediately once the worker has exited.
  void Drain();

  /// Bounded-wait Drain: returns true when the edges submitted before the
  /// call were applied and published (or the worker exited) within
  /// `timeout`, false when the deadline passed
  /// first — the caller's edges may still be in flight. Replication and
  /// promotion use this so a wedged shard surfaces as a status instead of
  /// hanging the control plane (DESIGN.md §7).
  bool DrainFor(std::chrono::milliseconds timeout);

  /// Drains, stops the worker and joins it. Idempotent.
  void Stop();

  /// Latest published community snapshot — the densest community across
  /// this worker's partitions; never blocks on the apply path. The pointer
  /// is immutable and safe to hold across further updates.
  std::shared_ptr<const Community> CurrentSnapshot() const;

  /// Convenience copy of the latest snapshot.
  Community CurrentCommunity() const {
    const auto snap = CurrentSnapshot();
    return snap ? *snap : Community{};
  }

  /// Edges applied by the worker so far (relaxed; never takes a lock).
  std::uint64_t EdgesProcessed() const {
    return processed_.load(std::memory_order_relaxed);
  }

  /// Alerts delivered so far (relaxed; never takes a lock).
  std::uint64_t AlertsDelivered() const {
    return alerts_.load(std::memory_order_relaxed);
  }

  /// Edges retired by window expiry so far (relaxed; never takes a lock).
  /// Incremented AFTER a pass's deletions — pair with RetireBegins() when
  /// checking whether deletions may have raced a measurement.
  std::uint64_t EdgesRetired() const {
    return retired_.load(std::memory_order_relaxed);
  }

  /// Retire passes that have ANNOUNCED deletions (bumped, with the
  /// pre-deletion on_retire callback, before the first edge is deleted).
  /// A measurement bracketed by equal (RetireBegins, EdgesRetired) pairs
  /// saw no deletion start or finish while it ran.
  std::uint64_t RetireBegins() const {
    return retire_begins_.load(std::memory_order_seq_cst);
  }

  /// Copy of the current window log(s), partitions in ascending-pid order,
  /// arrival order within each (applied weights). Takes the detector
  /// mutex; tests and diagnostics only.
  std::vector<Edge> WindowEdges() const;

  /// Copy of one partition's window log (arrival order, applied weights).
  std::vector<Edge> PartitionWindowEdges(std::size_t pid) const;

  /// Snapshot publications (urgent edge, cadence or retire) so far
  /// (lock-free).
  std::uint64_t DetectionsRun() const {
    return detections_.load(std::memory_order_relaxed);
  }

  /// Republishes whose members equal the last alert's and whose density
  /// differs from it only within SameDensity — ulp drift, not an alert
  /// (lock-free).
  std::uint64_t AlertsSuppressed() const {
    return alerts_suppressed_.load(std::memory_order_relaxed);
  }

  /// Cross-home edges in the owned partitions (relaxed; never takes a
  /// lock; a partition in mid-move counts on neither side).
  std::uint64_t BoundaryEdges() const {
    return boundary_edges_.load(std::memory_order_relaxed);
  }

  /// Cross-home applies and retires so far, rebuild passes excluded
  /// (monotone; relaxed; never takes a lock).
  std::uint64_t BoundaryUpdates() const {
    return boundary_updates_.load(std::memory_order_relaxed);
  }

  /// Adds every owned partition's per-vertex boundary weight into `weight`
  /// under the detector mutex (O(boundary vertices)).
  void AddBoundaryWeights(std::unordered_map<VertexId, double>* weight) const;

  /// Edges accepted but not yet taken off the queue by the worker (relaxed
  /// atomic; never takes a lock, may trail an in-flight handoff).
  std::size_t QueueDepth() const {
    return queued_edges_.load(std::memory_order_relaxed);
  }

  /// Highest queue depth observed at a successful enqueue since the last
  /// ResetHighWater() (relaxed; never takes a lock). The bench uses it to
  /// report handoff pressure: a high-water mark near max_queue means
  /// producers outran this shard.
  std::size_t QueueDepthHighWater() const {
    const std::size_t recent =
        queue_hwm_recent_.load(std::memory_order_relaxed);
    const std::size_t total =
        queue_hwm_total_.load(std::memory_order_relaxed);
    return recent > total ? recent : total;
  }

  /// Drains the RECENT high-water mark (and folds it into the long-run
  /// one): returns the highest depth observed since the previous call.
  /// The rebalancer polls this per scan, so its skew signal measures the
  /// current interval instead of an admission-phase peak from minutes ago.
  std::size_t TakeRecentHighWater();

  /// Zeroes both high-water marks (recent and long-run). Phase-structured
  /// measurements (admission vs drain in ReplayThroughService) reset
  /// between phases so the second phase's peak is not masked by the first.
  void ResetHighWater();

  /// Fraction of wall time since construction the worker spent applying
  /// edges, retires and forwards (busy), as opposed to parked or gathering.
  /// Relaxed.
  double BusyFraction() const;

  /// Ascending pids of the partitions this worker currently owns.
  std::vector<std::size_t> OwnedPartitions() const;

  /// Owned partitions and their buffered benign edges, read under one
  /// detector-mutex acquisition (the stats path).
  struct Occupancy {
    std::size_t partitions = 0;
    std::size_t pending_benign = 0;
  };
  Occupancy GetOccupancy() const;

  /// Per-partition applied-edge counts since the previous call
  /// (exchange-reset under the detector mutex): the steal policy's load
  /// signal. Pairs of {pid, edges applied}.
  std::vector<std::pair<std::size_t, std::uint64_t>> PartitionLoads();

  /// Detaches an owned partition for a move: removes it from the ownership
  /// table (subsequently queued edges for this pid go to the forward
  /// backlog)
  /// and republishes the snapshot without it. Returns null when this
  /// worker does not own `pid`. The caller (the service, under its
  /// rebalance lock) attaches the partition to its new owner and THEN
  /// publishes the routing change.
  std::unique_ptr<Partition> DetachPartition(std::size_t pid);

  /// Attaches a partition (from DetachPartition on another worker) and
  /// republishes the snapshot including it.
  void AttachPartition(std::unique_ptr<Partition> partition);

  /// Copies the induced subgraph over `vertices` out of every owned
  /// partition's detector graph, for the cross-shard stitch pass: every
  /// out-edge of a listed vertex whose destination satisfies `contains` is
  /// appended to `edges` (global vertex ids, applied semantic weights —
  /// out-edges only, so an edge is emitted exactly once), and
  /// `vertex_weight[i]` is raised to this worker's prior for
  /// `vertices[i]`. Holds the detector mutex for the scan (O(out-degree
  /// sum of the listed vertices plus the benign buffers)), so it delays at
  /// most one in-flight apply and never touches the queue. Benign-buffered
  /// edges with both endpoints listed are appended too: together with the
  /// graph they are every applied edge.
  void CollectInduced(std::span<const VertexId> vertices,
                      const std::function<bool(VertexId)>& contains,
                      std::vector<Edge>* edges,
                      std::vector<double>* vertex_weight) const;

  /// Result of one incremental checkpoint of a partition.
  struct DeltaSaveInfo {
    std::uint64_t bytes = 0;   // segment file size incl. trailer
    std::size_t records = 0;   // edge + retire records written
  };

  /// Everything needed to rebuild one partition to a checkpoint epoch: the
  /// already-validated base snapshot plus the validated delta chain. The
  /// caller (two-phase restore) parses and CRC-checks every file before
  /// constructing a plan, so applying one cannot half-fail on bad input.
  struct RestorePlan {
    DynamicGraph graph;
    PeelState state;
    bool state_present = false;
    std::vector<DeltaSegment> segments;  // ascending, contiguous epochs
    std::vector<Edge> window;  // base snapshot's window log (may be empty)
  };

  /// Runs `fn` on the first owned partition's detector under the detector
  /// mutex (tests and diagnostics). Blocks this worker's apply path for the
  /// duration; never touches the queue.
  void InspectDetector(const std::function<void(const Spade&)>& fn) const;

  // --- per-partition persistence (the sharded service's checkpoint path;
  // fail kNotFound when this worker does not own `pid`) ---------------------

  /// Drains, then persists the partition's full detector state under the
  /// detector lock. Safe to call while producers keep submitting; the
  /// snapshot is a consistent prefix of the stream. A full save is a
  /// checkpoint: the delta log is reset, and with `start_delta_tracking`
  /// the partition begins (or continues) recording applied history for a
  /// future SavePartitionDelta.
  Status SavePartition(std::size_t pid, const std::string& path,
                       bool start_delta_tracking = false);

  /// Incremental checkpoint: drains, then writes only the partition's
  /// applied history since the last checkpoint as a delta segment tagged
  /// `shard` (the sharded service passes the pid) advancing `prev_epoch`
  /// -> `epoch`, and clears the log. Cost is O(edges since last
  /// checkpoint) — the detector state is not touched (no flush, no
  /// reorder). Fails with kFailedPrecondition when no checkpoint baseline
  /// exists (tracking never started) or the log overflowed
  /// `max_delta_log`; the caller falls back to a full SavePartition.
  Status SavePartitionDelta(std::size_t pid, const std::string& path,
                            std::uint32_t shard, std::uint64_t prev_epoch,
                            std::uint64_t epoch,
                            DeltaSaveInfo* info = nullptr);

  /// Drains, installs the plan's base state, and replays its delta chain
  /// through the live ApplyEdgeDeferred / RetireEdge path — the restored
  /// detector re-makes exactly the decisions (and folds) the live one made
  /// (DESIGN.md §5), so the result is bit-identical to the detector that
  /// wrote the chain, benign buffer included. The restored community is
  /// republished and becomes the alert baseline; delta tracking stays
  /// armed for the next incremental checkpoint. Safe to run concurrently
  /// with other workers' restores (each call only touches its own worker's
  /// detector mutex), which is how the sharded service parallelizes
  /// restore-side replay; two partitions on the same worker serialize.
  Status RestorePartitionChain(std::size_t pid, RestorePlan&& plan);

  /// Replays one already-validated delta segment on top of the partition's
  /// current state — the warm-standby increment: a follower that restored
  /// epoch E applies the segment E -> E+1 without reloading the base.
  /// Same replay path as RestorePartitionChain, so the result stays
  /// bit-identical to the primary that wrote the segment, including a
  /// segment that ends mid-buffer: the standby's Drain does not fold it,
  /// just as the owner's did not. Fails with
  /// kFailedPrecondition when the queue cannot be drained within
  /// `drain_timeout` (a promoted follower must not replay into a detector
  /// with edges still in flight).
  Status ReplayPartitionSegment(std::size_t pid, const DeltaSegment& segment,
                                std::chrono::milliseconds drain_timeout);

  /// Runs `fn` on one owned partition's detector under the detector mutex.
  Status InspectPartition(std::size_t pid,
                          const std::function<void(const Spade&)>& fn) const;

 private:
  /// One handoff unit: a single inline edge (per-edge Submit pays no
  /// allocation), an owned vector of edges (SubmitBatch copies the caller's
  /// span once), or a retire marker (SubmitRetire) carrying the expiry
  /// horizon. A marker counts as one edge of queue budget so the shared
  /// budget and drain accounting needs no special case.
  struct Chunk {
    Chunk() = default;
    explicit Chunk(std::span<const Edge> edges) {
      if (edges.size() == 1) {
        one = edges[0];
        is_one = true;
      } else {
        many.assign(edges.begin(), edges.end());
      }
    }
    explicit Chunk(std::vector<Edge>&& edges) {
      if (edges.size() == 1) {
        one = edges[0];
        is_one = true;
      } else {
        many = std::move(edges);
      }
    }
    static Chunk Retire(Timestamp horizon) {
      Chunk marker;
      marker.is_retire = true;
      marker.retire_horizon = horizon;
      return marker;
    }
    std::size_t size() const {
      return (is_one || is_retire) ? 1 : many.size();
    }
    Edge one{};
    bool is_one = false;
    bool is_retire = false;
    Timestamp retire_horizon = 0;
    std::vector<Edge> many;
  };

  void WorkerLoop();

  /// Worker thread: counts the time since `begin` toward busy_ns_.
  void AddBusySince(std::chrono::steady_clock::time_point begin);

  /// The one enqueue routine behind Submit, both SubmitBatch overloads,
  /// OfferBatch and SubmitRetire: pushes `edges` — or, with `retire`, one
  /// retire marker worth one edge of budget — under queue_mutex_.
  /// `accepted` null = all-or-nothing, otherwise the exact accepted prefix
  /// (see SubmitBatch). `block` waits on space_cv_ for budget instead of
  /// failing with kOutOfRange. `owned` (optional) is the storage behind
  /// `edges`: a chunk accepted whole in one piece is moved into the queue
  /// instead of copied.
  Status Enqueue(std::span<const Edge> edges, std::size_t* accepted,
                 bool block, std::vector<Edge>* owned = nullptr,
                 std::optional<Timestamp> retire = std::nullopt);

  /// Drain() / DrainFor() (no timeout = wait forever).
  bool WaitApplied(std::optional<std::chrono::milliseconds> timeout);

  /// Looks up the owned partition for an edge (detector mutex held):
  /// partition_of_ -> pid -> ownership table, or the one partition under
  /// fixed placement. Null when this worker does not own the pid.
  Partition* PartitionForLocked(const Edge& edge);

  /// Finds an owned partition by pid (detector mutex held).
  Partition* FindPartitionLocked(std::size_t pid);
  const Partition* FindPartitionLocked(std::size_t pid) const;

  /// Applies one edge to its owned partition, or pushes it onto the
  /// forward backlog when the partition moved away. Fires the alert
  /// callback (outside the lock). Returns true when applied locally.
  bool ApplyOne(const Edge& edge);

  /// Worker thread only: re-applies backlog edges whose partition came
  /// home, forwards the rest to their current owners (accepted-prefix,
  /// never blocking), and counts accepted edges as consumed.
  void FlushForwardBacklog();

  /// Appends one applied-history record to a partition's delta log
  /// (detector mutex held). Drops the whole log and marks overflow at the
  /// cap.
  void AppendDeltaRecord(Partition& p, const DeltaRecord& record);

  /// Applies one applied (`sign` +1) or retired (-1) edge to the
  /// partition's boundary weights when is_boundary_ classifies it
  /// cross-home (detector mutex held). `live` is passed through to the
  /// classifier and counts the update toward boundary_updates_.
  void CountBoundaryLocked(Partition& p, const Edge& weighted, int sign,
                           bool live);

  /// Recomputes the partition's boundary weights with one pass over its
  /// graph and benign buffer (detector mutex held, or pre-thread).
  void RebuildBoundaryLocked(Partition& p);

  /// Chain-replay counterpart of one retire record (detector mutex held):
  /// re-runs the deletion with the recorded applied weight and removes the
  /// matching entry from the replayed window log.
  Status ReplayRetireLocked(Partition& p, const Edge& record);

  /// Publishes the densest community across owned partitions (detector
  /// mutex held). An empty worker publishes an empty community.
  void PublishArgmaxLocked();

  /// Re-reads one partition's community from its peel state WITHOUT
  /// folding the benign buffer, refreshes the published snapshot, and
  /// queues an alert if the community changed (detector mutex held; the
  /// caller fires pending alerts after unlocking). Every publication path
  /// uses it: apply, cadence and retire.
  void PublishLocked(Partition& p);

  /// Republishes one partition's community and makes it the alert
  /// baseline without alerting (detector mutex held): after a chain replay
  /// and after the fold before a full base, neither of which changes the
  /// community (Lemma 4.4) beyond ulp ties.
  void RebaselineLocked(Partition& p);

  /// Moves out queued alerts (detector mutex held).
  std::vector<std::shared_ptr<const Community>> TakePendingAlertsLocked() {
    return std::move(pending_alerts_);
  }

  /// Replays `segments`' records in order on top of the partition's
  /// current state, then restarts its delta log from that checkpoint,
  /// re-baselines its alert filter and republishes (detector mutex held).
  /// The one replay loop behind RestorePartitionChain and
  /// ReplayPartitionSegment.
  Status ReplayChainLocked(Partition& p,
                           std::span<const DeltaSegment> segments);

  DetectionServiceOptions options_;
  FraudAlertFn on_alert_;

  // --- chunk queue (guarded by queue_mutex_) -----------------------------
  mutable std::mutex queue_mutex_;
  std::condition_variable work_cv_;   // signals the worker: a chunk or Stop
  std::condition_variable drain_cv_;  // signals Drain() waiters
  std::condition_variable space_cv_;  // signals blocked producers
  std::deque<Chunk> queue_;
  /// Chunks pushed so far; Drain() waits for applied_pos_ to reach the
  /// value it reads.
  std::uint64_t enqueue_pos_ = 0;
  /// Chunks popped, applied (or forwarded) and published: the worker sets
  /// it after every round whose forward backlog ends empty.
  std::uint64_t applied_pos_ = 0;
  bool stopping_ = false;
  bool worker_exited_ = false;
  /// Edges in queue_, the max_queue budget. Written under queue_mutex_;
  /// atomic so QueueDepth() reads it without the lock.
  std::atomic<std::size_t> queued_edges_{0};
  /// High-water mark, split into a resettable recent window and a long-run
  /// fold (see TakeRecentHighWater); Enqueue raises the recent one.
  std::atomic<std::size_t> queue_hwm_recent_{0};
  std::atomic<std::size_t> queue_hwm_total_{0};

  // --- partitions, touched only by the worker thread (or by Save/Restore/
  // Detach while the worker is parked in its queue wait; detector_mutex_
  // makes that exclusion explicit and TSan-visible). Never taken by
  // readers. ---------------------------------------------------------------
  mutable std::mutex detector_mutex_;
  std::vector<std::unique_ptr<Partition>> parts_;
  /// pid -> owned partition (null = not owned here). Sized
  /// total_partitions at construction.
  std::vector<Partition*> by_pid_;
  PartitionOfFn partition_of_;
  ForwardFn forward_;
  // Set by PublishLocked when a partition's community changed; the
  // worker moves them out and fires callbacks after releasing
  // detector_mutex_.
  std::vector<std::shared_ptr<const Community>> pending_alerts_;
  /// Worker-thread-only: edges popped off the queue for partitions this
  /// worker no longer owns, awaiting forward to the current owner.
  std::vector<Edge> forward_backlog_;

  // --- published state (lock-free readers) -------------------------------
#if defined(SPADE_SNAPSHOT_PTR_ATOMIC)
  std::atomic<std::shared_ptr<const Community>> snapshot_;
#else
  // Fallback (pre-C++20 library or TSan build): a dedicated pointer-swap
  // mutex — still never the apply-path mutex, so readers cannot block
  // behind a reorder.
  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Community> snapshot_;
#endif
  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> alerts_{0};
  std::atomic<std::uint64_t> detections_{0};
  std::atomic<std::uint64_t> alerts_suppressed_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> retire_begins_{0};
  /// Sum of the owned partitions' boundary_edges (mirror for lock-free
  /// stats reads).
  std::atomic<std::uint64_t> boundary_edges_{0};
  /// Cross-home applies and retires so far (monotone; written under the
  /// detector mutex).
  std::atomic<std::uint64_t> boundary_updates_{0};
  /// Nanoseconds the worker spent in apply/retire/backlog work (vs parked
  /// or gathering); BusyFraction divides by wall time since start_.
  std::atomic<std::uint64_t> busy_ns_{0};
  std::chrono::steady_clock::time_point start_;
  RetireNotifyFn on_retire_;
  /// A worker built with a retire callback keeps window logs.
  bool Windowed() const { return on_retire_ != nullptr; }
  BoundaryFn is_boundary_;

  std::thread worker_;
};

}  // namespace spade
