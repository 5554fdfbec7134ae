#include "service/shard_worker.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/logging.h"
#include "storage/snapshot.h"

namespace spade {

namespace {

std::vector<VertexId> SortedMembers(const Community& c) {
  std::vector<VertexId> sorted = c.members;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Cap on how many edges one gather round merges before applying: keeps
/// space-freed notifications and Drain progress timely when producers
/// outrun the worker.
constexpr std::size_t kGatherCap = 4096;

/// Retry cadence for a parked worker with a nonempty forward backlog: the
/// forward target was full (or mid-move), so poll instead of sleeping
/// indefinitely — the edges are this worker's responsibility until the
/// current owner accepts them.
constexpr std::chrono::milliseconds kBacklogRetire{1};

}  // namespace

ShardWorker::ShardWorker(std::vector<PartitionSeed> seeds,
                         std::size_t total_partitions,
                         PartitionOfFn partition_of, ForwardFn forward,
                         FraudAlertFn on_alert,
                         DetectionServiceOptions options, int cpu,
                         RetireNotifyFn on_retire, BoundaryFn is_boundary)
    : options_(options),
      on_alert_(std::move(on_alert)),
      by_pid_(std::max<std::size_t>(total_partitions, 1), nullptr),
      partition_of_(std::move(partition_of)),
      forward_(std::move(forward)),
      start_(std::chrono::steady_clock::now()),
      on_retire_(std::move(on_retire)),
      is_boundary_(std::move(is_boundary)) {
  // Without a partition function every routed edge maps to "the" partition,
  // which only makes sense when there is exactly one.
  SPADE_CHECK(partition_of_ != nullptr || seeds.size() == 1);
  // Publish the initial communities before the worker exists, so readers
  // always observe a valid snapshot and the first alert fires only when the
  // stream actually changes a community.
  for (PartitionSeed& seed : seeds) {
    SPADE_CHECK(seed.pid < by_pid_.size());
    SPADE_CHECK(by_pid_[seed.pid] == nullptr);
    auto p = std::make_unique<Partition>(seed.pid, std::move(seed.spade));
    p->spade.TurnOnEdgeGrouping();
    Community initial = p->spade.Detect();
    p->last_reported = SortedMembers(initial);
    p->last_density = initial.density;
    p->current = std::make_shared<const Community>(std::move(initial));
    RebuildBoundaryLocked(*p);  // initial graphs carry cross-home edges too
    by_pid_[p->pid] = p.get();
    parts_.push_back(std::move(p));
  }
  PublishArgmaxLocked();  // pre-thread: no lock contention possible yet
  worker_ = std::thread([this] { WorkerLoop(); });
#if defined(__linux__)
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<unsigned>(cpu), &set);
    const int rc =
        pthread_setaffinity_np(worker_.native_handle(), sizeof(cpu_set_t),
                               &set);
    if (rc != 0) {
      SPADE_LOG_WARNING() << "ShardWorker: cannot pin worker to CPU "
                          << cpu << " (error " << rc
                          << "); running unpinned";
    }
  }
#else
  if (cpu >= 0) {
    SPADE_LOG_WARNING()
        << "ShardWorker: CPU pinning is unsupported on this platform; "
           "running unpinned";
  }
#endif
}

ShardWorker::~ShardWorker() { Stop(); }

// ---------------------------------------------------------------------------
// Producer paths.

Status ShardWorker::Submit(const Edge& raw_edge) {
  return Enqueue(std::span<const Edge>(&raw_edge, 1), nullptr,
                 options_.block_when_full);
}

Status ShardWorker::SubmitBatch(std::span<const Edge> raw_edges,
                                std::size_t* accepted) {
  return Enqueue(raw_edges, accepted, options_.block_when_full);
}

Status ShardWorker::SubmitBatch(std::vector<Edge>&& chunk,
                                std::size_t* accepted) {
  return Enqueue(std::span<const Edge>(chunk.data(), chunk.size()), accepted,
                 options_.block_when_full, &chunk);
}

std::size_t ShardWorker::OfferBatch(std::span<const Edge> edges) {
  std::size_t accepted = 0;
  // Full queue and stopped worker both leave `accepted` at what fit.
  (void)Enqueue(edges, &accepted, /*block=*/false);
  return accepted;
}

Status ShardWorker::SubmitRetire(Timestamp horizon) {
  if (!Windowed()) {
    return Status::FailedPrecondition(
        "ShardWorker::SubmitRetire: worker was built without a retire "
        "callback");
  }
  return Enqueue({}, nullptr, options_.block_when_full, nullptr, horizon);
}

Status ShardWorker::Enqueue(std::span<const Edge> edges,
                            std::size_t* accepted, bool block,
                            std::vector<Edge>* owned,
                            std::optional<Timestamp> retire) {
  if (accepted != nullptr) *accepted = 0;
  const std::size_t units = retire ? 1 : edges.size();
  if (units == 0) return Status::OK();
  if (accepted == nullptr && units > options_.max_queue) {
    return Status::InvalidArgument(
        "ShardWorker::SubmitBatch: chunk exceeds max_queue");
  }
  std::size_t done = 0;
  Status status = Status::OK();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    while (done < units) {
      // The stop check, the push and the worker's exit test share
      // queue_mutex_: a chunk pushed before Stop() is applied before the
      // worker exits, and a call after Stop() pushes nothing.
      if (stopping_) {
        status = Status::FailedPrecondition("ShardWorker is stopped");
        break;
      }
      const std::size_t depth = queued_edges_.load(std::memory_order_relaxed);
      const std::size_t free =
          options_.max_queue - std::min(depth, options_.max_queue);
      const std::size_t want = units - done;
      const std::size_t take = accepted != nullptr
                                   ? std::min(want, free)
                                   : (want <= free ? want : 0);
      if (take > 0) {
        if (retire) {
          queue_.push_back(Chunk::Retire(*retire));
        } else if (owned != nullptr && take == edges.size()) {
          queue_.emplace_back(std::move(*owned));
        } else {
          queue_.emplace_back(edges.subspan(done, take));
        }
        ++enqueue_pos_;
        queued_edges_.store(depth + take, std::memory_order_relaxed);
        if (depth + take > queue_hwm_recent_.load(std::memory_order_relaxed)) {
          queue_hwm_recent_.store(depth + take, std::memory_order_relaxed);
        }
        done += take;
        if (accepted != nullptr) *accepted = done;
        continue;
      }
      // Fail fast. With `accepted`, the prefix that fit stays queued and
      // is reported exactly; without it, nothing was queued.
      if (!block) {
        status = Status::OutOfRange("ShardWorker queue full");
        break;
      }
      // Blocking: the pieces already pushed must reach the worker before
      // this producer sleeps for the space they will free.
      if (done > 0) work_cv_.notify_one();
      space_cv_.wait(lock);
    }
  }
  if (done > 0) work_cv_.notify_one();
  return status;
}

// ---------------------------------------------------------------------------
// Drain / Stop.

void ShardWorker::Drain() { WaitApplied(std::nullopt); }

bool ShardWorker::DrainFor(std::chrono::milliseconds timeout) {
  return WaitApplied(timeout);
}

bool ShardWorker::WaitApplied(
    std::optional<std::chrono::milliseconds> timeout) {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  // Every chunk whose Submit returned before this call is below the push
  // count; the worker advances applied_pos_ at the end of each round.
  const std::uint64_t target = enqueue_pos_;
  const auto done = [this, target] {
    return applied_pos_ >= target || worker_exited_;
  };
  if (!timeout) {
    drain_cv_.wait(lock, done);
    return true;
  }
  return drain_cv_.wait_for(lock, *timeout, done);
}

void ShardWorker::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_ && !worker_.joinable()) return;
    stopping_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::shared_ptr<const Community> ShardWorker::CurrentSnapshot() const {
#if defined(SPADE_SNAPSHOT_PTR_ATOMIC)
  return snapshot_.load();
#else
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
#endif
}

// ---------------------------------------------------------------------------
// Observability.

std::size_t ShardWorker::TakeRecentHighWater() {
  const std::size_t recent =
      queue_hwm_recent_.exchange(0, std::memory_order_relaxed);
  std::size_t total = queue_hwm_total_.load(std::memory_order_relaxed);
  while (recent > total &&
         !queue_hwm_total_.compare_exchange_weak(
             total, recent, std::memory_order_relaxed)) {
  }
  return recent;
}

void ShardWorker::ResetHighWater() {
  queue_hwm_recent_.store(0, std::memory_order_relaxed);
  queue_hwm_total_.store(0, std::memory_order_relaxed);
}

void ShardWorker::AddBusySince(std::chrono::steady_clock::time_point begin) {
  busy_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - begin)
              .count()),
      std::memory_order_relaxed);
}

double ShardWorker::BusyFraction() const {
  const double wall_ns = std::chrono::duration<double, std::nano>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  if (wall_ns <= 0.0) return 0.0;
  const double busy =
      static_cast<double>(busy_ns_.load(std::memory_order_relaxed));
  return busy >= wall_ns ? 1.0 : busy / wall_ns;
}

std::vector<std::size_t> ShardWorker::OwnedPartitions() const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  std::vector<std::size_t> pids;
  pids.reserve(parts_.size());
  for (const auto& p : parts_) pids.push_back(p->pid);
  std::sort(pids.begin(), pids.end());
  return pids;
}

ShardWorker::Occupancy ShardWorker::GetOccupancy() const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Occupancy occupancy;
  occupancy.partitions = parts_.size();
  for (const auto& p : parts_) {
    occupancy.pending_benign += p->spade.PendingBenignEdges();
  }
  return occupancy;
}

std::vector<std::pair<std::size_t, std::uint64_t>>
ShardWorker::PartitionLoads() {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  std::vector<std::pair<std::size_t, std::uint64_t>> loads;
  loads.reserve(parts_.size());
  for (auto& p : parts_) {
    loads.emplace_back(p->pid, p->recent_load);
    p->recent_load = 0;
  }
  std::sort(loads.begin(), loads.end());
  return loads;
}

// ---------------------------------------------------------------------------
// Partition ownership.

ShardWorker::Partition* ShardWorker::PartitionForLocked(const Edge& edge) {
  if (!partition_of_) {
    return parts_.empty() ? nullptr : parts_.front().get();
  }
  const std::size_t pid = partition_of_(edge);
  if (pid >= by_pid_.size()) return nullptr;
  return by_pid_[pid];
}

ShardWorker::Partition* ShardWorker::FindPartitionLocked(std::size_t pid) {
  if (pid < by_pid_.size()) return by_pid_[pid];
  return nullptr;
}

const ShardWorker::Partition* ShardWorker::FindPartitionLocked(
    std::size_t pid) const {
  if (pid < by_pid_.size()) return by_pid_[pid];
  return nullptr;
}

std::unique_ptr<ShardWorker::Partition> ShardWorker::DetachPartition(
    std::size_t pid) {
  std::unique_ptr<Partition> out;
  std::lock_guard<std::mutex> lock(detector_mutex_);
  for (auto it = parts_.begin(); it != parts_.end(); ++it) {
    if ((*it)->pid == pid) {
      out = std::move(*it);
      parts_.erase(it);
      break;
    }
  }
  if (out == nullptr) return nullptr;
  by_pid_[pid] = nullptr;
  boundary_edges_.fetch_sub(out->boundary_edges, std::memory_order_relaxed);
  // Republish without the detached partition so a reader never sees a
  // community that two workers both claim (the new owner republishes it on
  // attach).
  PublishArgmaxLocked();
  return out;
}

void ShardWorker::AttachPartition(std::unique_ptr<Partition> partition) {
  SPADE_CHECK(partition != nullptr);
  std::lock_guard<std::mutex> lock(detector_mutex_);
  SPADE_CHECK(partition->pid < by_pid_.size());
  SPADE_CHECK(by_pid_[partition->pid] == nullptr);
  by_pid_[partition->pid] = partition.get();
  boundary_edges_.fetch_add(partition->boundary_edges,
                            std::memory_order_relaxed);
  parts_.push_back(std::move(partition));
  PublishArgmaxLocked();
}

void ShardWorker::CollectInduced(std::span<const VertexId> vertices,
                                 const std::function<bool(VertexId)>& contains,
                                 std::vector<Edge>* edges,
                                 std::vector<double>* vertex_weight) const {
  SPADE_CHECK(vertex_weight->size() >= vertices.size());
  std::lock_guard<std::mutex> lock(detector_mutex_);
  for (const auto& p : parts_) {
    const DynamicGraph& g = p->spade.graph();
    const std::size_t n = g.NumVertices();
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      const VertexId v = vertices[i];
      if (v >= n) continue;  // this partition never saw the vertex
      (*vertex_weight)[i] = std::max((*vertex_weight)[i], g.VertexWeight(v));
      for (const NeighborEntry& e : g.OutNeighbors(v)) {
        if (contains(e.vertex)) {
          edges->push_back(Edge{v, e.vertex, e.weight, 0});
        }
      }
    }
    // Buffered edges are applied too; only their peel-state reorder is
    // deferred (the boundary rebuild reads them the same way).
    for (const Edge& e : p->spade.benign_buffer()) {
      if (contains(e.src) && contains(e.dst)) {
        edges->push_back(Edge{e.src, e.dst, e.weight, 0});
      }
    }
  }
}

void ShardWorker::AddBoundaryWeights(
    std::unordered_map<VertexId, double>* weight) const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  for (const auto& p : parts_) {
    for (const auto& [v, mass] : p->boundary) (*weight)[v] += mass.weight;
  }
}

void ShardWorker::CountBoundaryLocked(Partition& p, const Edge& weighted,
                                      int sign, bool live) {
  if (!is_boundary_ || !is_boundary_(weighted, live)) return;
  for (const VertexId v : {weighted.src, weighted.dst}) {
    Partition::BoundaryMass& mass = p.boundary[v];
    if (sign > 0) {
      mass.weight += weighted.weight;
      ++mass.edges;
    } else {
      mass.weight -= weighted.weight;
      if (--mass.edges == 0) p.boundary.erase(v);
    }
  }
  if (sign > 0) {
    ++p.boundary_edges;
    boundary_edges_.fetch_add(1, std::memory_order_relaxed);
  } else {
    --p.boundary_edges;
    boundary_edges_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (live) boundary_updates_.fetch_add(1, std::memory_order_relaxed);
}

void ShardWorker::RebuildBoundaryLocked(Partition& p) {
  if (!is_boundary_) return;
  boundary_edges_.fetch_sub(p.boundary_edges, std::memory_order_relaxed);
  p.boundary.clear();
  p.boundary_edges = 0;
  const DynamicGraph& g = p.spade.graph();
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (const NeighborEntry& e : g.OutNeighbors(v)) {
      CountBoundaryLocked(p, Edge{v, e.vertex, e.weight, 0}, +1,
                          /*live=*/false);
    }
  }
  for (const Edge& e : p.spade.benign_buffer()) {
    CountBoundaryLocked(p, e, +1, /*live=*/false);
  }
}

// ---------------------------------------------------------------------------
// Persistence.

Status ShardWorker::SavePartition(std::size_t pid, const std::string& path,
                                  bool start_delta_tracking) {
  Drain();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::SavePartition: partition not owned by this worker");
  }
  // A full save is a checkpoint: whatever history the log held is now
  // covered by the base snapshot, which holds no benign buffer — so the
  // fold happens here, and a later chain replays from the folded state
  // written here. The window log rides in the snapshot's window section.
  if (p->spade.PendingBenignEdges() > 0) {
    SPADE_RETURN_NOT_OK(p->spade.Flush());
    // Publish what a restore of this base reads.
    RebaselineLocked(*p);
  }
  const std::vector<Edge> window(p->window_log.begin(), p->window_log.end());
  SPADE_RETURN_NOT_OK(
      SaveSnapshot(path, p->spade.graph(), &p->spade.peel_state(), window));
  p->delta_log.clear();
  p->delta_overflow = false;
  if (start_delta_tracking) p->delta_tracking = true;
  return Status::OK();
}

Status ShardWorker::SavePartitionDelta(std::size_t pid,
                                       const std::string& path,
                                       std::uint32_t shard,
                                       std::uint64_t prev_epoch,
                                       std::uint64_t epoch,
                                       DeltaSaveInfo* info) {
  Drain();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::SavePartitionDelta: partition not owned by this "
        "worker");
  }
  if (!p->delta_tracking) {
    return Status::FailedPrecondition(
        "ShardWorker::SavePartitionDelta: no checkpoint baseline (run a "
        "full SavePartition first)");
  }
  if (p->delta_overflow) {
    return Status::FailedPrecondition(
        "ShardWorker::SavePartitionDelta: delta log overflowed; a full "
        "SavePartition is required");
  }
  DeltaSegment segment;
  segment.shard = shard;
  segment.prev_epoch = prev_epoch;
  segment.epoch = epoch;
  segment.records = std::move(p->delta_log);
  p->delta_log.clear();
  std::uint64_t bytes = 0;
  const Status s = WriteDeltaSegment(path, segment, &bytes);
  if (!s.ok()) {
    // The write failed but the history is still the truth — put it back so
    // a retry (or a fallback full save) does not lose the chain.
    p->delta_log = std::move(segment.records);
    return s;
  }
  if (info != nullptr) {
    info->bytes = bytes;
    info->records = segment.records.size();
  }
  return Status::OK();
}

void ShardWorker::AppendDeltaRecord(Partition& p, const DeltaRecord& record) {
  if (!p.delta_tracking || p.delta_overflow) return;
  if (p.delta_log.size() >= options_.max_delta_log) {
    // Unbounded history is worse than a forced full checkpoint: drop the
    // log, remember the overflow, and let the next SavePartitionDelta
    // fail fast.
    p.delta_log.clear();
    p.delta_log.shrink_to_fit();
    p.delta_overflow = true;
    return;
  }
  p.delta_log.push_back(record);
}

Status ShardWorker::ReplayChainLocked(Partition& p,
                                      std::span<const DeltaSegment> segments) {
  // Replay the applied history through the same entry points the live
  // worker used. Every record passed CRC validation and came from a
  // successfully applied edge, so a failure here is a logic error — but
  // it still surfaces as a Status, not a partial silent state.
  for (const DeltaSegment& segment : segments) {
    for (const DeltaRecord& record : segment.records) {
      if (record.retire) {
        SPADE_RETURN_NOT_OK(ReplayRetireLocked(p, record.edge));
      } else {
        double applied = 0;
        SPADE_RETURN_NOT_OK(
            p.spade.ApplyEdgeDeferred(record.edge, &applied).status());
        if (Windowed()) {
          p.window_log.push_back(Edge{record.edge.src, record.edge.dst,
                                      applied, record.edge.ts});
        }
      }
    }
  }
  // The replayed records came from a sealed checkpoint: the detector now
  // matches that checkpoint, so the in-memory history restarts from it
  // (after a standby replay the owner also invalidates its chain cache,
  // making the next save a full base — see
  // ShardedDetectionService::ApplyChainEpoch).
  p.delta_log.clear();
  p.delta_overflow = false;
  p.delta_tracking = true;
  // The replayed benign buffer stays buffered, so the restored detector
  // keeps matching the live one.
  RebaselineLocked(p);
  RebuildBoundaryLocked(p);
  return Status::OK();
}

Status ShardWorker::RestorePartitionChain(std::size_t pid,
                                          RestorePlan&& plan) {
  Drain();
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::RestorePartitionChain: partition not owned by this "
        "worker");
  }
  p->spade.RestoreFromParts(std::move(plan.graph), std::move(plan.state),
                            plan.state_present);
  p->window_log.assign(plan.window.begin(), plan.window.end());
  return ReplayChainLocked(*p, plan.segments);
}

Status ShardWorker::ReplayPartitionSegment(
    std::size_t pid, const DeltaSegment& segment,
    std::chrono::milliseconds drain_timeout) {
  if (!DrainFor(drain_timeout)) {
    return Status::FailedPrecondition(
        "ReplayPartitionSegment: shard queue did not drain within " +
        std::to_string(drain_timeout.count()) + "ms");
  }
  std::lock_guard<std::mutex> lock(detector_mutex_);
  Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::ReplayPartitionSegment: partition not owned by this "
        "worker");
  }
  return ReplayChainLocked(*p, std::span<const DeltaSegment>(&segment, 1));
}

void ShardWorker::InspectDetector(
    const std::function<void(const Spade&)>& fn) const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  SPADE_CHECK(!parts_.empty());
  fn(parts_.front()->spade);
}

Status ShardWorker::InspectPartition(
    std::size_t pid, const std::function<void(const Spade&)>& fn) const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  const Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) {
    return Status::NotFound(
        "ShardWorker::InspectPartition: partition not owned by this worker");
  }
  fn(p->spade);
  return Status::OK();
}

std::vector<Edge> ShardWorker::WindowEdges() const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  std::vector<const Partition*> ordered;
  ordered.reserve(parts_.size());
  for (const auto& p : parts_) ordered.push_back(p.get());
  std::sort(ordered.begin(), ordered.end(),
            [](const Partition* a, const Partition* b) {
              return a->pid < b->pid;
            });
  std::vector<Edge> out;
  for (const Partition* p : ordered) {
    out.insert(out.end(), p->window_log.begin(), p->window_log.end());
  }
  return out;
}

std::vector<Edge> ShardWorker::PartitionWindowEdges(std::size_t pid) const {
  std::lock_guard<std::mutex> lock(detector_mutex_);
  const Partition* p = FindPartitionLocked(pid);
  if (p == nullptr) return {};
  return std::vector<Edge>(p->window_log.begin(), p->window_log.end());
}

Status ShardWorker::ReplayRetireLocked(Partition& p, const Edge& record) {
  SPADE_RETURN_NOT_OK(
      p.spade.RetireEdge(record.src, record.dst, record.weight));
  retired_.fetch_add(1, std::memory_order_relaxed);
  // The live pass popped this entry off its window log; mirror it. The
  // record is almost always the log front (oldest-first expiry); the
  // fallback search only runs in the degenerate case where a live retire
  // failed and its entry was dropped without a record.
  const auto matches = [&record](const Edge& e) {
    return e.src == record.src && e.dst == record.dst &&
           e.weight == record.weight && e.ts == record.ts;
  };
  if (!p.window_log.empty() && matches(p.window_log.front())) {
    p.window_log.pop_front();
    return Status::OK();
  }
  const auto it =
      std::find_if(p.window_log.begin(), p.window_log.end(), matches);
  if (it != p.window_log.end()) {
    p.window_log.erase(it);
  } else if (Windowed()) {
    SPADE_LOG_WARNING()
        << "ShardWorker replay: retire record not found in window log";
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Worker loop.

void ShardWorker::PublishArgmaxLocked() {
  std::shared_ptr<const Community> best;
  for (const auto& p : parts_) {
    if (p->current && (!best || p->current->density > best->density)) {
      best = p->current;
    }
  }
  if (!best) best = std::make_shared<const Community>();
#if defined(SPADE_SNAPSHOT_PTR_ATOMIC)
  snapshot_.store(std::move(best));
#else
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(best);
#endif
}

void ShardWorker::PublishLocked(Partition& p) {
  // Caller holds detector_mutex_. Benign-buffered edges stay buffered: by
  // Lemma 4.4 they cannot have changed the community the peel state holds.
  Community community = p.spade.peel_state().DetectCommunity();
  p.since_detect = 0;
  detections_.fetch_add(1, std::memory_order_relaxed);
  std::vector<VertexId> sorted = SortedMembers(community);
  const bool changed = sorted != p.last_reported ||
                       !SameDensity(community.density, p.last_density);
  if (!changed && community.density != p.last_density) {
    alerts_suppressed_.fetch_add(1, std::memory_order_relaxed);
  }
  p.current = std::make_shared<const Community>(std::move(community));
  PublishArgmaxLocked();
  if (!changed) return;
  p.last_reported = std::move(sorted);
  p.last_density = p.current->density;
  alerts_.fetch_add(1, std::memory_order_relaxed);
  if (on_alert_) {
    pending_alerts_.push_back(p.current);
  }
}

void ShardWorker::RebaselineLocked(Partition& p) {
  // Caller holds detector_mutex_.
  Community community = p.spade.peel_state().DetectCommunity();
  p.last_reported = SortedMembers(community);
  p.last_density = community.density;
  p.since_detect = 0;
  p.current = std::make_shared<const Community>(std::move(community));
  PublishArgmaxLocked();
}

bool ShardWorker::ApplyOne(const Edge& edge) {
  std::vector<std::shared_ptr<const Community>> alerts;
  {
    std::lock_guard<std::mutex> apply_lock(detector_mutex_);
    Partition* p = PartitionForLocked(edge);
    if (p == nullptr) {
      // Routed here under a stale partition-map entry (the partition moved
      // away). The edge stays this worker's responsibility — and holds
      // back the drain cursor — until the current owner accepts it.
      forward_backlog_.push_back(edge);
      return false;
    }
    double applied = 0;
    const Result<bool> changed = p->spade.ApplyEdgeDeferred(edge, &applied);
    if (changed.ok()) {
      AppendDeltaRecord(*p, DeltaRecord::Insert(edge));
      const Edge weighted{edge.src, edge.dst, applied, edge.ts};
      if (Windowed()) p->window_log.push_back(weighted);
      CountBoundaryLocked(*p, weighted, +1, /*live=*/true);
      processed_.fetch_add(1, std::memory_order_relaxed);
      ++p->since_detect;
      ++p->recent_load;
      // An urgent edge reordered the peel state (alone while the buffer
      // stayed benign, or folding it): publish right away so moderators
      // hear about new fraudsters immediately. The detect_every cadence
      // only republishes; by Lemma 4.4 a buffered edge cannot have changed
      // the community.
      if (changed.value() || p->since_detect >= options_.detect_every) {
        PublishLocked(*p);
        alerts = TakePendingAlertsLocked();
      }
    } else {
      SPADE_LOG_WARNING() << "ShardWorker dropped edge: "
                          << changed.status().ToString();
    }
  }
  // Deliver with no lock held: a slow moderator delays the next apply
  // on this shard but never blocks producers, readers, or Save/Restore
  // beyond this one callback.
  for (const auto& a : alerts) on_alert_(*a);
  return true;
}

void ShardWorker::FlushForwardBacklog() {
  if (forward_backlog_.empty()) return;
  // Edges whose partition came back (moved away and home again, or the
  // map was republished before we looked) apply locally; the rest forward.
  std::vector<Edge> came_home;
  {
    std::lock_guard<std::mutex> lock(detector_mutex_);
    if (partition_of_) {
      std::size_t keep = 0;
      for (const Edge& e : forward_backlog_) {
        const std::size_t pid = partition_of_(e);
        Partition* p = pid < by_pid_.size() ? by_pid_[pid] : nullptr;
        if (p != nullptr) {
          came_home.push_back(e);
        } else {
          forward_backlog_[keep++] = e;
        }
      }
      forward_backlog_.resize(keep);
    }
  }
  for (const Edge& e : came_home) ApplyOne(e);
  if (!forward_backlog_.empty()) {
    if (!forward_) {
      // No forwarding wired but a partition moved away regardless — a
      // misconfiguration; dropping (with a warning) beats wedging Drain.
      SPADE_LOG_WARNING() << "ShardWorker: dropping "
                          << forward_backlog_.size()
                          << " edges for unowned partitions (no forward fn)";
      forward_backlog_.clear();
    } else {
      const std::size_t accepted = forward_(std::span<const Edge>(
          forward_backlog_.data(), forward_backlog_.size()));
      forward_backlog_.erase(forward_backlog_.begin(),
                             forward_backlog_.begin() +
                                 static_cast<std::ptrdiff_t>(accepted));
    }
  }
}

void ShardWorker::WorkerLoop() {
  std::vector<Edge> batch;
  std::uint64_t popped = 0;  // chunks taken off the queue so far
  while (true) {
    // Gather every queued chunk (up to the gather cap) into one application
    // batch. A retire marker ends the round: the pass must see exactly the
    // edges submitted before it (queue order), not ones gathered after.
    batch.clear();
    bool have_retire = false;
    Timestamp retire_horizon = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      const auto ready = [this] { return stopping_ || !queue_.empty(); };
      if (forward_backlog_.empty()) {
        work_cv_.wait(lock, ready);
      } else {
        // Timed park: the backlog's forward target was full or mid-move;
        // poll it instead of sleeping until a producer shows up.
        work_cv_.wait_for(lock, kBacklogRetire, ready);
      }
      // Stop drains first: every chunk accepted before Stop() is queued.
      if (stopping_ && queue_.empty()) break;
      std::size_t freed = 0;
      while (!queue_.empty() && !have_retire && batch.size() < kGatherCap) {
        Chunk& chunk = queue_.front();
        freed += chunk.size();
        if (chunk.is_retire) {
          have_retire = true;
          retire_horizon = chunk.retire_horizon;
        } else if (chunk.is_one) {
          batch.push_back(chunk.one);
        } else if (batch.empty()) {
          batch = std::move(chunk.many);
        } else {
          batch.insert(batch.end(), chunk.many.begin(), chunk.many.end());
        }
        queue_.pop_front();
        ++popped;
      }
      queued_edges_.fetch_sub(freed, std::memory_order_relaxed);
    }
    // The popped chunks left the budget; wake any blocked producers.
    space_cv_.notify_all();

    const auto work_begin = std::chrono::steady_clock::now();
    for (const Edge& edge : batch) {
      ApplyOne(edge);
    }
    if (!forward_backlog_.empty()) FlushForwardBacklog();

    if (have_retire) {
      // Pre-deletion announcement: deletions shrink the graph the moment
      // they apply, but consumers (the sharded service's stitched
      // snapshot) are only told via on_retire_ — a callback fired after
      // the pass used to leave a window where a reader could combine the
      // shrunken live argmax with a stale pre-deletion snapshot. Bump the
      // begin counter and fire on_retire_(0) BEFORE the first deletion so
      // stale state is dropped while the graph still matches it. Only
      // this thread (and Detach, which can only remove work) mutates the
      // window logs, so the peek stays conservative.
      bool will_retire = false;
      {
        std::lock_guard<std::mutex> peek_lock(detector_mutex_);
        for (const auto& p : parts_) {
          if (!p->window_log.empty() &&
              p->window_log.front().ts < retire_horizon) {
            will_retire = true;
            break;
          }
        }
      }
      if (will_retire) {
        retire_begins_.fetch_add(1, std::memory_order_seq_cst);
        if (on_retire_) on_retire_(0);
      }
      std::vector<std::shared_ptr<const Community>> alerts;
      std::size_t retired_now = 0;
      {
        std::lock_guard<std::mutex> apply_lock(detector_mutex_);
        for (auto& p : parts_) {
          // Pop the expired prefix oldest-first. The log is
          // arrival-ordered, so an out-of-timestamp-order edge shields the
          // entries behind it until the horizon passes it too —
          // conservative (never retires a live edge), and deterministic:
          // replay retires exactly the recorded set.
          std::size_t part_retired = 0;
          while (!p->window_log.empty() &&
                 p->window_log.front().ts < retire_horizon) {
            const Edge old = p->window_log.front();
            p->window_log.pop_front();
            const Status s =
                p->spade.RetireEdge(old.src, old.dst, old.weight);
            if (!s.ok()) {
              SPADE_LOG_WARNING()
                  << "ShardWorker retire failed: " << s.ToString();
              continue;
            }
            AppendDeltaRecord(*p, DeltaRecord::Retire(old));
            CountBoundaryLocked(*p, old, -1, /*live=*/true);
            ++part_retired;
          }
          if (part_retired > 0) {
            retired_now += part_retired;
            // Deletion can shrink the community or its density —
            // republish (and alert) right away rather than waiting out
            // detect_every. RetireEdge flushed the buffer inside Spade.
            PublishLocked(*p);
          }
        }
        if (retired_now > 0) {
          retired_.fetch_add(retired_now, std::memory_order_relaxed);
        }
        alerts = TakePendingAlertsLocked();
      }
      for (const auto& a : alerts) on_alert_(*a);
      if (retired_now > 0 && on_retire_) on_retire_(retired_now);
    }

    AddBusySince(work_begin);

    // Every popped chunk is applied and its community published (a benign
    // buffer does not matter), unless an edge still waits in the forward
    // backlog for its owner.
    if (forward_backlog_.empty()) {
      {
        std::lock_guard<std::mutex> lock(queue_mutex_);
        applied_pos_ = popped;
      }
      drain_cv_.notify_all();
    }
  }

  // Shutdown: hand off (or, failing that, drop) any backlogged edges — a
  // forward target that is itself stopping may refuse them, and a stopped
  // fleet has nowhere better to put them.
  if (!forward_backlog_.empty()) {
    FlushForwardBacklog();
    if (!forward_backlog_.empty()) {
      SPADE_LOG_WARNING() << "ShardWorker exiting with "
                          << forward_backlog_.size()
                          << " unforwardable edges (dropped)";
      forward_backlog_.clear();
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    worker_exited_ = true;
    applied_pos_ = popped;
  }
  drain_cv_.notify_all();
  space_cv_.notify_all();
}

}  // namespace spade
