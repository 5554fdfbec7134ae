// Delta segments: the per-shard unit of incremental checkpointing.
//
// A full snapshot (storage/snapshot.h) costs O(graph); a delta segment
// costs O(edges since the last checkpoint), which is what makes the
// checkpoint cadence proportional to traffic instead of state — the same
// affected-area principle the incremental peeler applies to updates
// (DESIGN.md §5).
//
// A segment records the shard's *applied history* since the previous
// checkpoint epoch: the raw edges inserted and the edges retired, in
// application order. Restoring replays that history through the live
// Spade::ApplyEdgeDeferred / RetireEdge path, so the restored detector makes
// byte-for-byte the same decisions (benign classification, buffer folds,
// state-dependent edge weights) the live one made — replay(base + chain)
// is bit-identical to the detector that never restarted. Every fold of the
// benign buffer happens inside Spade, as a deterministic function of the
// detector state, so the history needs no fold markers.
//
// Chain integrity: each segment names the epoch it advances FROM
// (`prev_epoch`) and TO (`epoch`); restore refuses a segment that does not
// extend the epoch it has reconstructed so far. Framing is the shared
// CRC-64 trailer discipline (storage/checked_io.h): any torn or mutated
// segment is detected before a single record is replayed.
//
// Format (little-endian, version 3):
//   [magic u64 "SPADE_DS"][version u32 = 3]
//   [shard u32][prev_epoch u64][epoch u64]
//   [num_records u64]
//   records: [tag u8 = 0][src u32][dst u32][weight f64][ts i64]  (edge)
//          | [tag u8 = 2][src u32][dst u32][weight f64][ts i64]  (retire)
//   [crc64 trailer]
//
// Retire records (tag 2) carry the *applied* weight the edge entered the
// graph with — the deletion path must subtract exactly what the insertion
// added — plus the event timestamp, so replay reproduces a windowed
// detector's insert-then-retire history bit-for-bit. The reader accepts
// version 3 only (version 2 carried a flush record, tag 1, that no fold
// needs any more).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace spade {

/// One entry of a shard's applied history: an edge insertion or a
/// window-expiry retirement (edge.weight is the applied weight being
/// subtracted, edge.ts the original event time).
struct DeltaRecord {
  Edge edge;
  bool retire = false;  // true: the detector retired `edge` here

  static DeltaRecord Insert(const Edge& e) {
    DeltaRecord r;
    r.edge = e;
    return r;
  }
  static DeltaRecord Retire(const Edge& e) {
    DeltaRecord r;
    r.edge = e;
    r.retire = true;
    return r;
  }
};

/// A parsed (or to-be-written) delta segment.
struct DeltaSegment {
  std::uint32_t shard = 0;
  std::uint64_t prev_epoch = 0;  // checkpoint epoch this segment extends
  std::uint64_t epoch = 0;       // checkpoint epoch it advances to
  std::vector<DeltaRecord> records;
};

/// Atomically writes `segment` to `path` (CRC-64 trailer, temp + rename).
/// `bytes_written` (optional) receives the payload + trailer size.
Status WriteDeltaSegment(const std::string& path, const DeltaSegment& segment,
                         std::uint64_t* bytes_written = nullptr);

/// Reads a segment back, verifying magic, version and the CRC trailer.
/// A truncated, mutated or non-segment file yields kIOError and leaves
/// `*segment` untouched.
Status ReadDeltaSegment(const std::string& path, DeltaSegment* segment);

}  // namespace spade
