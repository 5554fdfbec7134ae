#include "service/router_scratch.h"

#include "common/logging.h"
#include "service/sharded_detection_service.h"

namespace spade {

void RouterScratch::Partition(const Partitioner& partitioner,
                              const PartitionMap& map,
                              std::size_t num_shards,
                              std::span<const Edge> edges) {
  SPADE_CHECK(num_shards > 0);
  num_shards_ = num_shards;
  const std::size_t m = edges.size();
  const std::size_t num_partitions = map.num_partitions();
  shard_of_.resize(m);
  counts_.assign(num_shards, 0);

  // Pass 1: one routing evaluation per edge — the stable partition key,
  // then one acquire load through the partition map. A move that
  // republishes mid-pass can split a chunk's edges for one partition
  // across the old and new owner; both apply or forward them correctly
  // (the map only has to be eventually consistent).
  for (std::size_t i = 0; i < m; ++i) {
    const Edge& e = edges[i];
    std::size_t shard = 0;
    if (num_partitions > 1) {
      const std::size_t pid =
          (partitioner.routes_by_src_home
               ? partitioner.home(e.src)
               : partitioner.edge_key(e)) %
          num_partitions;
      shard = map.ShardOf(pid);
    }
    shard_of_[i] = static_cast<std::uint32_t>(shard);
    ++counts_[shard];
  }

  // Pass 2: stable counting-sort placement, straight into per-shard slab
  // vectors sized exactly (one reserve each; TakePart hands the slab to
  // the worker without another copy).
  parts_.resize(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    parts_[s].clear();
    parts_[s].reserve(counts_[s]);
  }
  for (std::size_t i = 0; i < m; ++i) {
    parts_[shard_of_[i]].push_back(edges[i]);
  }
}

}  // namespace spade
