#ifndef BOUNCER_GRAPH_SHARD_ENGINE_H_
#define BOUNCER_GRAPH_SHARD_ENGINE_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph_store.h"

namespace bouncer::graph {

/// A sub-query a broker sends to one shard (paper §5.1: answering a query
/// involves one or more communication rounds between the broker and the
/// shards). Vertices listed must be owned by the addressed shard.
struct Subquery {
  enum class Kind : uint8_t {
    kDegrees = 0,  ///< Return the degree of each input vertex.
    kExpand = 1,   ///< Return the (capped) neighbor lists, concatenated.
  };
  Kind kind = Kind::kDegrees;
  std::vector<uint32_t> vertices;
  /// For kExpand: per-vertex cap on returned neighbors (0 = no cap).
  uint32_t limit_per_vertex = 0;
};

/// Result of one sub-query.
struct SubqueryResult {
  std::vector<uint32_t> degrees;    ///< kDegrees: aligned with the input.
  std::vector<uint32_t> neighbors;  ///< kExpand: concatenated, may repeat.
  uint64_t checksum = 0;            ///< Folded per-edge work product.
};

/// Executes sub-queries against the slice of the graph a shard owns.
/// Vertex `v` belongs to shard `v % num_shards`. `work_per_edge` adds a
/// calibratable amount of CPU work per edge touched, standing in for
/// index traversal and serialization cost on real shard hosts so that
/// per-type processing costs are meaningfully different and load-
/// dependent. Thread-safe (the store is immutable).
class ShardEngine {
 public:
  ShardEngine(const GraphStore* graph, uint32_t shard_id, uint32_t num_shards,
              uint32_t work_per_edge)
      : graph_(graph),
        shard_id_(shard_id),
        num_shards_(num_shards == 0 ? 1 : num_shards),
        work_per_edge_(work_per_edge) {}

  /// True if this shard owns `v`.
  bool Owns(uint32_t v) const { return v % num_shards_ == shard_id_; }

  /// Runs `subquery`, appending into `result`. Vertices this shard does
  /// not own are skipped (degree 0 / no neighbors).
  void Execute(const Subquery& subquery, SubqueryResult* result) const;

  uint32_t shard_id() const { return shard_id_; }

 private:
  uint64_t EdgeWork(uint64_t seed) const;

  const GraphStore* graph_;
  const uint32_t shard_id_;
  const uint32_t num_shards_;
  const uint32_t work_per_edge_;
};

}  // namespace bouncer::graph

#endif  // BOUNCER_GRAPH_SHARD_ENGINE_H_
