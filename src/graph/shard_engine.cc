#include "src/graph/shard_engine.h"

#include <algorithm>

namespace bouncer::graph {

uint64_t ShardEngine::EdgeWork(uint64_t seed) const {
  // Cheap data-dependent hash chain; ~1 ns per iteration. Folding the
  // result into the checksum keeps the optimizer from removing it.
  uint64_t x = seed | 1;
  for (uint32_t i = 0; i < work_per_edge_; ++i) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
  }
  return x;
}

void ShardEngine::Execute(const Subquery& subquery,
                          SubqueryResult* result) const {
  switch (subquery.kind) {
    case Subquery::Kind::kDegrees: {
      result->degrees.reserve(result->degrees.size() +
                              subquery.vertices.size());
      for (const uint32_t v : subquery.vertices) {
        const uint32_t degree = Owns(v) ? graph_->Degree(v) : 0;
        result->degrees.push_back(degree);
        result->checksum ^= EdgeWork(v + degree);
      }
      break;
    }
    case Subquery::Kind::kExpand: {
      // Reserve from degree hints so pooled result buffers reach their
      // steady-state capacity in one step instead of doubling up to it.
      size_t expansion_hint = 0;
      for (const uint32_t v : subquery.vertices) {
        if (!Owns(v)) continue;
        const size_t degree = graph_->Degree(v);
        expansion_hint += subquery.limit_per_vertex > 0
                              ? std::min<size_t>(degree,
                                                 subquery.limit_per_vertex)
                              : degree;
      }
      result->neighbors.reserve(result->neighbors.size() + expansion_hint);
      for (const uint32_t v : subquery.vertices) {
        if (!Owns(v)) continue;
        auto neighbors = graph_->Neighbors(v);
        size_t count = neighbors.size();
        if (subquery.limit_per_vertex > 0 &&
            count > subquery.limit_per_vertex) {
          count = subquery.limit_per_vertex;
        }
        for (size_t i = 0; i < count; ++i) {
          result->neighbors.push_back(neighbors[i]);
          result->checksum ^= EdgeWork(neighbors[i]);
        }
      }
      break;
    }
  }
}

}  // namespace bouncer::graph
