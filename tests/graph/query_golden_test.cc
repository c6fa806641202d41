// Golden tests: every Cluster graph operation checked against a
// straightforward single-threaded reference implementation. QueryGoldenTest
// runs on a small random graph where caps are chosen larger than any
// quantity in the graph; CappedQueryGoldenTest runs on a graph whose hubs
// exceed the caps, against a reference that applies the cluster's cap
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <iterator>
#include <mutex>
#include <queue>
#include <set>
#include <vector>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"

namespace bouncer::graph {
namespace {

using server::Outcome;
using server::WorkItem;

constexpr uint32_t kVertices = 300;  // Small: every cap is effectively off.

/// A started cluster over a generated graph with every admission tier
/// wide open; Ask() answers one query at a time and expects success.
class GoldenCluster {
 public:
  GoldenCluster(const GeneratorOptions& graph_options, size_t broker_workers,
                size_t num_shards)
      : graph_(GeneratePreferentialAttachment(graph_options)),
        registry_(Cluster::MakeRegistry(Slo{kSecond, kSecond, 0})),
        cluster_(&graph_, &registry_, SystemClock::Global(),
                 Topology(broker_workers, num_shards)) {
    EXPECT_TRUE(cluster_.Start().ok());
  }

  const GraphStore& graph() const { return graph_; }

  uint64_t Ask(const GraphQuery& query) {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    uint64_t value = 0;
    bool ok = false;
    cluster_.Submit(query, 0,
                    [&](const WorkItem&, Outcome outcome,
                        const GraphQueryResult& result) {
                      std::lock_guard<std::mutex> lock(mu);
                      value = result.value;
                      ok = outcome == Outcome::kCompleted && result.ok;
                      done = true;
                      cv.notify_all();
                    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    EXPECT_TRUE(ok);
    return value;
  }

 private:
  static Cluster::Options Topology(size_t broker_workers, size_t num_shards) {
    Cluster::Options options;
    options.num_brokers = 1;
    options.broker_workers = broker_workers;
    options.num_shards = num_shards;
    options.shard_workers = 1;
    options.work_per_edge = 0;
    options.broker_policy.kind = PolicyKind::kAlwaysAccept;
    options.shard_policy.kind = PolicyKind::kAlwaysAccept;
    return options;
  }

  GraphStore graph_;
  QueryTypeRegistry registry_;
  Cluster cluster_;
};

class QueryGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_vertices = kVertices;
    options.edges_per_vertex = 3;
    options.seed = 77;
    golden_ = new GoldenCluster(options, /*broker_workers=*/4,
                                /*num_shards=*/3);
    graph_ = &golden_->graph();
  }

  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }

  static uint64_t Ask(const GraphQuery& query) { return golden_->Ask(query); }

  // ----- reference implementations -----

  static std::set<uint32_t> RefNeighbors(uint32_t v) {
    const auto span = graph_->Neighbors(v);
    return {span.begin(), span.end()};
  }

  static std::set<uint32_t> RefTwoHop(uint32_t v) {
    std::set<uint32_t> result;
    for (uint32_t u : RefNeighbors(v)) {
      for (uint32_t w : graph_->Neighbors(u)) result.insert(w);
    }
    return result;
  }

  static uint64_t RefDistance(uint32_t source, uint32_t target,
                              uint32_t max_depth) {
    if (source == target) return 0;
    std::set<uint32_t> visited = {source};
    std::vector<uint32_t> frontier = {source};
    for (uint32_t depth = 1; depth <= max_depth; ++depth) {
      std::vector<uint32_t> next;
      for (uint32_t v : frontier) {
        for (uint32_t u : graph_->Neighbors(v)) {
          if (u == target) return depth;
          if (visited.insert(u).second) next.push_back(u);
        }
      }
      if (next.empty()) return 0;
      frontier = std::move(next);
    }
    return 0;
  }

  static GoldenCluster* golden_;
  static const GraphStore* graph_;
};

GoldenCluster* QueryGoldenTest::golden_ = nullptr;
const GraphStore* QueryGoldenTest::graph_ = nullptr;

TEST_F(QueryGoldenTest, Degree) {
  for (uint32_t v = 0; v < kVertices; v += 13) {
    GraphQuery q{GraphOp::kDegree, v, 0, 0};
    EXPECT_EQ(Ask(q), graph_->Degree(v)) << v;
  }
}

TEST_F(QueryGoldenTest, NeighborsCount) {
  for (uint32_t v = 0; v < kVertices; v += 17) {
    GraphQuery q{GraphOp::kNeighbors, v, 0, 0};
    EXPECT_EQ(Ask(q), std::min<uint64_t>(graph_->Degree(v), 64)) << v;
  }
}

TEST_F(QueryGoldenTest, DegreeByExternalId) {
  for (uint32_t v = 5; v < kVertices; v += 31) {
    GraphQuery q{GraphOp::kDegreeByExternalId, v, 0, graph_->ExternalId(v)};
    EXPECT_EQ(Ask(q), graph_->Degree(v)) << v;
  }
  GraphQuery bogus{GraphOp::kDegreeByExternalId, 0, 0, 0xdeadbeef};
  EXPECT_EQ(Ask(bogus), 0u);
}

TEST_F(QueryGoldenTest, CommonNeighbors) {
  Rng rng(5);
  for (int i = 0; i < 25; ++i) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto b = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto na = RefNeighbors(a);
    const auto nb = RefNeighbors(b);
    std::vector<uint32_t> common;
    std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                          std::back_inserter(common));
    GraphQuery q{GraphOp::kCommonNeighbors, a, b, 0};
    EXPECT_EQ(Ask(q), common.size()) << a << "," << b;
  }
}

TEST_F(QueryGoldenTest, NeighborDegreeSum) {
  for (uint32_t v = 0; v < kVertices; v += 41) {
    if (graph_->Degree(v) > 128) continue;  // Cap would bite.
    uint64_t expected = 0;
    for (uint32_t u : RefNeighbors(v)) expected += graph_->Degree(u);
    GraphQuery q{GraphOp::kNeighborDegreeSum, v, 0, 0};
    EXPECT_EQ(Ask(q), expected) << v;
  }
}

TEST_F(QueryGoldenTest, TopKNeighbors) {
  for (uint32_t v = 0; v < kVertices; v += 53) {
    if (graph_->Degree(v) > 256) continue;
    std::vector<uint32_t> degrees;
    for (uint32_t u : RefNeighbors(v)) degrees.push_back(graph_->Degree(u));
    std::sort(degrees.begin(), degrees.end(), std::greater<>());
    uint64_t expected = 0;
    for (size_t i = 0; i < std::min<size_t>(10, degrees.size()); ++i) {
      expected += degrees[i];
    }
    GraphQuery q{GraphOp::kTopKNeighbors, v, 0, 0};
    EXPECT_EQ(Ask(q), expected) << v;
  }
}

TEST_F(QueryGoldenTest, TwoHopCount) {
  for (uint32_t v = 0; v < kVertices; v += 67) {
    if (graph_->Degree(v) > 128) continue;
    bool capped = false;
    for (uint32_t u : RefNeighbors(v)) {
      if (graph_->Degree(u) > 64) capped = true;  // Per-vertex cap bites.
    }
    if (capped) continue;
    GraphQuery q{GraphOp::kTwoHopCount, v, 0, 0};
    const auto expected = RefTwoHop(v);
    if (expected.size() > 2048) continue;
    EXPECT_EQ(Ask(q), expected.size()) << v;
  }
}

TEST_F(QueryGoldenTest, DistanceDepth3) {
  Rng rng(9);
  for (int i = 0; i < 15; ++i) {
    const auto a = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const auto b = static_cast<uint32_t>(rng.NextBounded(kVertices));
    const uint64_t expected = RefDistance(a, b, 3);
    // The cluster BFS caps per-vertex expansion at 64; skip pairs whose
    // reference path crosses a hub bigger than that.
    bool has_big_hub = false;
    for (uint32_t v = 0; v < kVertices; ++v) {
      if (graph_->Degree(v) > 64) has_big_hub = true;
    }
    GraphQuery q{GraphOp::kDistance3, a, b, 0};
    const uint64_t actual = Ask(q);
    if (!has_big_hub) {
      EXPECT_EQ(actual, expected) << a << "->" << b;
    } else {
      // With caps, the cluster may miss a path but never invents one
      // shorter than the true distance.
      if (actual != 0 && expected != 0) EXPECT_GE(actual, expected);
      if (expected == 0) {
        // Reference says unreachable within 3: cluster must agree or
        // also report 0 (caps only shrink reachability).
        EXPECT_EQ(actual, 0u);
      }
    }
  }
}

TEST_F(QueryGoldenTest, DistanceSelfAndNeighbor) {
  GraphQuery self{GraphOp::kDistance4, 10, 10, 0};
  EXPECT_EQ(Ask(self), 0u);
  const uint32_t neighbor = *RefNeighbors(10).begin();
  GraphQuery adjacent{GraphOp::kDistance4, 10, neighbor, 0};
  EXPECT_EQ(Ask(adjacent), 1u);
}

/// The cluster's answers where caps bite, against a single-threaded
/// reference over the GraphStore that applies the same cap semantics:
///  - an expansion takes each vertex's first `cap_per_vertex` neighbours
///    in adjacency order;
///  - the union is deduplicated, and the smallest `total_cap` ids kept;
///  - QT7 samples the 32 smallest first-hop ids;
///  - a BFS frontier is the previous expansion minus the visited set.
class CappedQueryGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_vertices = 5000;
    options.edges_per_vertex = 8;
    options.seed = 11;
    golden_ = new GoldenCluster(options, /*broker_workers=*/2,
                                /*num_shards=*/2);
    graph_ = &golden_->graph();
  }

  static void TearDownTestSuite() {
    delete golden_;
    golden_ = nullptr;
  }

  static uint64_t Ask(const GraphQuery& query) { return golden_->Ask(query); }

  // ----- capped reference -----

  /// Set whenever a cap truncates the reference answer being computed.
  static bool capped_;

  static std::set<uint32_t> RefExpand(const std::set<uint32_t>& vertices,
                                      uint32_t cap_per_vertex,
                                      size_t total_cap) {
    std::set<uint32_t> out;
    for (const uint32_t v : vertices) {
      const auto neighbors = graph_->Neighbors(v);
      const size_t count = std::min<size_t>(neighbors.size(), cap_per_vertex);
      if (count < neighbors.size()) capped_ = true;
      out.insert(neighbors.begin(), neighbors.begin() + count);
    }
    if (out.size() > total_cap) {
      capped_ = true;
      out.erase(std::next(out.begin(), static_cast<ptrdiff_t>(total_cap)),
                out.end());
    }
    return out;
  }

  static std::set<uint32_t> Smallest(const std::set<uint32_t>& s, size_t k) {
    if (s.size() <= k) return s;
    capped_ = true;
    return {s.begin(), std::next(s.begin(), static_cast<ptrdiff_t>(k))};
  }

  static uint64_t DegreeSum(const std::set<uint32_t>& vertices) {
    uint64_t sum = 0;
    for (const uint32_t v : vertices) sum += graph_->Degree(v);
    return sum;
  }

  static uint64_t RefBfs(uint32_t source, uint32_t target, uint32_t max_depth,
                         size_t frontier_cap) {
    if (source == target) return 0;
    std::set<uint32_t> visited = {source};
    std::set<uint32_t> frontier = {source};
    for (uint32_t depth = 1; depth <= max_depth; ++depth) {
      const std::set<uint32_t> next = RefExpand(frontier, 64, frontier_cap);
      if (next.count(target) != 0) return depth;
      frontier.clear();
      for (const uint32_t u : next) {
        if (visited.insert(u).second) frontier.insert(u);
      }
      if (frontier.empty()) return 0;
    }
    return 0;
  }

  static uint64_t Reference(const GraphQuery& q) {
    const std::set<uint32_t> source = {q.source};
    switch (q.op) {
      case GraphOp::kDegree:
        return graph_->Degree(q.source);
      case GraphOp::kNeighbors:
        return RefExpand(source, 64, 64).size();
      case GraphOp::kDegreeByExternalId: {
        const auto vertex = graph_->FindByExternalId(q.external_id);
        return vertex.ok() ? graph_->Degree(*vertex) : 0;
      }
      case GraphOp::kCommonNeighbors: {
        const auto a = RefExpand(source, 512, 512);
        const auto b = RefExpand({q.target}, 512, 512);
        uint64_t common = 0;
        for (const uint32_t u : b) common += a.count(u);
        return common;
      }
      case GraphOp::kNeighborDegreeSum:
        return DegreeSum(RefExpand(source, 128, 128));
      case GraphOp::kTopKNeighbors: {
        std::vector<uint32_t> degrees;
        for (const uint32_t u : RefExpand(source, 256, 256)) {
          degrees.push_back(graph_->Degree(u));
        }
        std::sort(degrees.begin(), degrees.end(), std::greater<>());
        uint64_t sum = 0;
        for (size_t i = 0; i < std::min<size_t>(10, degrees.size()); ++i) {
          sum += degrees[i];
        }
        return sum;
      }
      case GraphOp::kTwoHopSample:
        return RefExpand(Smallest(RefExpand(source, 64, 64), 32), 32, 1024)
            .size();
      case GraphOp::kTwoHopCount:
        return RefExpand(RefExpand(source, 128, 128), 64, 2048).size();
      case GraphOp::kTwoHopDedup:
        return RefExpand(RefExpand(source, 256, 256), 64, 4096).size();
      case GraphOp::kDistance3:
        return RefBfs(q.source, q.target, 3, 2048);
      case GraphOp::kDistance4:
        return RefBfs(q.source, q.target, 4, 4096);
    }
    return 0;
  }

  static GoldenCluster* golden_;
  static const GraphStore* graph_;
};

bool CappedQueryGoldenTest::capped_ = false;
GoldenCluster* CappedQueryGoldenTest::golden_ = nullptr;
const GraphStore* CappedQueryGoldenTest::graph_ = nullptr;

TEST_F(CappedQueryGoldenTest, EveryOpMatchesCappedReference) {
  // The hubs are the sources where caps bite; random queries cover the
  // rest of the degree distribution.
  std::vector<uint32_t> by_degree(graph_->num_vertices());
  for (uint32_t v = 0; v < by_degree.size(); ++v) by_degree[v] = v;
  std::sort(by_degree.begin(), by_degree.end(), [](uint32_t a, uint32_t b) {
    return graph_->Degree(a) > graph_->Degree(b);
  });
  ASSERT_GT(graph_->Degree(by_degree[0]), 256u);

  Rng rng(41);
  for (size_t op = 0; op < kNumGraphOps; ++op) {
    std::vector<GraphQuery> queries;
    for (int i = 0; i < 20; ++i) {
      queries.push_back(
          Cluster::SampleQuery(static_cast<GraphOp>(op), *graph_, rng));
    }
    for (int i = 0; i < 5; ++i) {
      GraphQuery q =
          Cluster::SampleQuery(static_cast<GraphOp>(op), *graph_, rng);
      q.source = by_degree[i];
      q.external_id = graph_->ExternalId(q.source);
      queries.push_back(q);
    }
    int capped_queries = 0;
    for (const GraphQuery& q : queries) {
      capped_ = false;
      const uint64_t expected = Reference(q);
      if (capped_) ++capped_queries;
      EXPECT_EQ(Ask(q), expected)
          << "op " << op << " source " << q.source << " target " << q.target;
    }
    // QT1 and QT3 have no cap; QT4's 512 cap exceeds every degree here.
    const auto graph_op = static_cast<GraphOp>(op);
    if (graph_op != GraphOp::kDegree &&
        graph_op != GraphOp::kDegreeByExternalId &&
        graph_op != GraphOp::kCommonNeighbors) {
      EXPECT_GT(capped_queries, 0) << "no cap bit for op " << op;
    }
  }
}

}  // namespace
}  // namespace bouncer::graph
