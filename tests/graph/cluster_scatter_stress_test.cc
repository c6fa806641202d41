// Stress and regression tests for the pooled/async scatter-gather path:
// countdown correctness under synchronous shard rejections, end-to-end
// shed propagation, and concurrent mixed-op and multi-ring floods. The
// answers themselves are checked against a capped reference in
// query_golden_test.cc. The suite name (ClusterScatter*) is matched by
// the TSan CI job's ctest regex.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"

namespace bouncer::graph {
namespace {

using server::Outcome;

const Slo kSlo{18 * kMillisecond, 50 * kMillisecond, 0};

class ClusterScatterStressTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorOptions options;
    options.num_vertices = 5000;
    options.edges_per_vertex = 8;
    options.seed = 11;
    graph_ = new GraphStore(GeneratePreferentialAttachment(options));
  }

  /// Submits `queries`, waits for every completion callback (bounded),
  /// and returns how many results carried ok == false.
  struct FloodResult {
    int done = 0;
    int failed_results = 0;
  };
  FloodResult Flood(Cluster& cluster, const std::vector<GraphQuery>& queries,
                    int timeout_ms = 30000) {
    std::mutex mu;
    std::condition_variable cv;
    FloodResult out;
    for (const GraphQuery& q : queries) {
      cluster.Submit(q, /*deadline=*/0,
                     [&](const server::WorkItem&, Outcome,
                         const GraphQueryResult& result) {
                       std::lock_guard<std::mutex> lock(mu);
                       ++out.done;
                       if (!result.ok) ++out.failed_results;
                       cv.notify_all();
                     });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
      return out.done == static_cast<int>(queries.size());
    });
    return out;
  }

  static GraphStore* graph_;
};

GraphStore* ClusterScatterStressTest::graph_ = nullptr;

/// A 1-slot shard queue with a MaxQL(1) shard policy makes shards reject
/// subqueries synchronously — often from inside the broker's submit loop,
/// before later shards of the same round were even reached. The gather
/// countdown must still reach zero exactly once per round (it is
/// preloaded with the full round size before any submit), or the broker
/// worker deadlocks on the gate / double-notifies a recycled round.
Cluster::Options OneSlotShardOptions() {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 8;
  options.num_shards = 2;
  options.shard_workers = 1;
  // Heavy subqueries: each one occupies the single shard worker long
  // enough for concurrent rounds to stack up behind the 1-slot queue —
  // otherwise the gathering brokers' work-helping drains it before the
  // next Decide ever sees a nonzero length and nothing is rejected.
  options.work_per_edge = 2048;
  options.shard_queue_capacity = 1;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kMaxQueueLength;
  options.shard_policy.max_queue_length.length_limit = 1;
  return options;
}

TEST_F(ClusterScatterStressTest, OneSlotShardQueueFloodFast) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  OneSlotShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  // Multi-round queries: every round must independently survive partial
  // synchronous rejection.
  Rng rng(21);
  std::vector<GraphQuery> queries;
  for (int i = 0; i < 200; ++i) {
    queries.push_back(
        Cluster::SampleQuery(GraphOp::kTwoHopDedup, *graph_, rng));
  }
  const FloodResult out = Flood(cluster, queries);
  cluster.Stop();
  // Conservation: every query terminated exactly once, no deadlock.
  EXPECT_EQ(out.done, 200);
  // The flood must actually have tripped synchronous rejections.
  EXPECT_GT(cluster.shard_failures(), 0u);
  EXPECT_GT(out.failed_results, 0);
}

/// End-to-end shard shedding: a shard-tier rejection must surface to the
/// client as GraphQueryResult.ok == false and be counted in
/// shard_failures(), while the broker outcome stays kCompleted (the
/// broker did its work; the data plane failed).
TEST_F(ClusterScatterStressTest, ShardShedPropagatesToResult) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster cluster(graph_, &registry, SystemClock::Global(),
                  OneSlotShardOptions());
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(23);
  // Whether a flood trips the 1-slot shard queue depends on scheduling
  // (a single-core host can drain it between submits), so retry the
  // flood until at least one shed occurs; conservation must hold on
  // every attempt.
  int completed_not_ok = 0;
  for (int attempt = 0; attempt < 5 && completed_not_ok == 0; ++attempt) {
    std::vector<GraphQuery> queries;
    for (int i = 0; i < 300; ++i) {
      queries.push_back(
          Cluster::SampleQuery(GraphOp::kNeighborDegreeSum, *graph_, rng));
    }
    std::mutex mu;
    std::condition_variable cv;
    int done = 0;
    for (const GraphQuery& q : queries) {
      cluster.Submit(q, /*deadline=*/0,
                     [&](const server::WorkItem&, Outcome outcome,
                         const GraphQueryResult& result) {
                       std::lock_guard<std::mutex> lock(mu);
                       ++done;
                       if (outcome == Outcome::kCompleted && !result.ok) {
                         ++completed_not_ok;
                       }
                       cv.notify_all();
                     });
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait_for(lock, std::chrono::seconds(30),
                  [&] { return done == static_cast<int>(queries.size()); });
    }
    ASSERT_EQ(done, 300) << "attempt " << attempt;
  }
  cluster.Stop();
  EXPECT_GT(completed_not_ok, 0);
  EXPECT_GT(cluster.shard_failures(), 0u);
}

/// Mixed-op concurrent stress with wide-open
/// admission: every op class in flight at once, everything completes ok.
TEST_F(ClusterScatterStressTest, MixedOpsConcurrentAllComplete) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 8;
  options.num_shards = 3;  // Odd count: single-shard rounds + batches mix.
  options.shard_workers = 2;
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(31);
  std::vector<GraphQuery> queries;
  for (int i = 0; i < 400; ++i) {
    const auto op = static_cast<GraphOp>(i % kNumGraphOps);
    queries.push_back(Cluster::SampleQuery(op, *graph_, rng));
  }
  const FloodResult out = Flood(cluster, queries);
  cluster.Stop();
  EXPECT_EQ(out.done, 400);
  EXPECT_EQ(out.failed_results, 0);
  EXPECT_EQ(cluster.shard_failures(), 0u);
}

/// TSan target for the sharded execution core end to end: concurrent
/// SubmitBatch callers with distinct run-queue hints (the network-loop
/// pattern) flood a multi-ring broker stage while gathering broker
/// workers TryRunOne-steal from the multi-ring shard stages mid-scatter.
/// Every query must terminate exactly once with a correct result.
TEST_F(ClusterScatterStressTest, ShardedBrokerStealFlood) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;  // 4 broker rings.
  options.num_shards = 2;
  options.shard_workers = 2;  // 2 rings per shard, stolen by gatherers.
  options.work_per_edge = 4;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());

  constexpr int kLoops = 4;
  constexpr int kBatchesPerLoop = 50;
  constexpr int kBatchSize = 8;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  int failed = 0;
  std::vector<std::thread> loops;
  for (int loop = 0; loop < kLoops; ++loop) {
    loops.emplace_back([&, loop] {
      Rng rng(100 + loop);
      for (int b = 0; b < kBatchesPerLoop; ++b) {
        std::vector<Cluster::BatchRequest> batch(kBatchSize);
        for (auto& request : batch) {
          request.query = Cluster::SampleQuery(GraphOp::kNeighborDegreeSum,
                                               *graph_, rng);
          request.done = [&](const server::WorkItem&, Outcome,
                             const GraphQueryResult& result) {
            std::lock_guard<std::mutex> lock(mu);
            ++done;
            if (!result.ok) ++failed;
            cv.notify_all();
          };
        }
        cluster.SubmitBatch(batch, static_cast<uint32_t>(loop));
      }
    });
  }
  for (auto& t : loops) t.join();

  constexpr int kTotal = kLoops * kBatchesPerLoop * kBatchSize;
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30),
                [&] { return done == kTotal; });
  }
  cluster.Stop();
  EXPECT_EQ(done, kTotal);
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(cluster.shard_failures(), 0u);
}

/// Satellite (f): with Options::shard_metrics wired, shard stages report
/// Points 1–3 per subquery batch — enough to compute shard utilization
/// (BusyMs over the worker-time budget).
TEST_F(ClusterScatterStressTest, ShardMetricsReportBusyTime) {
  QueryTypeRegistry registry = Cluster::MakeRegistry(kSlo);
  server::MetricsCollector shard_metrics(registry.size());
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 4;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 24;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_metrics = &shard_metrics;
  Cluster cluster(graph_, &registry, SystemClock::Global(), options);
  ASSERT_TRUE(cluster.Start().ok());
  Rng rng(51);
  std::vector<GraphQuery> queries;
  for (int i = 0; i < 100; ++i) {
    queries.push_back(
        Cluster::SampleQuery(GraphOp::kNeighborDegreeSum, *graph_, rng));
  }
  const FloodResult out = Flood(cluster, queries);
  cluster.Stop();
  ASSERT_EQ(out.done, 100);
  const server::TypeReport report = shard_metrics.Overall();
  // Each query runs >= 2 scatter rounds over 2 shards: plenty of batches.
  EXPECT_GE(report.completed, 100u);
  EXPECT_EQ(report.rejected, 0u);
  EXPECT_GT(report.pt_mean_ms, 0.0);
  EXPECT_GT(report.BusyMs(), 0.0);  // Utilization numerator is populated.
}

}  // namespace
}  // namespace bouncer::graph
