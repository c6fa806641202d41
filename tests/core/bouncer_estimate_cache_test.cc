// Cross-checks for the O(1) incremental Eq. 2 queue-wait estimate: in
// every quiescent state the fast aggregate path must return exactly what
// the reference full rescan returns, across warm/cold mixes, priorities,
// shed rollbacks, and out-of-band queue mutation (where the fast path
// must detect drift and fall back to the rescan).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/core/bouncer_policy.h"
#include "tests/core/test_helpers.h"

namespace bouncer {
namespace {

using ::bouncer::testing::PolicyHarness;

BouncerPolicy::Options TestOptions() {
  BouncerPolicy::Options options;
  options.histogram_swap_interval = kSecond;
  return options;
}

void Train(BouncerPolicy& policy, QueryTypeId type, Nanos pt, int n = 100) {
  for (int i = 0; i < n; ++i) policy.OnCompleted(type, pt, 0);
  policy.ForceHistogramSwap();
}

/// Enqueues through both the QueueState and the policy hook, the way the
/// server stage and the simulator do — this keeps the incremental
/// aggregate in sync, so the fast path stays active.
void HookEnqueue(PolicyHarness& h, BouncerPolicy& policy, QueryTypeId type,
                 Nanos now = 0) {
  h.queue->OnEnqueued(type);
  policy.OnEnqueued(type, now);
}

void HookDequeue(PolicyHarness& h, BouncerPolicy& policy, QueryTypeId type,
                 Nanos now = 0) {
  h.queue->OnDequeued(type);
  policy.OnDequeued(type, 0, now);
}

TEST(BouncerEstimateCacheTest, IncrementalMatchesRescanWarmTypes) {
  PolicyHarness h(Slo{18 * kMillisecond, 50 * kMillisecond, 0},
                  /*parallelism=*/2);
  BouncerPolicy policy(h.context, TestOptions());
  Train(policy, h.fast_id, 4 * kMillisecond);
  Train(policy, h.slow_id, 20 * kMillisecond);
  HookEnqueue(h, policy, h.fast_id);
  HookEnqueue(h, policy, h.slow_id);
  HookEnqueue(h, policy, h.slow_id);
  // (1*4 + 2*20) / 2 = 22 ms.
  EXPECT_EQ(policy.EstimateQueueWait(), 22 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
  HookDequeue(h, policy, h.slow_id);
  EXPECT_EQ(policy.EstimateQueueWait(), 12 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
}

TEST(BouncerEstimateCacheTest, ColdTypesCostedAtGeneralMean) {
  PolicyHarness h(Slo{18 * kMillisecond, 50 * kMillisecond, 0},
                  /*parallelism=*/1);
  BouncerPolicy::Options options = TestOptions();
  options.warmup_min_samples = 10;
  BouncerPolicy policy(h.context, options);
  Train(policy, h.fast_id, 10 * kMillisecond, 100);
  // "slow" is cold: its queued query contributes the general mean (10ms).
  HookEnqueue(h, policy, h.slow_id);
  EXPECT_EQ(policy.EstimateQueueWait(), 10 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
  // Warm the type up; the next swap re-buckets the queued query from the
  // cold count into the warm weighted sum.
  Train(policy, h.slow_id, 30 * kMillisecond, 20);
  EXPECT_EQ(policy.EstimateQueueWait(), 30 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
}

TEST(BouncerEstimateCacheTest, PriorityLevelsMatchRescan) {
  PolicyHarness h(Slo{18 * kMillisecond, 50 * kMillisecond, 0},
                  /*parallelism=*/1);
  BouncerPolicy::Options options = TestOptions();
  options.type_priorities = {0, 0, 5};  // default/fast at 0, slow at 5.
  BouncerPolicy policy(h.context, options);
  Train(policy, h.fast_id, 4 * kMillisecond);
  Train(policy, h.slow_id, 20 * kMillisecond);
  HookEnqueue(h, policy, h.slow_id);
  HookEnqueue(h, policy, h.slow_id);
  HookEnqueue(h, policy, h.fast_id);
  // Fast (prio 0) ignores the lower-priority slow work.
  EXPECT_EQ(policy.EstimateQueueWait(h.fast_id), 4 * kMillisecond);
  // Slow (prio 5) waits behind everything: 2x20 + 1x4.
  EXPECT_EQ(policy.EstimateQueueWait(h.slow_id), 44 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(h.fast_id),
            policy.EstimateQueueWaitSlow(h.fast_id));
  EXPECT_EQ(policy.EstimateQueueWait(h.slow_id),
            policy.EstimateQueueWaitSlow(h.slow_id));
}

TEST(BouncerEstimateCacheTest, SheddedQueryRollsBackContribution) {
  PolicyHarness h(Slo{18 * kMillisecond, 50 * kMillisecond, 0},
                  /*parallelism=*/1);
  BouncerPolicy policy(h.context, TestOptions());
  Train(policy, h.fast_id, 10 * kMillisecond);
  HookEnqueue(h, policy, h.fast_id);
  HookEnqueue(h, policy, h.fast_id);
  EXPECT_EQ(policy.EstimateQueueWait(), 20 * kMillisecond);
  // The stage sheds one of them: OnShedded mirrors the queue rollback.
  h.queue->OnDequeued(h.fast_id);
  policy.OnShedded(h.fast_id, 0);
  EXPECT_EQ(policy.EstimateQueueWait(), 10 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
}

TEST(BouncerEstimateCacheTest, OutOfBandQueueMutationFallsBackExactly) {
  PolicyHarness h(Slo{18 * kMillisecond, 50 * kMillisecond, 0},
                  /*parallelism=*/2);
  // Tracked and live occupancy disagree here, which the fast path must
  // detect.
  BouncerPolicy policy(h.context, TestOptions());
  Train(policy, h.fast_id, 4 * kMillisecond);
  Train(policy, h.slow_id, 20 * kMillisecond);
  // Mutate the queue without telling the policy, as tests and external
  // runtimes do. The estimate must still be the exact Eq. 2 value.
  h.queue->OnEnqueued(h.fast_id);
  h.queue->OnEnqueued(h.slow_id);
  h.queue->OnEnqueued(h.slow_id);
  EXPECT_EQ(policy.EstimateQueueWait(), 22 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
  // A swap rebuild re-syncs the aggregates to the live queue; the fast
  // path takes over and must agree.
  policy.ForceHistogramSwap();
  EXPECT_EQ(policy.EstimateQueueWait(), 22 * kMillisecond);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
}

// Hook-driven churn from several threads, concurrent with swaps: after
// the dust settles and a rebuild runs, the fast estimate must equal the
// rescan again (the aggregate self-heals; it never wedges).
TEST(BouncerEstimateCacheTest, ConcurrentChurnSelfHeals) {
  PolicyHarness h(Slo{kSecond, kSecond, 0}, /*parallelism=*/4);
  BouncerPolicy::Options options;
  options.histogram_swap_interval = kSecond;
  BouncerPolicy policy(h.context, options);
  Train(policy, h.fast_id, 2 * kMillisecond);
  Train(policy, h.slow_id, 8 * kMillisecond);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const QueryTypeId type = (t % 2 == 0) ? h.fast_id : h.slow_id;
      for (int i = 0; i < 20'000; ++i) {
        h.queue->OnEnqueued(type);
        policy.OnEnqueued(type, 0);
        if (i % 1000 == 0) policy.ForceHistogramSwap();
        h.queue->OnDequeued(type);
        policy.OnDequeued(type, 0, 0);
      }
    });
  }
  std::thread reader([&] {
    for (int i = 0; i < 50'000; ++i) {
      // Must never crash or return garbage below zero.
      ASSERT_GE(policy.EstimateQueueWait(), 0);
    }
  });
  for (auto& t : threads) t.join();
  reader.join();

  policy.ForceHistogramSwap();  // Rebuild from the (now empty) queue.
  EXPECT_EQ(policy.EstimateQueueWait(), 0);
  EXPECT_EQ(policy.EstimateQueueWait(), policy.EstimateQueueWaitSlow());
}

}  // namespace
}  // namespace bouncer
