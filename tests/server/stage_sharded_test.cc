// Shared-nothing execution-core tests: run-queue shard resolution, the
// SubmitBatch ordering contract under stealing, starvation (idle workers
// must steal a hot ring dry), shed accounting when the preferred ring
// fills, and a TSan-targeted stress where broker-like threads
// TryRunOne-steal from a sharded stage mid-submit.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/server/stage.h"

namespace bouncer::server {
namespace {

const Slo kSlo{18 * kMillisecond, 50 * kMillisecond, 0};

/// A stage whose handler appends each item's id to a shared log (and
/// optionally spins), plus per-outcome tallies.
struct ShardedFixture {
  explicit ShardedFixture(const Stage::Options& stage_options,
                          Nanos busy = 0)
      : registry(kSlo), busy_ns(busy) {
    type_id = *registry.Register("t", kSlo);
    PolicyConfig config;
    config.kind = PolicyKind::kAlwaysAccept;
    stage = std::make_unique<Stage>(
        stage_options, &registry, SystemClock::Global(),
        [&config](const PolicyContext& context) {
          return CreatePolicy(config, context);
        },
        [this](WorkItem& item) {
          {
            std::lock_guard<std::mutex> lock(mu);
            handled_ids.push_back(item.id);
            handler_threads.insert(std::this_thread::get_id());
          }
          if (busy_ns > 0) {
            const auto until = std::chrono::steady_clock::now() +
                               std::chrono::nanoseconds(busy_ns);
            while (std::chrono::steady_clock::now() < until) {
            }
          }
        });
  }

  std::vector<WorkItem> MakeBatch(uint64_t first_id, size_t count) {
    std::vector<WorkItem> items;
    items.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      WorkItem item;
      item.type = type_id;
      item.id = first_id + i;
      item.on_complete = [this](const WorkItem&, Outcome outcome) {
        switch (outcome) {
          case Outcome::kCompleted:
            completed.fetch_add(1);
            break;
          case Outcome::kRejected:
            rejected.fetch_add(1);
            break;
          case Outcome::kExpired:
            expired.fetch_add(1);
            break;
          case Outcome::kShedded:
            shedded.fetch_add(1);
            break;
        }
        done_count.fetch_add(1);
      };
      items.push_back(std::move(item));
    }
    return items;
  }

  void WaitForDone(int target, int timeout_ms = 10'000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (done_count.load() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  QueryTypeRegistry registry;
  QueryTypeId type_id = 0;
  std::unique_ptr<Stage> stage;
  Nanos busy_ns = 0;

  std::mutex mu;
  std::vector<uint64_t> handled_ids;
  std::set<std::thread::id> handler_threads;
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::atomic<int> expired{0};
  std::atomic<int> shedded{0};
  std::atomic<int> done_count{0};
};

TEST(StageShardedTest, DefaultsToOneRunQueuePerWorker) {
  Stage::Options options;
  options.num_workers = 3;
  ShardedFixture f(options);
  EXPECT_EQ(f.stage->num_run_queues(), 3u);
  EXPECT_EQ(f.stage->queue_state().num_stripes(), 3u);
}

TEST(StageShardedTest, ForceSingleQueueCollapsesToOneRing) {
  Stage::Options options;
  options.num_workers = 4;
  options.num_run_queues = 1;
  ShardedFixture f(options);
  EXPECT_EQ(f.stage->num_run_queues(), 1u);
  EXPECT_EQ(f.stage->queue_state().num_stripes(), 1u);
}

TEST(StageShardedTest, ExplicitRunQueueCountIsCapped) {
  Stage::Options options;
  options.num_workers = 2;
  options.num_run_queues = 100;
  options.queue_capacity = 256;
  ShardedFixture f(options);
  EXPECT_EQ(f.stage->num_run_queues(), 64u);
}

// The SubmitBatch ordering contract under stealing: each batch is one
// contiguous block of one ring, blocks on the same ring never
// interleave, and per-batch order survives TryRunOne steals. The stage
// is never started, so the test thread is the only consumer and drains
// everything through the steal protocol.
TEST(StageShardedTest, BatchContiguityUnderSteal) {
  Stage::Options options;
  options.num_workers = 1;
  options.num_run_queues = 2;
  options.queue_capacity = 1024;
  ShardedFixture f(options);
  ASSERT_EQ(f.stage->num_run_queues(), 2u);

  std::vector<WorkItem> batch_a = f.MakeBatch(100, 10);
  std::vector<WorkItem> batch_b = f.MakeBatch(200, 10);
  std::vector<WorkItem> batch_c = f.MakeBatch(300, 10);
  // A and B target ring 0 (B's block lands wholly after A's); C targets
  // ring 1 and must never split them.
  EXPECT_EQ(f.stage->SubmitBatch(batch_a, /*submitter=*/0).admitted, 10u);
  EXPECT_EQ(f.stage->SubmitBatch(batch_c, /*submitter=*/1).admitted, 10u);
  EXPECT_EQ(f.stage->SubmitBatch(batch_b, /*submitter=*/0).admitted, 10u);
  EXPECT_EQ(f.stage->RunQueueLength(0), 20u);
  EXPECT_EQ(f.stage->RunQueueLength(1), 10u);

  while (f.stage->TryRunOne()) {
  }
  EXPECT_EQ(f.completed.load(), 30);

  // Filter the handler sequence per ring: ring 0 must replay A's block
  // then B's block exactly; ring 1 must replay C in order.
  std::vector<uint64_t> ring0;
  std::vector<uint64_t> ring1;
  for (const uint64_t id : f.handled_ids) {
    (id < 300 ? ring0 : ring1).push_back(id);
  }
  std::vector<uint64_t> want0;
  for (uint64_t id = 100; id < 110; ++id) want0.push_back(id);
  for (uint64_t id = 200; id < 210; ++id) want0.push_back(id);
  std::vector<uint64_t> want1;
  for (uint64_t id = 300; id < 310; ++id) want1.push_back(id);
  EXPECT_EQ(ring0, want0);
  EXPECT_EQ(ring1, want1);
}

// One hot ring, idle workers everywhere else: every item is hinted to
// ring 0, and the other workers must steal it dry — all items complete
// and more than one worker thread runs the handler.
TEST(StageShardedTest, IdleWorkersStealHotRingDry) {
  Stage::Options options;
  options.num_workers = 4;
  options.num_run_queues = 4;
  options.queue_capacity = 4096;
  ShardedFixture f(options, /*busy=*/50 * kMicrosecond);
  ASSERT_TRUE(f.stage->Start().ok());

  constexpr int kItems = 400;
  for (int i = 0; i < kItems; i += 8) {
    std::vector<WorkItem> batch = f.MakeBatch(static_cast<uint64_t>(i), 8);
    f.stage->SubmitBatch(batch, /*submitter=*/0);
  }
  f.WaitForDone(kItems);
  f.stage->Stop();

  EXPECT_EQ(f.completed.load(), kItems);
  EXPECT_EQ(f.stage->counters().completed, static_cast<uint64_t>(kItems));
  std::lock_guard<std::mutex> lock(f.mu);
  EXPECT_GE(f.handler_threads.size(), 2u)
      << "no worker stole from the hot ring";
}

// A full preferred ring sheds the batch remainder even when other rings
// have space: spilling would break the contiguous-block guarantee.
TEST(StageShardedTest, ShedsRemainderWhenPreferredRingFull) {
  Stage::Options options;
  options.num_workers = 1;
  options.num_run_queues = 2;
  options.queue_capacity = 8;  // Per-ring capacity 4.
  ShardedFixture f(options);

  std::vector<WorkItem> batch = f.MakeBatch(0, 10);
  const Stage::BatchResult result =
      f.stage->SubmitBatch(batch, /*submitter=*/0);
  EXPECT_EQ(result.admitted, 4u);
  EXPECT_EQ(result.shedded, 6u);
  EXPECT_EQ(f.shedded.load(), 6);
  EXPECT_EQ(f.stage->RunQueueLength(0), 4u);
  EXPECT_EQ(f.stage->RunQueueLength(1), 0u);
  EXPECT_EQ(f.stage->counters().shedded, 6u);

  // The admitted FIFO prefix survives in order.
  while (f.stage->TryRunOne()) {
  }
  std::vector<uint64_t> want = {0, 1, 2, 3};
  EXPECT_EQ(f.handled_ids, want);
}

// TSan target: broker-like threads TryRunOne-steal from every ring while
// submitter threads with distinct ring hints keep pushing batches and
// the worker pool drains — every submitted item terminates exactly once.
TEST(StageShardedTest, TryRunOneStealStress) {
  Stage::Options options;
  options.num_workers = 2;
  options.num_run_queues = 4;
  options.queue_capacity = 1 << 14;
  ShardedFixture f(options);
  ASSERT_TRUE(f.stage->Start().ok());

  constexpr int kSubmitters = 4;
  constexpr int kPerSubmitter = 512;
  std::atomic<bool> stop_helpers{false};
  std::vector<std::thread> helpers;
  for (int h = 0; h < 2; ++h) {
    helpers.emplace_back([&] {
      while (!stop_helpers.load(std::memory_order_acquire)) {
        if (!f.stage->TryRunOne()) std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      for (int i = 0; i < kPerSubmitter; i += 8) {
        std::vector<WorkItem> batch = f.MakeBatch(
            (static_cast<uint64_t>(s) << 32) | static_cast<uint64_t>(i), 8);
        f.stage->SubmitBatch(batch, static_cast<uint32_t>(s));
      }
    });
  }
  for (auto& t : submitters) t.join();

  constexpr int kTotal = kSubmitters * kPerSubmitter;
  f.WaitForDone(kTotal);
  stop_helpers.store(true, std::memory_order_release);
  for (auto& t : helpers) t.join();
  f.stage->Stop();

  EXPECT_EQ(f.done_count.load(), kTotal);
  EXPECT_EQ(f.completed.load(), kTotal);
  const StageCounters counters = f.stage->counters();
  EXPECT_EQ(counters.received, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(counters.completed, static_cast<uint64_t>(kTotal));
}

// More rings than workers: the extra rings have no home worker and are
// reachable only through stealing, yet everything completes.
TEST(StageShardedTest, RingsWithoutHomeWorkerAreDrained) {
  Stage::Options options;
  options.num_workers = 1;
  options.num_run_queues = 4;
  options.queue_capacity = 1024;
  ShardedFixture f(options);
  ASSERT_TRUE(f.stage->Start().ok());

  for (uint32_t ring = 0; ring < 4; ++ring) {
    std::vector<WorkItem> batch = f.MakeBatch(ring * 100, 16);
    EXPECT_EQ(f.stage->SubmitBatch(batch, ring).admitted, 16u);
  }
  f.WaitForDone(64);
  f.stage->Stop();
  EXPECT_EQ(f.completed.load(), 64);
}

}  // namespace
}  // namespace bouncer::server
