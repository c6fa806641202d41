#include "src/core/tenant_fair_policy.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/tenant_registry.h"
#include "tests/core/test_helpers.h"

namespace bouncer {
namespace {

class StubPolicy : public AdmissionPolicy {
 public:
  Decision Decide(WorkKey, Nanos) override {
    decide_calls.fetch_add(1, std::memory_order_relaxed);
    return accept ? Decision::kAccept : Decision::kReject;
  }
  std::string_view name() const override { return "Stub"; }

  bool accept = true;
  std::atomic<int> decide_calls{0};
};

struct Fixture {
  explicit Fixture(TenantFairPolicy::Options options = {},
                   size_t num_tenants = 4) {
    for (uint64_t e = 1; e < num_tenants; ++e) {
      EXPECT_TRUE(tenants.Register(e, 1.0).ok());
    }
    harness.context.tenants = &tenants;
    auto stub_ptr = std::make_unique<StubPolicy>();
    stub = stub_ptr.get();
    policy = std::make_unique<TenantFairPolicy>(std::move(stub_ptr),
                                                harness.context, options);
  }

  testing::PolicyHarness harness;
  TenantRegistry tenants;
  StubPolicy* stub = nullptr;
  std::unique_ptr<TenantFairPolicy> policy;
};

WorkKey Key(TenantId tenant) { return WorkKey{1, tenant}; }

TEST(TenantFairPolicyTest, InnerAcceptPassesThrough) {
  Fixture f;
  for (TenantId t = 0; t < 4; ++t) {
    EXPECT_EQ(f.policy->Decide(Key(t), kMillisecond), Decision::kAccept);
  }
  EXPECT_EQ(f.stub->decide_calls, 4);
  EXPECT_EQ(f.policy->name(), "Stub+TenantFair");
}

TEST(TenantFairPolicyTest, OverrideProbabilityFormula) {
  Fixture f;
  // p = alpha * x / (1 + x), x the relative shortfall below fair share.
  EXPECT_DOUBLE_EQ(f.policy->OverrideProbability(0.0, 10.0), 0.5);
  EXPECT_DOUBLE_EQ(f.policy->OverrideProbability(5.0, 10.0), 0.5 / 1.5);
  EXPECT_DOUBLE_EQ(f.policy->OverrideProbability(10.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(f.policy->OverrideProbability(1.0, 0.0), 0.0);
}

TEST(TenantFairPolicyTest, StarvedTenantGetsHelped) {
  TenantFairPolicy::Options options;
  options.alpha = 1.0;
  options.window_step = kSecond;
  options.refresh_interval = kMillisecond;
  Fixture f(options);
  // Tenant 1 is served generously (inner accepts); then the inner flips
  // to rejecting and tenant 2 — with zero admitted share — arrives.
  for (int i = 0; i < 200; ++i) {
    (void)f.policy->Decide(Key(1), kMillisecond * (i + 1));
  }
  f.stub->accept = false;
  int helped = 0;
  for (int i = 0; i < 2000; ++i) {
    if (f.policy->Decide(Key(2), kMillisecond * (300 + i)) ==
        Decision::kAccept) {
      ++helped;
    }
  }
  // Fully starved tenant: override probability approaches alpha/2.
  EXPECT_GT(helped, 200);
  EXPECT_LT(helped, 1600);
}

TEST(TenantFairPolicyTest, NoHelpWhenSharesAreEven) {
  TenantFairPolicy::Options options;
  options.alpha = 1.0;
  options.window_step = kSecond;
  options.refresh_interval = kMillisecond;
  Fixture f(options);
  f.stub->accept = false;
  // Every tenant equally rejected from the start: nobody is below a fair
  // share of an all-zero admitted window, so no overrides fire.
  int accepts = 0;
  for (int i = 0; i < 1000; ++i) {
    for (TenantId t = 1; t <= 3; ++t) {
      if (f.policy->Decide(Key(t), kMillisecond * (i + 1)) ==
          Decision::kAccept) {
        ++accepts;
      }
    }
  }
  EXPECT_EQ(accepts, 0);
}

TEST(TenantFairPolicyTest, FloodGuardCapsQueueShare) {
  TenantFairPolicy::Options options;
  options.flood_guard_limit = 8;
  options.share_slack = 1.0;
  options.min_share = 2;
  options.alpha = 0.0;
  Fixture f(options);
  const Nanos now = kMillisecond;
  // Tenant 1 floods: every accept is enqueued and never dequeued.
  int accepted = 0;
  for (int i = 0; i < 64; ++i) {
    if (f.policy->Decide(Key(1), now) == Decision::kAccept) {
      f.policy->OnEnqueued(Key(1), now);
      f.harness.queue->OnEnqueued(1);
      ++accepted;
    }
  }
  // Once the queue passed the guard limit, tenant 1 was capped near its
  // weighted share of the queue, far below 64.
  EXPECT_LT(accepted, 32);
  EXPECT_GE(accepted, 8);
  // A quiet tenant still gets in (its queued count is below min_share).
  EXPECT_EQ(f.policy->Decide(Key(2), now), Decision::kAccept);
}

TEST(TenantFairPolicyTest, SheddingRetractsAcceptAndQueueShare) {
  TenantFairPolicy::Options options;
  options.window_step = kSecond;
  // Queue-share tracking only runs while the flood guard is armed.
  options.flood_guard_limit = 1000;
  Fixture f(options);
  const Nanos now = kMillisecond;
  (void)f.policy->Decide(Key(1), now);
  f.policy->OnEnqueued(Key(1), now);
  TenantFairPolicy::TenantSnapshot s = f.policy->Snapshot(1);
  EXPECT_EQ(s.queued, 1);
  EXPECT_EQ(s.window_admitted, 1);
  EXPECT_EQ(s.total_received, 1);
  f.policy->OnShedded(Key(1), now);
  s = f.policy->Snapshot(1);
  EXPECT_EQ(s.queued, 0);
  EXPECT_EQ(s.window_admitted, 0);
  EXPECT_EQ(s.total_admitted, 0);
}

TEST(TenantFairPolicyTest, QueueShareUntrackedWithGuardOff) {
  // Guard off: the enqueue/dequeue hooks skip the tenant cell — no
  // queued count accrues (and no cold cache line is touched).
  Fixture f;
  (void)f.policy->Decide(Key(1), kMillisecond);
  f.policy->OnEnqueued(Key(1), kMillisecond);
  EXPECT_EQ(f.policy->Snapshot(1).queued, 0);
  EXPECT_EQ(f.policy->Snapshot(1).window_admitted, 1);
}

TEST(TenantFairPolicyTest, SnapshotOfUntouchedTenantIsZero) {
  Fixture f;
  const TenantFairPolicy::TenantSnapshot s = f.policy->Snapshot(3);
  EXPECT_EQ(s.total_received, 0);
  EXPECT_EQ(s.queued, 0);
}

TEST(TenantFairPolicyTest, ConcurrentDecidersOnDisjointTenants) {
  // 8 threads hammering distinct tenant ranges through chunk growth:
  // per-tenant totals must be exact (no lost updates; TSan-clean).
  TenantFairPolicy::Options options;
  options.window_step = kSecond;
  Fixture f(options, /*num_tenants=*/2);
  constexpr size_t kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const TenantId tenant = static_cast<TenantId>(1 + t * 400 + i % 400);
        (void)f.policy->Decide(Key(tenant), kMillisecond * (i + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  int64_t total = 0;
  for (TenantId tenant = 0; tenant < kThreads * 400 + 1; ++tenant) {
    total += f.policy->Snapshot(tenant).total_received;
  }
  EXPECT_EQ(total, static_cast<int64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace bouncer
