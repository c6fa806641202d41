#ifndef BOUNCER_CORE_TENANT_FAIR_POLICY_H_
#define BOUNCER_CORE_TENANT_FAIR_POLICY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "src/core/admission_policy.h"
#include "src/core/policy_state_table.h"
#include "src/core/tenant_registry.h"
#include "src/util/mpmc_queue.h"  // kCacheLineSize
#include "src/util/rng.h"

namespace bouncer {

/// Weighted-fair admission across tenants under overload: the
/// helping-the-underserved strategy of paper §4.2 extended from query
/// types to tenants (Tempo-style weighted shares), wrapped around any
/// inner policy. Two mechanisms, both O(1) per decision:
///
///  * Helping (acceptance floor): when the inner policy rejects, compare
///    the tenant's admitted count over a sliding window against its
///    weighted fair share w_t/Σw · A (A = total admitted across active
///    tenants). A tenant running below its share gets the rejection
///    overridden with probability α·x/(1+x), x the relative shortfall —
///    the same sigmoid as HelpingUnderservedPolicy, so a fully starved
///    tenant is helped with probability at most α/2.
///  * Flood guard (occupancy ceiling): once the stage queue exceeds
///    `flood_guard_limit`, a tenant whose queued count exceeds
///    `share_slack` × its weighted share of the queue is rejected before
///    the inner policy runs — a flooding tenant saturates its own share
///    and cannot displace everyone else's. 0 disables the guard.
///
/// Cardinality design (the tentpole): per-tenant state lives in
/// cache-line-sized cells of a flat-indexed PolicyStateTable, one cell
/// per tenant. Dense per-(stripe × slot × type) windows à la
/// SlidingWindowCounter are infeasible at 100k tenants, so each cell
/// holds a 2-bucket epoch-rotated window (current + previous step;
/// readers sum both) — O(1) memory per tenant, rotation is a lazy CAS on
/// the cell's epoch, no background work. The cross-tenant aggregates
/// (Σw of active tenants, total admitted A) are refreshed periodically
/// by whichever decision crosses the refresh deadline first, under a
/// try-lock — an O(num_tenants) scan every `refresh_interval`, never on
/// the per-decision path, never blocking a second decider.
class TenantFairPolicy final : public AdmissionPolicy {
 public:
  struct Options {
    double alpha = 1.0;              ///< Helping scale α in (0, 1]; 0 = off.
    Nanos window_step = 100 * kMillisecond;  ///< Per-cell bucket width.
    Nanos refresh_interval = 100 * kMillisecond;  ///< Aggregate rescan.
    /// Stage queue length at which the flood guard engages (0 = off).
    uint64_t flood_guard_limit = 0;
    /// A tenant may occupy this multiple of its weighted queue share
    /// before the guard rejects it.
    double share_slack = 1.5;
    /// Queued items every tenant may hold regardless of share, so small
    /// shares at small queue depths never round down to a total ban.
    uint64_t min_share = 4;
    uint64_t seed = 0x5eed4ULL;      ///< RNG seed for the override draw.
  };

  /// `inner` must be non-null; `context.tenants` and `context.queue`
  /// must be set (the tenant dimension and flood guard need them).
  TenantFairPolicy(std::unique_ptr<AdmissionPolicy> inner,
                   const PolicyContext& context, const Options& options);

  Decision Decide(WorkKey key, Nanos now) override;
  /// Queue-share tracking (the cell's `queued` count) only exists for
  /// the flood guard: with the guard off these hooks skip the tenant
  /// cell entirely, sparing the enqueue/dequeue path a touch of a cache
  /// line that is cold at high cardinality and that nothing would read.
  void OnEnqueued(WorkKey key, Nanos now) override;
  void OnRejected(WorkKey key, Nanos now) override {
    inner_->OnRejected(key, now);
  }
  void OnDequeued(WorkKey key, Nanos wait_time, Nanos now) override;
  void OnCompleted(WorkKey key, Nanos processing_time, Nanos now) override {
    inner_->OnCompleted(key, processing_time, now);
  }
  /// A shed query was never served: release its queue share and retract
  /// its accept so the fair-share window measures actual service.
  void OnShedded(WorkKey key, Nanos now) override;

  Nanos EstimatedQueueWait(WorkKey key) const override {
    return inner_->EstimatedQueueWait(key);
  }

  std::string_view name() const override { return name_; }

  AdmissionPolicy* inner() { return inner_.get(); }
  const Options& options() const { return options_; }

  /// Probability of overriding a rejection for a tenant with `admitted`
  /// window count against weighted fair share `fair` (for tests).
  double OverrideProbability(double admitted, double fair) const;

  /// Observability: the tenant's current queued / window-admitted /
  /// cumulative counts (approximate under concurrency). `queued` is
  /// only maintained while the flood guard is on (see OnEnqueued).
  struct TenantSnapshot {
    int64_t queued = 0;
    int64_t window_received = 0;
    int64_t window_admitted = 0;
    int64_t total_received = 0;
    int64_t total_admitted = 0;
  };
  TenantSnapshot Snapshot(TenantId tenant) const;

 private:
  /// Per-tenant cell: exactly one cache line, so 10k tenants cost 640 KB
  /// and two tenants never share a line. The 2-bucket window: `cur_*`
  /// accumulates the step begun at `epoch`, `prev_*` holds the completed
  /// step before it; readers sum both for a window of ~2 steps.
  struct alignas(kCacheLineSize) Cell {
    std::atomic<int64_t> epoch{0};
    std::atomic<int64_t> cur_received{0};
    std::atomic<int64_t> cur_admitted{0};
    std::atomic<int64_t> prev_received{0};
    std::atomic<int64_t> prev_admitted{0};
    std::atomic<int64_t> queued{0};
    std::atomic<int64_t> total_received{0};
    std::atomic<int64_t> total_admitted{0};
  };
  static_assert(sizeof(Cell) == kCacheLineSize);

  /// Lazily rotates the cell's 2-bucket window into the step containing
  /// `now`. Losing a rotation race only miscounts a handful of events at
  /// a step boundary — the window is statistical, not an invariant.
  void RotateTo(Cell& cell, Nanos now) const;
  /// Window sums (both buckets, clamped at 0).
  static int64_t WindowReceived(const Cell& cell);
  static int64_t WindowAdmitted(const Cell& cell);
  /// O(num_tenants) rescan of Σw_active and total admitted, under a
  /// try-lock when `now` passed the refresh deadline.
  void MaybeRefreshAggregates(Nanos now);

  std::unique_ptr<AdmissionPolicy> inner_;
  const TenantRegistry* const tenants_;
  const QueueState* const queue_;
  const Options options_;
  std::string name_;

  PolicyStateTable<Cell> cells_{/*num_types=*/1};

  /// Cached cross-tenant aggregates (see MaybeRefreshAggregates).
  std::atomic<double> active_weight_;
  std::atomic<double> window_admitted_total_{0.0};
  std::atomic<Nanos> next_refresh_{0};
  std::mutex refresh_mu_;

  std::mutex rng_mu_;
  Rng rng_;
};

}  // namespace bouncer

#endif  // BOUNCER_CORE_TENANT_FAIR_POLICY_H_
