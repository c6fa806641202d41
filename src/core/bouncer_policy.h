#ifndef BOUNCER_CORE_BOUNCER_POLICY_H_
#define BOUNCER_CORE_BOUNCER_POLICY_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/core/admission_policy.h"
#include "src/stats/dual_histogram.h"
#include "src/util/mpmc_queue.h"
#include "src/util/status.h"

namespace bouncer {

/// Which percentile estimates participate in the accept/reject expression
/// (paper Alg. 1 uses p50 OR p90; §7 lists alternative formulations as
/// future work — implemented here for the ablation benches).
enum class DecisionExpr : uint8_t {
  kP50OrP90 = 0,  ///< Reject if ert_p50 > SLO_p50 || ert_p90 > SLO_p90.
  kP50Only = 1,   ///< Reject if ert_p50 > SLO_p50.
  kP90Only = 2,   ///< Reject if ert_p90 > SLO_p90.
  kP50OrP90OrP99 = 3,  ///< Additionally reject if ert_p99 > SLO_p99 (when set).
};

/// How Bouncer decides for a query type whose histogram is not yet
/// sufficiently populated (paper Appendix A).
enum class ColdStartMode : uint8_t {
  /// Fall back to the general (type-agnostic) histogram and the default
  /// type's SLO — the paper's preferred in-policy solution.
  kGeneralHistogram = 0,
  /// Accept unconditionally until the type warms up (maximally lenient).
  kAcceptAll = 1,
  /// No special handling: an empty histogram reads as zero processing
  /// time, which under-estimates and over-admits (basic formulation).
  kNone = 2,
};

/// The Bouncer admission-control policy (paper §3).
///
/// For every incoming query it estimates the mean queue wait time from the
/// live per-type queue counts and per-type mean processing times (Eq. 2),
/// adds the type's p50/p90 processing-time percentiles to form percentile
/// response-time estimates (Eq. 3–4), and rejects the query when an
/// estimate exceeds the type's SLO (Alg. 1). Processing-time distributions
/// are approximated with per-type dual-buffer histograms swapped
/// periodically (footnote 4); a general catch-all histogram backs cold
/// starts (Appendix A).
class BouncerPolicy : public AdmissionPolicy {
 public:
  struct Options {
    /// Dual-buffer histogram swap interval.
    Nanos histogram_swap_interval = kSecond;
    /// A populated buffer with fewer samples than this retains the
    /// previous summary at swap (stale-over-empty, Appendix A).
    uint64_t min_samples_to_publish = 1;
    /// A type whose published summary holds fewer samples than this is
    /// treated as cold (Appendix A warm-up phase).
    uint64_t warmup_min_samples = 1;
    ColdStartMode cold_start_mode = ColdStartMode::kGeneralHistogram;
    DecisionExpr decision_expr = DecisionExpr::kP50OrP90;
    /// Priority-aware wait estimation (paper §7 future work: supporting
    /// queries served by priority instead of FIFO). When non-empty,
    /// entry t is the priority of QueryTypeId t (lower = served first)
    /// and Eq. 2 only counts queued queries that would be served before
    /// an incoming query of the estimated type — those with strictly
    /// smaller priority, plus those at equal priority (FIFO within a
    /// level). Missing entries default to priority 0. Leave empty for
    /// the paper's FIFO formulation.
    std::vector<int> type_priorities;
  };

  /// The percentile response-time estimates behind one decision, exposed
  /// for observability (paper Fig. 3 plots these).
  struct Estimates {
    Nanos ewt_mean = 0;  ///< Estimated mean queue wait time (Eq. 2).
    Nanos ert_p50 = 0;   ///< Estimated p50 response time (Eq. 3).
    Nanos ert_p90 = 0;   ///< Estimated p90 response time (Eq. 4).
    Nanos ert_p99 = 0;   ///< Only meaningful under kP50OrP90OrP99.
    bool cold = false;   ///< True if decided via the cold-start path.
  };

  /// `context.registry`, `context.queue` and `context.parallelism` must be
  /// valid; the registry's type count fixes the histogram table size.
  BouncerPolicy(const PolicyContext& context, const Options& options);

  Decision Decide(WorkKey key, Nanos now) override;
  void OnCompleted(WorkKey key, Nanos processing_time,
                   Nanos now) override;
  /// Maintains the incremental Eq. 2 aggregate: adds the type's cached
  /// mean (or a cold count) to its priority level's running sum.
  void OnEnqueued(WorkKey key, Nanos now) override;
  /// Removes the type's contribution from the running aggregate.
  void OnDequeued(WorkKey key, Nanos wait_time, Nanos now) override;
  /// An admitted query never reached processing: rolls back the
  /// OnEnqueued() contribution, same as a dequeue.
  void OnShedded(WorkKey key, Nanos now) override;

  std::string_view name() const override { return "Bouncer"; }

  /// Exposes the live Eq. 2 estimate for observability stamping.
  Nanos EstimatedQueueWait(WorkKey key) const override {
    return EstimateQueueWait(key.type);
  }

  /// Computes the estimates Decide() would use for `type` at `now`,
  /// without making a decision or touching histogram swap state.
  Estimates EstimateFor(QueryTypeId type, Nanos now) const;

  /// Estimated mean queue wait time (Eq. 2). Under FIFO (no priorities
  /// configured) every queued query counts; with priorities configured,
  /// only work scheduled ahead of a query of `type` counts.
  ///
  /// O(1) hot path: reads the per-priority-level aggregates maintained by
  /// the enqueue/dequeue/shed hooks plus the cached general mean. When
  /// the hook-tracked occupancy disagrees with the live QueueState (the
  /// runtime mutated the queue without calling the hooks, or a rebuild
  /// raced), it falls back to EstimateQueueWaitSlow() — so the result is
  /// always the Eq. 2 value, only the cost varies.
  Nanos EstimateQueueWait(QueryTypeId type = kDefaultQueryType) const;

  /// Reference O(num_types) Eq. 2 implementation: rescans every per-type
  /// histogram summary and queue count. This is the pre-optimization
  /// decision path, kept as the fallback for out-of-band queue mutation
  /// and as the cross-check oracle for the incremental aggregate.
  Nanos EstimateQueueWaitSlow(QueryTypeId type = kDefaultQueryType) const;

  /// Published processing-time summary for a type (for observability).
  stats::HistogramSummary TypeSummary(QueryTypeId type) const;

  /// Published summary of the general (catch-all, type-agnostic)
  /// histogram.
  stats::HistogramSummary GeneralSummary() const;

  /// Force-swaps all histograms so freshly recorded samples become
  /// immediately visible. Used by tests and simulation warm-up.
  void ForceHistogramSwap();

  const Options& options() const { return options_; }

 private:
  /// Incremental Eq. 2 state, per (priority level, writer stripe): the
  /// weighted sum over warm types of count(t)·pt_mean(t), plus the number
  /// of queued queries of cold types (costed at the general mean at read
  /// time, so a general-histogram refresh never requires touching the
  /// aggregates). With `stripes_` > 1 each hook thread updates only its
  /// own cache-line-padded stripe (StripeOf) and reads sum across
  /// stripes; the enqueue and dequeue of one query can land on different
  /// stripes, so per-stripe values go negative and only sums mean
  /// anything.
  struct alignas(kCacheLineSize) LevelAggregate {
    std::atomic<int64_t> warm_weighted_sum{0};
    std::atomic<int64_t> cold_count{0};
  };
  /// One padded per-stripe cell of the hook-tracked occupancy.
  struct alignas(kCacheLineSize) TrackedCount {
    std::atomic<int64_t> value{0};
  };
  /// Snapshot of one type's published summary, refreshed at swap time so
  /// the enqueue/dequeue hooks never touch the histograms.
  struct TypeCache {
    std::atomic<Nanos> mean{0};
    std::atomic<bool> warm{false};
  };

  Decision DecideWithEstimates(QueryTypeId type, Nanos now, Estimates* out);
  void MaybeSwapAll(Nanos now);
  /// Applies one enqueue (+1) or dequeue (-1) of `type` to the aggregate.
  void ApplyQueueDelta(QueryTypeId type, int64_t sign);
  /// Recomputes the mean cache and all level aggregates from the live
  /// QueueState and freshly published summaries. Called at every swap
  /// (under swap_mu_), which also heals any drift racing hooks caused.
  void RebuildAggregates();

  /// Sum of the hook-tracked occupancy stripes (the drift detector).
  int64_t TrackedTotal() const;

  const QueryTypeRegistry* const registry_;
  const QueueState* const queue_;
  const size_t parallelism_;
  const size_t stripes_;  ///< Writer-affinity stripes of the aggregates.
  const Options options_;

  /// One dual histogram per registered type (index = QueryTypeId).
  std::vector<std::unique_ptr<stats::DualHistogram>> type_histograms_;
  /// Type-agnostic histogram of all processing times (Appendix A).
  stats::DualHistogram general_histogram_;

  /// Distinct priority values, ascending; a single level under FIFO.
  std::vector<int> sorted_levels_;
  /// QueryTypeId -> index into sorted_levels_. A query of type T waits
  /// behind levels 0..level_of_type_[T] inclusive.
  std::vector<size_t> level_of_type_;
  /// sorted_levels_.size() × stripes_, indexed level·stripes_ + stripe.
  std::unique_ptr<LevelAggregate[]> level_aggs_;
  std::unique_ptr<TypeCache[]> type_cache_;
  /// Cached mean of the general histogram's published summary.
  std::atomic<Nanos> general_mean_{0};
  /// Queue occupancy as seen through the hooks, one padded cell per
  /// stripe; the cross-stripe sum is compared against
  /// QueueState::TotalLength() to detect out-of-band queue mutation.
  std::unique_ptr<TrackedCount[]> tracked_total_;
  /// Serializes buffer swaps + aggregate rebuilds (cold path).
  std::mutex swap_mu_;
};

}  // namespace bouncer

#endif  // BOUNCER_CORE_BOUNCER_POLICY_H_
