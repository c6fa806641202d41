// paper_overload: in-process open loop. One generator thread draws Poisson
// departures of the QT1..QT11 mix from the seeded stream as it goes and
// submits each through Cluster::Submit from a slot of a fixed ring; the
// completion callback fills the slot, and the generator folds answered
// slots into its tally, in order, between departures. The benchmark's own
// memory is that ring, whatever the rate or the window length, so it does
// not move peak_rss_mb.

#include <sys/prctl.h>
#include <time.h>

#include <atomic>
#include <thread>

#include "perfbench/bench.h"
#include "src/stats/flight_recorder.h"

namespace perfbench {

using bouncer::graph::GraphOp;
using bouncer::graph::GraphQuery;
using bouncer::graph::GraphQueryResult;
using bouncer::server::Outcome;
using bouncer::server::WorkItem;

namespace {

/// Requests in flight at once (power of two): 7 s of departures at
/// paper_overload's rate, far longer than any request stays queued.
constexpr size_t kSlots = 1 << 15;
/// OK answers per type kept for the idle re-run.
constexpr size_t kRecheckPerOp = 8;

enum SlotState : uint32_t { kFree = 0, kInFlight, kAnswered };

struct Slot {
  GraphQuery query;
  uint64_t id = 0;
  Nanos intended = 0;
  Nanos submit_begin = 0;
  Nanos submit_end = 0;
  // Written by the completion callback before it publishes kAnswered.
  Nanos enqueued = 0;
  Nanos dequeued = 0;
  Nanos completed = 0;
  Nanos done = 0;
  uint64_t value = 0;
  uint8_t fate = kPending;
  uint8_t reason = 0;
  std::atomic<uint32_t> state{kFree};
};

/// Shared with the completion callbacks: a window that fails to drain
/// leaks it rather than free memory a late callback may still write.
struct SlotRing {
  Slot slots[kSlots];
  std::atomic<uint64_t> duplicates{0};
};

/// One OK answer kept for the idle re-run.
struct Recheck {
  GraphQuery query;
  uint64_t id = 0;
  uint64_t value = 0;
};

void SleepUntil(Nanos when) {
  timespec ts{};
  ts.tv_sec = when / kSecond;
  ts.tv_nsec = when % kSecond;
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Expected value of a degree-family answer straight from the graph;
/// false for ops it does not cover.
bool DirectAnswer(const bouncer::graph::GraphStore& graph,
                  const GraphQuery& q, uint64_t* expected) {
  switch (q.op) {
    case GraphOp::kDegree:
    case GraphOp::kDegreeByExternalId:
      *expected = graph.Degree(q.source);
      return true;
    case GraphOp::kNeighbors:
      *expected = std::min<uint64_t>(graph.Degree(q.source), 64);
      return true;
    default:
      return false;
  }
}

/// Submits `query` alone and waits for its answer; retries refusals so an
/// idle policy's cold decisions cannot fail the check. False when it never
/// came back OK.
bool AskIdle(bouncer::graph::Cluster& cluster, const GraphQuery& query,
             uint64_t* value) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::atomic<int> state{0};  // 0 pending, 1 ok, 2 not ok.
    std::atomic<uint64_t> answer{0};
    cluster.Submit(query, 0,
                   [&state, &answer](const WorkItem&, Outcome outcome,
                                     const GraphQueryResult& result) {
                     answer.store(result.value, std::memory_order_relaxed);
                     state.store(outcome == Outcome::kCompleted && result.ok
                                     ? 1
                                     : 2,
                                 std::memory_order_release);
                   });
    while (state.load(std::memory_order_acquire) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    if (state.load(std::memory_order_acquire) == 1) {
      *value = answer.load(std::memory_order_relaxed);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

/// One paced window. `spans` is set for the traced window only.
class InprocWindow {
 public:
  InprocWindow(Deployment& d, const Args& args, const WindowSpec& spec,
               SpanLog* spans)
      : d_(d),
        args_(args),
        spec_(spec),
        spans_(spans),
        reservoir_rng_(HashCombine(args.seed, 0xa5a5)) {}

  ~InprocWindow() {
    if (tail_ != head_) (void)ring_.release();
  }

  /// Paces every departure, then drains. Returns the queue-length mean
  /// sampled during the window (traced windows only).
  double Run() {
    bouncer::graph::Cluster& cluster = *d_.cluster;
    std::atomic<bool> stop_sampler{false};
    double queue_sum = 0;
    uint64_t queue_samples = 0;
    std::thread sampler;
    if (spec_.traced) {
      sampler = std::thread([&] {
        while (!stop_sampler.load(std::memory_order_relaxed)) {
          queue_sum += static_cast<double>(cluster.broker(0)->QueueLength());
          ++queue_samples;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    const Workload& w = *args_.workload;
    RequestStream stream(w, d_.graph, args_.seed, spec_.stream_base,
                         w.rate_qps);
    start_ = Now() + kMillisecond;
    Nanos offset = 0;
    for (uint64_t i = 0; offset < spec_.duration; ++i) {
      Nanos gap = 0;
      const Request r = stream.Next(&gap);
      const Nanos intended = start_ + offset;
      offset += gap;
      Retire();
      if (intended > Now()) SleepUntil(intended);
      Send(r, i, intended);
    }
    end_ = Now();
    if (sampler.joinable()) {
      stop_sampler.store(true, std::memory_order_relaxed);
      sampler.join();
    }
    const Nanos drain_deadline = Now() + 15 * kSecond;
    for (;;) {
      Retire();
      if (tail_ == head_ || Now() >= drain_deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return queue_samples == 0 ? 0
                              : queue_sum / static_cast<double>(queue_samples);
  }

  /// Moves the window's tally into `out`; requests still in flight after
  /// the drain count as unanswered.
  void Finish(WindowResult* out, Report* report) {
    const uint64_t duplicates = ring_->duplicates.load();
    if (duplicates != 0) {
      report->Error(Count(duplicates) +
                    " completion callbacks ran more than once");
    }
    tally_.fates[kPending] += head_ - tail_;
    out->tally = std::move(tally_);
    out->seconds = bouncer::ToSeconds(spec_.duration);
    out->offered_qps =
        static_cast<double>(out->tally.sent) /
        bouncer::ToSeconds(std::max<Nanos>(end_ - start_, 1));
  }

  /// Re-runs the seeded sample of OK answers of every type, one at a time,
  /// on the now idle cluster; each must match the answer given under load.
  void RecheckSample(Report* report) const {
    size_t checked = 0;
    for (const auto& op_picks : picks_) {
      for (const Recheck& pick : op_picks) {
        uint64_t idle = 0;
        if (!AskIdle(*d_.cluster, pick.query, &idle)) {
          report->Error("idle re-run of request " + Count(pick.id) +
                        " never came back OK");
          continue;
        }
        ++checked;
        if (idle != pick.value) {
          report->Error("request " + Count(pick.id) + " (QT" +
                        Count(static_cast<size_t>(pick.query.op) + 1) +
                        ") answered " + Count(pick.value) + " under load, " +
                        Count(idle) + " idle");
        }
      }
    }
    report->notes.push_back("idle re-run matched " + Count(checked) +
                            " sampled OK answers across all types");
  }

 private:
  uint64_t Id(uint64_t i) const { return (spec_.stream_base << 40) | (i + 1); }

  /// Submits request `index` from a free slot; with every slot in flight
  /// the request is dropped.
  void Send(const Request& r, uint64_t index, Nanos intended) {
    const Nanos now = Now();
    ++tally_.sent;
    tally_.send_lag.Record(now - intended);
    if (head_ - tail_ == kSlots) {
      ++tally_.fates[kDropped];
      return;
    }
    Slot* slot = &ring_->slots[head_++ & (kSlots - 1)];
    slot->query.op = static_cast<GraphOp>(r.op);
    slot->query.source = r.source;
    slot->query.target = r.target;
    slot->query.external_id = r.external_id;
    slot->id = Id(index);
    slot->intended = intended;
    slot->submit_begin = now;
    slot->state.store(kInFlight, std::memory_order_relaxed);
    SlotRing* ring = ring_.get();
    d_.cluster->Submit(
        slot->query, 0,
        [slot, ring](const WorkItem& w, Outcome outcome,
                     const GraphQueryResult& result) {
          slot->enqueued = w.enqueued;
          slot->dequeued = w.dequeued;
          slot->completed = w.completed;
          slot->value = result.value;
          switch (outcome) {
            case Outcome::kCompleted:
              slot->fate = result.ok ? kOk : kFailed;
              slot->reason = result.ok ? 0 : result.fail_reason;
              break;
            case Outcome::kRejected:
              slot->fate = kRejected;
              slot->reason = static_cast<uint8_t>(w.reject_reason);
              break;
            case Outcome::kShedded:
              slot->fate = kShed;
              slot->reason = static_cast<uint8_t>(w.reject_reason);
              break;
            case Outcome::kExpired:
              slot->fate = kExpired;
              slot->reason = static_cast<uint8_t>(w.reject_reason);
              break;
          }
          slot->done = Now();
          if (slot->state.exchange(kAnswered, std::memory_order_acq_rel) !=
              kInFlight) {
            ring->duplicates.fetch_add(1, std::memory_order_relaxed);
          }
        },
        slot->id);
    if (spec_.traced) slot->submit_end = Now();
  }

  /// Folds answered slots into the tally in departure order and frees
  /// them; stops at the first request still in flight.
  void Retire() {
    while (tail_ != head_) {
      Slot& slot = ring_->slots[tail_ & (kSlots - 1)];
      if (slot.state.load(std::memory_order_acquire) != kAnswered) return;
      Fold(slot);
      slot.state.store(kFree, std::memory_order_relaxed);
      ++tail_;
    }
  }

  void Fold(const Slot& s) {
    Tally& t = tally_;
    if (s.fate != kOk) {
      ++t.fates[s.fate];
      ++t.reasons[s.reason < t.reasons.size() ? s.reason : 0];
    } else {
      t.RecordOk(s.done - s.intended, static_cast<size_t>(s.query.op));
      uint64_t expected = 0;
      if (DirectAnswer(d_.graph, s.query, &expected)) {
        ++t.answers_checked;
        if (s.value != expected) ++t.answer_mismatches;
      }
      KeepForRecheck(s);
    }
    if (!spec_.traced) return;
    t.admit_call.Record(s.submit_end - s.submit_begin);
    const bool admitted = s.enqueued != 0 && s.dequeued != 0;
    if (admitted) t.queue_wait.Record(s.dequeued - s.enqueued);
    if (admitted && s.completed != 0) t.exec.Record(s.completed - s.dequeued);
    std::vector<Span>& spans = request_spans_;
    spans.clear();
    spans.push_back({s.id, "request", s.intended, s.done, nullptr});
    spans.push_back(
        {s.id, "gen.dispatch", s.intended, s.submit_end, "request"});
    spans.push_back(
        {s.id, "core.submit", s.submit_begin, s.submit_end, "gen.dispatch"});
    if (admitted) {
      spans.push_back({s.id, "server.broker.queue_wait", s.enqueued,
                       s.dequeued, "request"});
      if (s.completed != 0) {
        spans.push_back(
            {s.id, "graph.exec", s.dequeued, s.completed, "request"});
        spans.push_back(
            {s.id, "gen.complete", s.completed, s.done, "request"});
      }
    }
    spans_->AddRequest(
        spans, bouncer::stats::FlightRecorder::Global().ShouldSample(s.id));
  }

  /// Reservoir sampling of OK answers, per type.
  void KeepForRecheck(const Slot& s) {
    const size_t op = static_cast<size_t>(s.query.op);
    const uint64_t seen = ++ok_seen_[op];
    std::vector<Recheck>& picks = picks_[op];
    const Recheck pick{s.query, s.id, s.value};
    if (picks.size() < kRecheckPerOp) {
      picks.push_back(pick);
      return;
    }
    const uint64_t slot = reservoir_rng_.Next() % seen;
    if (slot < kRecheckPerOp) picks[slot] = pick;
  }

  Deployment& d_;
  const Args& args_;
  WindowSpec spec_;
  SpanLog* spans_;
  std::unique_ptr<SlotRing> ring_ = std::make_unique<SlotRing>();
  uint64_t head_ = 0;  ///< Slots taken.
  uint64_t tail_ = 0;  ///< Slots folded and freed.
  Tally tally_;
  std::vector<Span> request_spans_;
  StreamRng reservoir_rng_;
  std::array<uint64_t, bouncer::graph::kNumGraphOps> ok_seen_{};
  std::array<std::vector<Recheck>, bouncer::graph::kNumGraphOps> picks_;
  Nanos start_ = 0;
  Nanos end_ = 0;
};

}  // namespace

WindowResult RunInproc(const Args& args, Deployment& d, Report* report) {
  const Workload& w = *args.workload;
  bouncer::graph::Cluster& cluster = *d.cluster;
  {
    InprocWindow warmup(d, args, WindowSpec{w.warmup, 100, false}, nullptr);
    warmup.Run();
  }

  const auto measure = [&](bool traced, SpanLog* spans, double* queue_mean) {
    WindowResult result;
    const auto broker_before = cluster.broker(0)->counters();
    const uint64_t failures_before = cluster.shard_failures();
    InprocWindow window(
        d, args,
        WindowSpec{traced ? TracedWindow(args) : UntracedWindow(args), 0,
                   traced},
        spans);
    *queue_mean = window.Run();
    const auto broker_after = cluster.broker(0)->counters();
    result.broker_delta = StageDelta(broker_before, broker_after);
    result.shard_failures = cluster.shard_failures() - failures_before;
    window.Finish(&result, report);
    CheckAccounting(result, report);
    CountFailures(result, report);
    if (!traced) window.RecheckSample(report);
    return result;
  };

  double queue_mean = 0;
  WindowResult untraced = measure(false, nullptr, &queue_mean);
  if (!args.trace) return untraced;

  SpanLog spans;
  BeginTracedWindow(d);
  const Usage before = ReadUsage();
  WindowResult traced = measure(true, &spans, &queue_mean);
  const Usage after = ReadUsage();
  EndTracedWindow(d);

  Tally& t = traced.tally;
  AddCommonLayers(traced,
                  static_cast<double>(untraced.tally.ok_in_limit) /
                      untraced.seconds,
                  after.cpu_s - before.cpu_s, after.ctx - before.ctx,
                  after.minflt - before.minflt, report);
  AddDeploymentLayers(d, traced, report);
  AddAbsentNetLayers("no network on this workload", report);
  report->Layer("server.broker.queue_wait_ms_p50",
                t.queue_wait.Quantile(0.50) / 1e6, "ms",
                Count(t.queue_wait.count()) + " admitted requests");
  report->Layer("server.broker.queue_wait_ms_p99",
                t.queue_wait.Quantile(0.99) / 1e6, "ms",
                Count(t.queue_wait.count()) + " admitted requests");
  report->Layer("server.broker.queue_len_mean", queue_mean, "count",
                "QueueLength() sampled every 1 ms");
  report->Layer("core.admit_call_us_p50", t.admit_call.Quantile(0.50) / 1e3,
                "us", Count(t.admit_call.count()) + " Cluster::Submit calls");
  report->Layer("core.admit_call_us_p99", t.admit_call.Quantile(0.99) / 1e3,
                "us", Count(t.admit_call.count()) + " Cluster::Submit calls");
  report->Layer("graph.exec_ms_p50", t.exec.Quantile(0.50) / 1e6, "ms",
                Count(t.exec.count()) + " executed queries");
  report->Layer("graph.exec_ms_p99", t.exec.Quantile(0.99) / 1e6, "ms",
                Count(t.exec.count()) + " executed queries");
  report->Layer("core.hot_tenant_ok_share", 1.0, "ratio",
                "single tenant: the default tenant is the hottest");
  FinishSpans(args, spans, report);
  return untraced;
}

}  // namespace perfbench
