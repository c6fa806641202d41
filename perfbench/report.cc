// Percentiles, outcome accounting, the end-to-end metrics, the per-layer
// metrics both runners share, and the host record.

#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {

void Hist::Record(Nanos value) {
  uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  v = std::min<uint64_t>(v, (uint64_t{1} << kMaxBits) - 1);
  size_t index = static_cast<size_t>(v);
  if (v >= (uint64_t{1} << kSubBits)) {
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    index = (static_cast<size_t>(shift + 1) << kSubBits) |
            static_cast<size_t>((v >> shift) & ((1u << kSubBits) - 1));
  }
  ++buckets_[index];
  ++count_;
}

void Hist::Merge(const Hist& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Hist::Quantile(double q) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(
      std::ceil(q * static_cast<double>(count_)), 1.0,
      static_cast<double>(count_));
  uint64_t below = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t n = buckets_[i];
    if (n == 0 || static_cast<double>(below + n) < rank) {
      below += n;
      continue;
    }
    const size_t octave = i >> kSubBits;
    const size_t sub = i & ((size_t{1} << kSubBits) - 1);
    const double lower =
        octave == 0 ? static_cast<double>(sub)
                    : std::ldexp(static_cast<double>((size_t{1} << kSubBits) +
                                                     sub),
                                 static_cast<int>(octave) - 1);
    const double width =
        octave == 0 ? 1.0 : std::ldexp(1.0, static_cast<int>(octave) - 1);
    const double within =
        (rank - static_cast<double>(below) - 0.5) / static_cast<double>(n);
    return lower + width * within;
  }
  return 0;
}

void Tally::RecordOk(Nanos latency, size_t op) {
  ++fates[kOk];
  ok_latency.Record(latency);
  ok_latency_by_op[op].Record(latency);
  if (latency <= kLatencyLimit) ++ok_in_limit;
}

void Tally::Merge(const Tally& other) {
  sent += other.sent;
  for (size_t i = 0; i < fates.size(); ++i) fates[i] += other.fates[i];
  transport_failures += other.transport_failures;
  bad_responses += other.bad_responses;
  for (size_t i = 0; i < reasons.size(); ++i) reasons[i] += other.reasons[i];
  ok_in_limit += other.ok_in_limit;
  answers_checked += other.answers_checked;
  answer_mismatches += other.answer_mismatches;
  ok_latency.Merge(other.ok_latency);
  for (size_t i = 0; i < ok_latency_by_op.size(); ++i) {
    ok_latency_by_op[i].Merge(other.ok_latency_by_op[i]);
  }
  send_lag.Merge(other.send_lag);
  admit_call.Merge(other.admit_call);
  queue_wait.Merge(other.queue_wait);
  exec.Merge(other.exec);
}

Nanos UntracedWindow(const Args& args) {
  const Nanos total = args.seconds * kSecond;
  return args.trace ? total / 2 : total;
}

Nanos TracedWindow(const Args& args) {
  return args.seconds * kSecond - UntracedWindow(args);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Count(uint64_t v) { return std::to_string(v); }

namespace {

double Ms(Nanos ns) { return bouncer::ToMillis(ns); }

}  // namespace

void AddEndToEnd(const WindowResult& w, double setup_s, double peak_rss_mb,
                 Report* report) {
  const Tally& t = w.tally;
  const uint64_t ok = t.fates[kOk];
  // Whole-window figures, not medians of sub-windows: the host's CPU speed
  // drifts between levels every few seconds, and a mean or a pooled
  // percentile moves smoothly with the mix of levels where a median of
  // sub-windows jumps between them.
  auto& e2e = report->end_to_end;
  e2e.push_back({"goodput_qps",
                 static_cast<double>(t.ok_in_limit) / w.seconds, "1/s",
                 Count(t.ok_in_limit) + " OK within 50 ms over " +
                     Num(w.seconds) + " s"});
  e2e.push_back({"ok_share",
                 t.sent == 0 ? 0 : static_cast<double>(ok) /
                                       static_cast<double>(t.sent),
                 "ratio", Count(ok) + " OK of " + Count(t.sent) + " sent"});
  e2e.push_back({"latency_p50_ms", t.ok_latency.Quantile(0.50) / 1e6, "ms",
                 Count(ok) + " OK responses"});
  e2e.push_back({"latency_p90_ms", t.ok_latency.Quantile(0.90) / 1e6, "ms",
                 Count(ok) + " OK responses"});
  // Printed, not bounded: on the TCP path the p99 follows how often the
  // host preempts a vCPU, so it spreads between runs wider than any bound.
  report->notes.push_back("latency_p99_ms " +
                          Num(t.ok_latency.Quantile(0.99) / 1e6) + " ms (" +
                          Count(ok) + " OK responses)");
  e2e.push_back({"setup_s", setup_s, "s",
                 "median of " + std::to_string(kSetups) + " set-ups"});
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB",
                 "VmHWM once the measured deployment is torn down"});
  report->notes.push_back(
      "reject_share " +
      Num(t.sent == 0 ? 0
                      : 1.0 - static_cast<double>(ok) /
                                  static_cast<double>(t.sent)) +
      " (" + Count(t.sent - ok) + " of " + Count(t.sent) +
      " sent not OK: rejected " + Count(t.fates[kRejected]) + ", shed " +
      Count(t.fates[kShed]) + ", expired " + Count(t.fates[kExpired]) +
      ", failed " + Count(t.fates[kFailed]) + ", dropped " +
      Count(t.fates[kDropped]) + ", unanswered " + Count(t.unanswered()) +
      ")");
}

void CheckAccounting(const WindowResult& w, Report* report) {
  const Tally& t = w.tally;
  uint64_t sum = 0;
  for (uint64_t f : t.fates) sum += f;
  if (sum != t.sent) {
    report->Error("outcomes sum to " + Count(sum) + ", sent " + Count(t.sent));
  }
  if (t.unanswered() != 0) {
    report->Error(Count(t.unanswered()) + " requests unanswered after drain");
  }
  if (t.answer_mismatches != 0) {
    report->Error(Count(t.answer_mismatches) + " of " +
                  Count(t.answers_checked) + " checked answers wrong");
  }
  if (t.bad_responses != 0) {
    report->Error(Count(t.bad_responses) + " bad or unmatched responses");
  }
  using bouncer::RejectReason;
  const auto reason = [&](RejectReason r) {
    return t.reasons[static_cast<size_t>(r)];
  };
  const uint64_t shard_failed = t.fates[kFailed] - t.transport_failures;
  const uint64_t shard_reasons = reason(RejectReason::kShardPolicy) +
                                 reason(RejectReason::kShardQueueFull) +
                                 reason(RejectReason::kShardExpired);
  if (reason(RejectReason::kPolicy) != t.fates[kRejected] ||
      reason(RejectReason::kQueueFull) != t.fates[kShed] ||
      reason(RejectReason::kExpired) != t.fates[kExpired] ||
      shard_reasons != shard_failed) {
    report->Error("per-reason counts disagree with per-status counts");
  }
  if (t.transport_failures != 0) {
    report->notes.push_back(
        "broker reconciliation skipped: transport failures lose answers");
    return;
  }
  const auto& b = w.broker_delta;
  const auto expect = [&](const char* what, uint64_t server, uint64_t client) {
    if (server != client) {
      report->Error(std::string("broker ") + what + " delta " +
                    Count(server) + " != generator count " + Count(client));
    }
  };
  expect("received", b.received, t.sent - t.fates[kDropped]);
  expect("rejected", b.rejected, t.fates[kRejected]);
  expect("shedded", b.shedded, t.fates[kShed]);
  expect("expired", b.expired, t.fates[kExpired]);
  expect("completed", b.completed, t.fates[kOk] + shard_failed);
  expect("accepted", b.accepted, b.completed + b.expired);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

namespace {

std::string AffinityList(size_t* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    int last = cpu;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
    if (last > cpu) {
      out += '-';
      out += std::to_string(last);
    }
    *count += static_cast<size_t>(last - cpu + 1);
    cpu = last;
  }
  return out;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostRecord(const Args& args, const Deployment& deployment) {
  size_t affinity_cpus = 0;
  const std::string affinity = AffinityList(&affinity_cpus);
  utsname uts{};
  ::uname(&uts);
  const Workload& w = *args.workload;
  std::string backend = "none";
  std::string fallback;
  size_t loops = 0;
  if (deployment.server) {
    backend = bouncer::net::NetBackendName(deployment.server->backend());
    fallback = deployment.server->backend_fallback_reason();
    loops = deployment.server->num_loops();
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%u,\"affinity_cpus\":%zu,\"affinity\":\"%s\","
      "\"kernel\":\"%s\",\"backend\":\"%s\",\"backend_fallback\":\"%s\","
      "\"loops\":%zu,\"connections\":%zu,\"client_threads\":%zu,"
      "\"topology\":\"%zu broker x %zu workers, %zu shards x %zu worker\","
      "\"graph_vertices\":%u,\"workload\":\"%s\",\"seed\":%" PRIu64
      ",\"seconds\":%d,\"rate_qps\":%.0f,\"trace\":%d}",
      std::thread::hardware_concurrency(), affinity_cpus, affinity.c_str(),
      Escape(uts.release).c_str(), backend.c_str(), Escape(fallback).c_str(),
      loops, w.tcp ? kConnections : 0, w.tcp ? kClientThreads : 1, kBrokers,
      kBrokerWorkers, kShards, kShardWorkers, kGraphVertices, w.name,
      args.seed, args.seconds, w.rate_qps, args.trace ? 1 : 0);
  return buf;
}

void AddCommonLayers(const WindowResult& traced, double untraced_goodput,
                     double cpu_s, uint64_t ctx_switches, uint64_t minflt,
                     Report* report) {
  const Tally& t = traced.tally;
  const double sent = static_cast<double>(std::max<uint64_t>(t.sent, 1));
  const uint64_t ok = t.fates[kOk];
  report->Layer("reject_share", 1.0 - static_cast<double>(ok) / sent, "ratio",
                Count(t.sent - ok) + " of " + Count(t.sent) + " sent");
  report->Layer("latency_p99_ms", t.ok_latency.Quantile(0.99) / 1e6, "ms",
                Count(ok) + " OK responses in the traced window");

  // Broker counters reconcile the generator's outcome counts.
  const auto& b = traced.broker_delta;
  report->Layer("server.broker.received", static_cast<double>(b.received),
                "count", "Stage::counters() delta");
  report->Layer("server.broker.accepted", static_cast<double>(b.accepted),
                "count", "Stage::counters() delta");
  report->Layer("server.broker.rejected", static_cast<double>(b.rejected),
                "count", "Stage::counters() delta");
  report->Layer("server.broker.shedded", static_cast<double>(b.shedded),
                "count", "Stage::counters() delta");
  report->Layer("server.broker.expired", static_cast<double>(b.expired),
                "count", "Stage::counters() delta");
  report->Layer("server.broker.completed", static_cast<double>(b.completed),
                "count", "Stage::counters() delta");

  // Admitted work that paid off: OK within the limit over admitted.
  const uint64_t admitted = b.accepted;
  report->Layer("core.admitted_in_slo_share",
                admitted == 0 ? 0
                              : static_cast<double>(t.ok_in_limit) /
                                    static_cast<double>(admitted),
                "ratio",
                Count(t.ok_in_limit) + " in-limit OK of " + Count(admitted) +
                    " admitted");
  double worst = 0;
  uint64_t types = 0;
  for (const Hist& samples : t.ok_latency_by_op) {
    if (samples.count() < 20) continue;
    worst = std::max(worst, samples.Quantile(0.90) /
                                static_cast<double>(kSloP90));
    ++types;
  }
  report->Layer("core.type_p90_over_slo_max", worst, "ratio",
                Count(types) + " types with >= 20 OK responses");
  report->Layer("graph.shard_failures",
                static_cast<double>(traced.shard_failures), "count",
                "Cluster::shard_failures() delta");

  const double cpus = std::max(1u, std::thread::hardware_concurrency());
  report->Layer("proc.cpu_util", cpu_s / (traced.seconds * cpus), "ratio",
                Num(cpu_s) + " cpu s over " + Num(traced.seconds) + " s x " +
                    Num(cpus) + " cpus");
  report->Layer("proc.ctx_switches_per_req",
                static_cast<double>(ctx_switches) / sent, "count",
                Count(ctx_switches) + " switches / " + Count(t.sent) + " sent");
  report->Layer("proc.minflt_per_kreq",
                static_cast<double>(minflt) / (sent / 1000.0), "count",
                Count(minflt) + " faults / " + Count(t.sent) + " sent");

  report->Layer("gen.send_lag_us_p99", t.send_lag.Quantile(0.99) / 1e3, "us",
                Count(t.send_lag.count()) + " open-loop sends");
  report->Layer("gen.offered_qps", traced.offered_qps, "1/s",
                Count(t.sent) + " sent over " + Num(traced.seconds) + " s");
  const double traced_goodput =
      static_cast<double>(t.ok_in_limit) / traced.seconds;
  report->Layer("stats.trace_overhead_pct",
                untraced_goodput <= 0
                    ? 0
                    : 100.0 * (untraced_goodput - traced_goodput) /
                          untraced_goodput,
                "%",
                "goodput untraced " + Num(untraced_goodput) + " vs traced " +
                    Num(traced_goodput));
}

void AddSetupLayers(const SetupTimes& setup, Report* report) {
  const std::string base = "median of " + std::to_string(kSetups) +
                           " set-ups";
  report->Layer("graph.build_s", setup.graph_build_s, "s", base);
  report->Layer("server.start_s", setup.server_start_s, "s", base);
  report->Layer("net.start_s", setup.net_start_s, "s", base);
  report->Layer("gen.connect_s", setup.connect_s, "s", base);
}

Usage ReadUsage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                1e6;
  u.ctx = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  u.minflt = static_cast<uint64_t>(ru.ru_minflt);
  return u;
}

bouncer::server::StageCounters StageDelta(
    const bouncer::server::StageCounters& before,
    const bouncer::server::StageCounters& after) {
  bouncer::server::StageCounters d;
  d.received = after.received - before.received;
  d.accepted = after.accepted - before.accepted;
  d.rejected = after.rejected - before.rejected;
  d.expired = after.expired - before.expired;
  d.shedded = after.shedded - before.shedded;
  d.completed = after.completed - before.completed;
  return d;
}

void CountFailures(const WindowResult& w, Report* report) {
  const Tally& t = w.tally;
  report->attempted += t.sent;
  report->failed += t.transport_failures + t.fates[kDropped] +
                    t.unanswered() + t.answer_mismatches + t.bad_responses;
  if (!w.transport_error.empty()) {
    report->notes.push_back("transport error: " + w.transport_error);
  }
}

namespace {

const char* const kEstOver = "stage.broker-0.est_wait_err_over_ns";
const char* const kEstUnder = "stage.broker-0.est_wait_err_under_ns";

}  // namespace

void BeginTracedWindow(Deployment& d) {
  // Reset while the broker is idle between windows.
  d.metrics.GetHistogram(kEstOver)->Reset();
  d.metrics.GetHistogram(kEstUnder)->Reset();
  d.shard_metrics->Reset();
  d.shard_metrics->SetRecording(true);
}

void EndTracedWindow(Deployment& d) { d.shard_metrics->SetRecording(false); }

void AddDeploymentLayers(Deployment& d, const WindowResult& traced,
                         Report* report) {
  const auto over = d.metrics.GetHistogram(kEstOver)->MakeSummary();
  const auto under = d.metrics.GetHistogram(kEstUnder)->MakeSummary();
  report->Layer("core.est_wait_over_ms_p99", Ms(over.p99), "ms",
                Count(over.count) + " estimates above the actual wait");
  report->Layer("core.est_wait_under_ms_p99", Ms(under.p99), "ms",
                Count(under.count) + " estimates below the actual wait");
  report->Layer("core.tenants_interned", static_cast<double>(d.tenants.size()),
                "count", "TenantRegistry::size()");
  report->Layer("core.tenant_overflow",
                static_cast<double>(d.tenants.overflowed()), "count",
                "TenantRegistry::overflowed()");

  const bouncer::server::TypeReport shard = d.shard_metrics->Overall();
  const uint64_t queries = traced.broker_delta.completed;
  report->Layer("graph.subqueries_per_query",
                queries == 0 ? 0
                             : static_cast<double>(shard.received) /
                                   static_cast<double>(queries),
                "count",
                Count(shard.received) + " subqueries / " + Count(queries) +
                    " executed queries");
  report->Layer("graph.shard.pt_ms_p50", shard.pt_p50_ms, "ms",
                Count(shard.completed) + " completed subqueries");
  report->Layer("graph.shard.pt_ms_p90", shard.pt_p90_ms, "ms",
                Count(shard.completed) + " completed subqueries");
  const double capacity_ms =
      static_cast<double>(kShards * kShardWorkers) * traced.seconds * 1e3;
  report->Layer("graph.shard.util", shard.BusyMs() / capacity_ms, "ratio",
                Num(shard.BusyMs()) + " busy ms / " + Num(capacity_ms) +
                    " shard-worker ms");
  report->Layer("server.shard.rt_ms_p90", shard.rt_p90_ms, "ms",
                Count(shard.completed) + " completed subqueries");
}

void AddAbsentNetLayers(const std::string& why, Report* report) {
  for (const char* name :
       {"net.syscalls_per_req", "net.wakeups_per_req",
        "net.eventfd_writes_per_req", "net.reqs_per_batch",
        "net.pauses_inflight", "net.pauses_tx", "net.pauses_overload"}) {
    report->Layer(name, 0, "count", why);
  }
  for (const char* name :
       {"net.parse_to_admit_us_p50", "net.parse_to_admit_us_p99",
        "net.dequeue_to_write_us_p50", "net.dequeue_to_write_us_p99"}) {
    report->Layer(name, 0, "us", why);
  }
}

}  // namespace perfbench
