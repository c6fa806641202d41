// perfbench: the end-to-end benchmark of the deployed graph_service stack
// (graph, broker/shard cluster, Bouncer admission, metric registry, flight
// recorder, and for the TCP workloads the NetServer front door), driven by
// the benchmark's own seeded load generator. README.md next to this file
// describes the workloads and metrics.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/tenant_registry.h"
#include "src/graph/cluster.h"
#include "src/net/net_server.h"
#include "src/server/metrics_collector.h"
#include "src/stats/metric_registry.h"
#include "src/util/clock.h"

namespace perfbench {

using bouncer::Nanos;
using bouncer::kMicrosecond;
using bouncer::kMillisecond;
using bouncer::kSecond;

inline Nanos Now() { return bouncer::SystemClock::Global()->Now(); }

// ---- Deployment constants (examples/graph_service defaults) ----

inline constexpr uint32_t kGraphVertices = 50'000;
inline constexpr uint32_t kEdgesPerVertex = 8;
inline constexpr uint64_t kGraphSeed = 42;
inline constexpr size_t kBrokers = 1;
inline constexpr size_t kBrokerWorkers = 4;
inline constexpr size_t kShards = 2;
inline constexpr size_t kShardWorkers = 1;
inline constexpr Nanos kSloP50 = 18 * kMillisecond;
inline constexpr Nanos kSloP90 = 50 * kMillisecond;
/// A request counts toward goodput only when answered OK within this.
inline constexpr Nanos kLatencyLimit = kSloP90;
inline constexpr uint32_t kTraceSamplePeriod = 64;
/// TCP workloads: fixed NetServer loop count, client connections (spread
/// evenly over the loops) and client threads.
inline constexpr size_t kNetLoops = 2;
inline constexpr size_t kConnections = 4;
inline constexpr size_t kClientThreads = 2;
/// Set-ups per run; setup_s is their median. The first, timed from
/// process start, serves the workload; the others run after it is torn
/// down.
inline constexpr int kSetups = 9;

// ---- Workloads ----

/// Every workload is open loop: Poisson departures at one fixed rate.
struct Workload {
  const char* name;
  bool tcp;           ///< Loopback TCP via NetServer; else in-process.
  double rate_qps;    ///< The offered rate.
  bool tenant_fair;   ///< Adds TenantFairPolicy (flood guard 32).
  size_t num_tenants; ///< Zipf(1) tenants on v2 frames; 0 = none.
  bool lookup_mix;    ///< 90% QT1 / 10% QT2, else the QT1..QT11 mix.
  Nanos warmup;
};

const Workload* FindWorkload(const std::string& name);

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string out_dir;
};

// ---- Seeded request stream (benchmark-owned; nothing under src/) ----

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return Mix64(h ^ Mix64(v));
}

/// Sequential SplitMix64 generator.
class StreamRng {
 public:
  explicit StreamRng(uint64_t seed) : state_(Mix64(seed)) {}
  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ull;
    return Mix64(state_);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint32_t NextBounded(uint32_t bound) {
    return static_cast<uint32_t>((Next() >> 32) * bound >> 32);
  }

 private:
  uint64_t state_;
};

struct Request {
  uint8_t op = 0;  ///< GraphOp.
  uint32_t source = 0;
  uint32_t target = 0;
  uint64_t external_id = 0;
  uint64_t tenant = 0;  ///< Wire tenant id (Zipf rank, 1 = hottest); 0 = none.
};

/// One request stream: stream `stream` of seed `seed`, drawing the type
/// mix, vertex ids, tenant ids and Poisson gaps from the benchmark's own
/// generator. Deterministic: the same (seed, stream) gives the same
/// requests in the same order.
class RequestStream {
 public:
  RequestStream(const Workload& workload, const bouncer::graph::GraphStore& graph,
                uint64_t seed, uint64_t stream, double rate_qps);
  /// The next request; `gap` receives the exponential gap (ns) to the
  /// next departure.
  Request Next(Nanos* gap);

 private:
  const Workload& workload_;
  const bouncer::graph::GraphStore& graph_;
  StreamRng rng_;
  double mean_gap_ns_;
  std::vector<double> zipf_cdf_;  ///< Tenant rank CDF; empty = no tenants.
};

/// Fingerprint of the first `count` requests (and gaps) of a stream.
uint64_t FingerprintStream(const Workload& workload,
                           const bouncer::graph::GraphStore& graph,
                           uint64_t seed, uint64_t stream, double rate_qps,
                           size_t count);

/// Vertex count, edge count, and a hash over every degree and external id.
struct GraphFingerprint {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t hash = 0;
};
GraphFingerprint FingerprintGraph(const bouncer::graph::GraphStore& graph);

// ---- Deployment ----

struct SetupTimes {
  double graph_build_s = 0;
  double server_start_s = 0;  ///< Cluster construction + Start.
  double net_start_s = 0;     ///< NetServer construction + Start.
  double connect_s = 0;       ///< Client connections up and balanced.
  double total_s = 0;
};

/// The stack as examples/graph_service deploys it, plus (TCP workloads)
/// the benchmark's client connections. Destruction closes the
/// connections, stops the server, then the cluster.
class Deployment {
 public:
  /// Builds and starts everything; times each step. `begin` is when the
  /// set-up started (process start for the first one). Null on failure
  /// with `error` filled.
  static std::unique_ptr<Deployment> Create(const Workload& workload,
                                            Nanos begin, SetupTimes* times,
                                            std::string* error);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  bouncer::graph::GraphStore graph;
  bouncer::TenantRegistry tenants;
  bouncer::stats::MetricRegistry metrics;
  std::unique_ptr<bouncer::QueryTypeRegistry> registry;
  /// Shard subquery sink (Cluster::Options::shard_metrics); records only
  /// while a traced window has it switched on.
  std::unique_ptr<bouncer::server::MetricsCollector> shard_metrics;
  std::unique_ptr<bouncer::graph::Cluster> cluster;
  std::unique_ptr<bouncer::net::NetServer> server;
  std::vector<int> client_fds;        ///< One per connection.
  std::vector<size_t> client_loop;    ///< Server loop each fd landed on.

 private:
  Deployment() = default;
  bool ConnectBalanced(std::string* error);
};

// ---- Outcome accounting ----

/// Terminal fate of one sent request. kPending after the drain is
/// "unanswered".
enum Fate : uint8_t {
  kPending = 0,
  kOk,
  kRejected,  ///< Broker admission policy said no.
  kShed,      ///< Broker bounded queue full.
  kExpired,   ///< Deadline passed while queued.
  kFailed,    ///< Shard-side subquery loss, or a transport error.
  kDropped,   ///< The generator could not send it.
  kNumFates,
};

/// Fixed-memory log-linear histogram of non-negative nanosecond values:
/// 2^kSubBits linear sub-buckets per power of two (bucket width <= 0.4%
/// of its value; exact below 2^kSubBits). Quantiles interpolate by rank
/// inside the bucket. Single-threaded: each recording thread owns one
/// and they merge.
///
/// Not bouncer::stats::Histogram, whose Percentile() returns the midpoint
/// of 5-bit buckets (~3% wide): the bounded latency percentiles must
/// resolve finer than their own run-to-run spread. Over ten seeds of
/// paper_overload the p90 spread 1.3% (IQR / median); at 5-bit midpoints
/// the ten values collapse to two, 18.09 and 18.61 ms, so the figure
/// would read the same on most runs and move in 3% steps.
class Hist {
 public:
  void Record(Nanos value);
  void Merge(const Hist& other);
  uint64_t count() const { return count_; }
  /// Nearest-rank q-quantile in ns (0 when empty).
  double Quantile(double q) const;

 private:
  static constexpr int kSubBits = 8;
  static constexpr int kMaxBits = 40;  ///< Larger values clamp (~18 min).
  static constexpr size_t kBuckets =
      static_cast<size_t>(kMaxBits - kSubBits + 2) << kSubBits;
  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
};

/// What the generator observed for the requests of one window.
struct Tally {
  uint64_t sent = 0;
  std::array<uint64_t, kNumFates> fates{};
  uint64_t transport_failures = 0;  ///< Part of kFailed: EPIPE/ECONNRESET/...
  uint64_t bad_responses = 0;       ///< kBadRequest or unmatched ids.
  std::array<uint64_t, 8> reasons{};  ///< RejectReason code of non-OK replies.
  uint64_t ok_in_limit = 0;         ///< OK within kLatencyLimit.
  uint64_t answers_checked = 0;
  uint64_t answer_mismatches = 0;
  Hist ok_latency;
  std::array<Hist, bouncer::graph::kNumGraphOps> ok_latency_by_op;
  Hist send_lag;    ///< Actual - intended send.
  Hist admit_call;  ///< Traced in-process: Cluster::Submit() calls.
  Hist queue_wait;  ///< Traced in-process: broker enqueued->dequeued.
  Hist exec;        ///< Traced in-process: broker dequeued->completed.

  /// One OK response of type `op` (counts it in fates[kOk]).
  void RecordOk(Nanos latency, size_t op);
  void Merge(const Tally& other);
  uint64_t unanswered() const { return fates[kPending]; }
};

// ---- Results ----

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string base;  ///< Sample count / denominator, for the report.
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> errors;   ///< Failed checks: correct = empty.
  std::vector<std::string> invalid;  ///< Run-validity failures.
  std::vector<std::string> notes;    ///< Extra report lines.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Error(std::string message) { errors.push_back(std::move(message)); }
  void Layer(std::string name, double value, std::string unit,
             std::string base) {
    per_layer.push_back({std::move(name), value, std::move(unit),
                         std::move(base)});
  }
};

/// Measured window lengths: the whole of --seconds untraced, or with
/// --trace 1 an untraced first half and a traced second half, so every
/// run measures --seconds in total.
Nanos UntracedWindow(const Args& args);
Nanos TracedWindow(const Args& args);

/// Window length and trace flags shared by the workload runners.
struct WindowSpec {
  Nanos duration = 0;
  uint64_t stream_base = 0;  ///< Stream ids of this window start here.
  bool traced = false;
};

/// Everything a measurement window leaves behind for the report.
struct WindowResult {
  Tally tally;
  double seconds = 0;
  double offered_qps = 0;
  bouncer::server::StageCounters broker_delta;
  uint64_t shard_failures = 0;
  std::string transport_error;  ///< First transport error, if any.
};

/// Process CPU time, context switches and minor faults (getrusage).
struct Usage {
  double cpu_s = 0;
  uint64_t ctx = 0;
  uint64_t minflt = 0;
};
Usage ReadUsage();

bouncer::server::StageCounters StageDelta(
    const bouncer::server::StageCounters& before,
    const bouncer::server::StageCounters& after);

// ---- Helpers (report.cc) ----

double Median(std::vector<double> values);
std::string Num(double v);
std::string Count(uint64_t v);
/// End-to-end metrics of a window.
void AddEndToEnd(const WindowResult& w, double setup_s, double peak_rss_mb,
                 Report* report);
/// Outcome accounting shared by both runners: fates sum to sent, nothing
/// unanswered, no answer mismatch, and the broker's counter deltas equal
/// the generator's counts.
void CheckAccounting(const WindowResult& w, Report* report);
double PeakRssMb();
std::string HostRecord(const Args& args, const Deployment& deployment);

/// Recorder-event join and span output (trace_join.cc).
struct ClientSpan {
  uint64_t id = 0;
  Nanos intended = 0;
  Nanos sent = 0;
  Nanos received = 0;
};

struct Span {
  uint64_t id;
  const char* name;
  Nanos start;
  Nanos end;
  const char* parent;  ///< Null for the root.
};

/// Accumulates spans (all in memory) and each layer's self time: its
/// span's duration minus the part its child spans cover.
class SpanLog {
 public:
  /// Adds one request's spans; `spans[0]` is the root. `keep` also stores
  /// the spans for the file written at exit.
  void AddRequest(const std::vector<Span>& spans, bool keep);
  /// Writes the kept spans (JSONL) and the self-time table (JSON).
  bool Write(const std::string& spans_path, const std::string& self_path) const;
  /// "layer: mean self us (share of end-to-end)" lines.
  std::vector<std::string> Summary() const;
  size_t requests() const { return requests_; }

 private:
  struct Self {
    std::string name;
    double total_ns = 0;
    uint64_t count = 0;
  };
  Self& SelfOf(const char* name);
  std::vector<Span> kept_;
  std::vector<Self> self_;
  double root_total_ns_ = 0;
  size_t requests_ = 0;
};

/// Server-side events of one sampled request, from FlightRecorder::Dump.
struct ServerEvents {
  Nanos parse = 0;
  Nanos admit = 0;
  Nanos dequeue = 0;
  Nanos wait = -1;  ///< Broker queue wait the dequeue event carries.
  Nanos gather_last = 0;
  Nanos write = 0;
};

/// Parses the recorder dump and keeps requests whose events fall in
/// [from, to]; keyed by request id.
std::vector<std::pair<uint64_t, ServerEvents>> JoinRecorder(Nanos from,
                                                             Nanos to);

/// Logs the self-time table and writes the span files under out_dir.
void FinishSpans(const Args& args, const SpanLog& spans, Report* report);

// ---- Workload runners ----

/// Both runners warm up, run the untraced window (returned: it carries
/// the end-to-end metrics) and, with --trace 1, a traced window with the
/// same seed whose per-layer metrics go into `report`.
WindowResult RunInproc(const Args& args, Deployment& deployment,
                       Report* report);
WindowResult RunTcp(const Args& args, Deployment& deployment, Report* report);

/// Adds a window's sent count to `attempted` and its failed operations
/// (transport failures, drops, unanswered, wrong answers, bad replies) to
/// `failed`.
void CountFailures(const WindowResult& w, Report* report);

/// Traced windows: restart the estimate-error histograms and switch the
/// shard subquery collector on; EndTracedWindow switches it off.
void BeginTracedWindow(Deployment& deployment);
void EndTracedWindow(Deployment& deployment);

/// Per-layer metrics common to both runners (outcomes, broker counters,
/// rusage, generator, trace overhead). `untraced_goodput` is the untraced
/// window's goodput.
void AddCommonLayers(const WindowResult& traced, double untraced_goodput,
                     double cpu_s, uint64_t ctx_switches, uint64_t minflt,
                     Report* report);
/// The set-up steps (medians over the set-ups).
void AddSetupLayers(const SetupTimes& setup, Report* report);
/// Per-layer metrics read from the deployment's public surfaces: the
/// registry's estimate-error histograms, the tenant registry, and the
/// shard subquery collector.
void AddDeploymentLayers(Deployment& deployment, const WindowResult& traced,
                         Report* report);
/// The net.* metrics as zeros, with `why` as their base, for the workload
/// without a network.
void AddAbsentNetLayers(const std::string& why, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
