// Network front-end throughput: drives the NetServer over loopback with
// the closed-loop NetClient, comparing variants per (backend x loops x
// connections x in-flight) cell —
//
//   inproc     closed-loop Cluster::Submit calls in-process (no sockets):
//              the ceiling the network path is measured against;
//   net_batch  loopback TCP, everything parsed from one epoll wakeup
//              drained through Cluster::SubmitBatch in a single pass —
//              run at every loop count in the sweep, so the same cell
//              read across rows is the multi-reactor scaling curve.
//
// The query mix is deliberately cheap (degree-heavy, ample workers) so
// the event loops are the bottleneck: the 1->N loops gap prices the
// single-reactor serialization the sharded front-end removes. Loop
// scaling needs real cores — the JSON records hardware_concurrency so a
// 1-core CI run is read accordingly.
//
// Every net cell runs once per event-loop backend (epoll always,
// io_uring when the kernel passes the functional probe), with the
// server's data-path syscalls-per-response column the backends compete
// on directly.
//
// A high-connection ladder (256 / 1k / 10k / 32k / 64k connections,
// small rings, shallow windows) then checks the front-end holds QPS and
// flat RSS as connection count grows two orders of magnitude;
// RLIMIT_NOFILE is raised toward its hard cap, the ephemeral-port range
// is probed, and rungs that still don't fit are skipped with a clear
// per-rung note rather than failing the bench.
//
// A final overload section offers ~2x the measured capacity open-loop
// against a rejecting broker policy and samples the process RSS across
// the surge: rejections must flow back while memory stays flat (the
// zero-steady-state-allocation claim).
//
// BOUNCER_BENCH_NET_LOOPS=1,4 (comma list) overrides the loop-count
// sweep — CI's bench-smoke uses it to run loops=1 and loops=4 as
// separate jobs. Results are printed as tables and written to
// BENCH_net_throughput.json.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/net/admin_client.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/histogram.h"
#include "src/stats/metric_registry.h"
#include "src/util/rng.h"

namespace bouncer::bench {
namespace {

using graph::Cluster;
using graph::GraphOp;
using graph::GraphQuery;
using graph::GraphQueryResult;
using graph::GraphStore;

struct CellResult {
  std::string variant;
  std::string backend;  ///< Resolved event-loop backend ("" for inproc).
  size_t loops = 0;  ///< Event loops (0 for the inproc baseline).
  size_t connections = 0;
  size_t in_flight = 0;
  int tracing = 0;  ///< Flight recorder enabled (1-in-64 sampling).
  double seconds = 0;
  uint64_t completed = 0;
  double qps = 0;
  Nanos rt_p50 = 0;
  Nanos rt_p99 = 0;
  double avg_batch = 0;  ///< Requests per admission episode (net_batch).
  double sys_per_req = 0;  ///< Server data-path syscalls per response.
};

struct LadderResult {
  std::string backend;
  size_t connections = 0;
  size_t loops = 0;
  bool skipped = false;
  std::string skip_reason;
  double qps = 0;
  Nanos rt_p50 = 0;
  Nanos rt_p99 = 0;
  double sys_per_req = 0;
  long rss_start_kb = 0;  ///< Sampled once the full fleet is connected.
  long rss_end_kb = 0;    ///< Sampled at the end of the measure window.
};

struct SurgeResult {
  double offered_qps = 0;
  double capacity_qps = 0;
  uint64_t responses = 0;
  uint64_t ok = 0;
  uint64_t rejections = 0;
  uint64_t dropped = 0;
  long rss_start_kb = 0;
  long rss_end_kb = 0;
};

/// VmRSS of this process in kB (client and server both live here —
/// loopback — so flat covers the whole data path).
long ReadRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtol(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Raises the soft RLIMIT_NOFILE toward the hard cap until `needed` fds
/// fit. Returns false (with a clear, actionable message) when even the
/// hard cap is too small — the caller skips that rung.
bool EnsureNofile(size_t needed, std::string* why) {
  struct rlimit lim;
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    *why = "getrlimit(RLIMIT_NOFILE) failed";
    return false;
  }
  if (lim.rlim_cur >= needed) return true;
  if (lim.rlim_max < needed) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "needs %zu fds but RLIMIT_NOFILE hard cap is %llu "
                  "(raise with `ulimit -Hn` / limits.conf)",
                  needed, static_cast<unsigned long long>(lim.rlim_max));
    *why = buf;
    return false;
  }
  lim.rlim_cur = needed;
  if (setrlimit(RLIMIT_NOFILE, &lim) != 0) {
    *why = "setrlimit(RLIMIT_NOFILE) failed";
    return false;
  }
  return true;
}

/// High rungs need one ephemeral source port per client connection (all
/// four-tuples share src ip / dst ip / dst port over loopback). Returns
/// false with an actionable message when the kernel's range is too small
/// — the default 32768..60999 caps the ladder near 28k connections.
bool EnsurePorts(size_t needed, std::string* why) {
  std::FILE* f = std::fopen("/proc/sys/net/ipv4/ip_local_port_range", "r");
  if (f == nullptr) return true;  // No procfs: let connect() decide.
  long lo = 0, hi = 0;
  const int n = std::fscanf(f, "%ld %ld", &lo, &hi);
  std::fclose(f);
  if (n != 2 || hi <= lo) return true;
  // Leave headroom for everything else on the box using the range.
  const auto available = static_cast<size_t>(hi - lo + 1);
  const size_t slack = 512;
  if (needed + slack <= available) return true;
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "needs %zu ephemeral ports but ip_local_port_range %ld-%ld "
                "allows %zu (raise with sysctl net.ipv4.ip_local_port_range)",
                needed, lo, hi, available);
  *why = buf;
  return false;
}

/// Loop counts to sweep: BOUNCER_BENCH_NET_LOOPS=1,4 overrides.
std::vector<size_t> LoopSweep() {
  if (const char* env = std::getenv("BOUNCER_BENCH_NET_LOOPS")) {
    std::vector<size_t> loops;
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v >= 1 && v <= 255) loops.push_back(static_cast<size_t>(v));
      p = (*end == ',') ? end + 1 : end;
    }
    if (!loops.empty()) return loops;
  }
  return BenchScale() >= 1 ? std::vector<size_t>{1, 2, 4}
                           : std::vector<size_t>{1, 4};
}

/// Cheap degree-heavy query stream: 90% QT1 (single-vertex degree), 10%
/// QT2 (capped adjacency) — each query is one shard round, so broker and
/// shard workers outpace the event loops and the submit path shows.
std::vector<GraphQuery> MakeQueries(const GraphStore& graph) {
  Rng rng(11);
  std::vector<GraphQuery> queries;
  queries.reserve(1 << 14);
  for (size_t i = 0; i < (1 << 14); ++i) {
    const GraphOp op =
        rng.NextBounded(10) == 0 ? GraphOp::kNeighbors : GraphOp::kDegree;
    queries.push_back(Cluster::SampleQuery(op, graph, rng));
  }
  return queries;
}

Cluster::Options ClusterOptions(bool rejecting) {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 8;
  options.num_shards = 2;
  options.shard_workers = 2;
  options.work_per_edge = 4;
  options.broker_queue_capacity = 1 << 15;
  options.shard_queue_capacity = 1 << 15;
  if (rejecting) {
    // Overload section: a deterministic queue-length door so the surge
    // produces a steady stream of synchronous early rejections.
    options.broker_policy.kind = PolicyKind::kMaxQueueLength;
    options.broker_policy.max_queue_length.length_limit = 512;
  } else {
    options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  }
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  return options;
}

net::RequestFrame FrameFor(const GraphQuery& q) {
  net::RequestFrame frame;
  frame.op = static_cast<uint8_t>(q.op);
  frame.source = q.source;
  frame.target = q.target;
  frame.external_id = q.external_id;
  return frame;
}

/// In-process closed-loop baseline (same shape as bench_cluster_throughput
/// but with the grid cell's total window).
struct InprocState {
  Cluster* cluster = nullptr;
  const std::vector<GraphQuery>* queries = nullptr;
  std::atomic<uint64_t> cursor{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> recording{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> in_flight{0};
  stats::Histogram rt;

  void SubmitNext() {
    const uint64_t i =
        cursor.fetch_add(1, std::memory_order_relaxed) % queries->size();
    const Nanos t0 = SystemClock::Global()->Now();
    InprocState* state = this;
    cluster->Submit((*queries)[i], /*deadline=*/0,
                    [state, t0](const server::WorkItem&, server::Outcome,
                                const GraphQueryResult&) {
                      if (state->recording.load(std::memory_order_relaxed)) {
                        state->rt.Record(SystemClock::Global()->Now() - t0);
                        state->completed.fetch_add(1,
                                                   std::memory_order_relaxed);
                      }
                      if (!state->stop.load(std::memory_order_acquire)) {
                        state->SubmitNext();
                      } else {
                        state->in_flight.fetch_sub(1,
                                                   std::memory_order_acq_rel);
                      }
                    });
  }
};

CellResult RunInproc(const GraphStore& graph,
                     const std::vector<GraphQuery>& queries, size_t window,
                     Nanos warmup, Nanos measure) {
  const Slo slo{kSecond, 2 * kSecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(&graph, &registry, SystemClock::Global(),
                  ClusterOptions(/*rejecting=*/false));
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    std::exit(1);
  }
  InprocState state;
  state.cluster = &cluster;
  state.queries = &queries;
  state.in_flight.store(window, std::memory_order_relaxed);
  for (size_t i = 0; i < window; ++i) state.SubmitNext();

  std::this_thread::sleep_for(std::chrono::nanoseconds(warmup));
  state.recording.store(true, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::nanoseconds(measure));
  state.recording.store(false, std::memory_order_relaxed);
  const auto t1 = std::chrono::steady_clock::now();
  state.stop.store(true, std::memory_order_release);
  const auto drain_deadline = t1 + std::chrono::seconds(10);
  while (state.in_flight.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.Stop();

  CellResult r;
  r.variant = "inproc";
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.completed = state.completed.load();
  r.qps = static_cast<double>(r.completed) / r.seconds;
  r.rt_p50 = state.rt.Percentile(0.5);
  r.rt_p99 = state.rt.Percentile(0.99);
  return r;
}

CellResult RunNet(const GraphStore& graph,
                  const std::vector<GraphQuery>& queries,
                  net::NetBackend backend, size_t loops, size_t connections,
                  size_t in_flight, Nanos warmup, Nanos measure,
                  bool tracing = false) {
  const Slo slo{kSecond, 2 * kSecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  // Cell-local observability plumbing: the recorder is wired in every
  // cell (tracing merely flips its enabled bit, which is exactly the
  // on/off overhead comparison); the registry only when tracing so the
  // default sweep matches the pre-observability configuration.
  stats::FlightRecorder recorder;
  recorder.SetEnabled(tracing);
  stats::MetricRegistry metrics;
  Cluster::Options cluster_options = ClusterOptions(/*rejecting=*/false);
  cluster_options.recorder = &recorder;
  if (tracing) cluster_options.metrics = &metrics;
  Cluster cluster(&graph, &registry, SystemClock::Global(), cluster_options);
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    std::exit(1);
  }
  net::NetServer::Options server_options;
  server_options.backend = backend;
  server_options.num_loops = loops;
  server_options.max_connections = connections + 8;
  server_options.recorder = &recorder;
  if (tracing) server_options.metrics = &metrics;
  net::NetServer server(&cluster, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  net::NetClient::Options client_options;
  client_options.port = server.port();
  client_options.num_connections = connections;
  client_options.num_io_threads = connections < 4 ? 1 : 4;
  client_options.in_flight_per_conn = in_flight;
  net::NetClient client(client_options,
                        [&queries](size_t conn_index, uint64_t seq) {
                          return FrameFor(queries[(conn_index * 7919 + seq) %
                                                  queries.size()]);
                        });
  if (!client.Start().ok()) {
    std::fprintf(stderr, "client start failed\n");
    std::exit(1);
  }
  client.StartClosedLoop();
  std::this_thread::sleep_for(std::chrono::nanoseconds(warmup));

  const net::NetServer::Stats before = server.AggregateStats();
  client.ResetStats();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::nanoseconds(measure));
  const auto t1 = std::chrono::steady_clock::now();
  const net::NetClient::Counters counters = client.counters();
  const stats::HistogramSummary latency = client.Latency();
  const net::NetServer::Stats after = server.AggregateStats();
  const uint64_t batches = after.submit_batches - before.submit_batches;
  const uint64_t requests = after.requests - before.requests;

  // With the registry wired, grab a live snapshot through the admin
  // opcode while the load is still running — CI's bench-smoke sets
  // BOUNCER_BENCH_NET_STATS_OUT and uploads the file as an artifact.
  if (tracing) {
    if (const char* out = std::getenv("BOUNCER_BENCH_NET_STATS_OUT")) {
      net::AdminFetch fetch;
      fetch.port = server.port();
      fetch.op = net::kOpStatsJson;
      std::string payload;
      if (net::FetchAdmin(fetch, &payload).ok()) {
        if (std::FILE* f = std::fopen(out, "w")) {
          std::fwrite(payload.data(), 1, payload.size(), f);
          std::fputc('\n', f);
          std::fclose(f);
          std::printf("wrote live stats snapshot to %s\n", out);
        }
      } else {
        std::fprintf(stderr, "stats snapshot fetch failed\n");
      }
    }
  }

  client.StopSending();
  client.WaitForDrain(2 * kSecond);
  client.Stop();
  server.Stop();
  cluster.Stop();

  CellResult r;
  r.variant = "net_batch";
  r.backend = net::NetBackendName(after.backend);
  r.loops = server.num_loops();
  r.connections = connections;
  r.in_flight = in_flight;
  r.tracing = tracing ? 1 : 0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.completed = counters.responses;
  r.qps = static_cast<double>(r.completed) / r.seconds;
  r.rt_p50 = latency.p50;
  r.rt_p99 = latency.p99;
  if (batches > 0) {
    r.avg_batch = static_cast<double>(requests) / static_cast<double>(batches);
  }
  if (r.completed > 0) {
    r.sys_per_req = static_cast<double>(after.syscalls - before.syscalls) /
                    static_cast<double>(r.completed);
  }
  return r;
}

/// One high-connection ladder rung: `connections` sockets with shallow
/// windows and small rings (the per-connection memory knobs a fleet that
/// size requires), closed loop, RSS sampled across the measure window.
LadderResult RunLadder(const GraphStore& graph,
                       const std::vector<GraphQuery>& queries,
                       net::NetBackend backend, size_t connections,
                       size_t loops, Nanos warmup, Nanos measure) {
  LadderResult r;
  r.backend = net::NetBackendName(backend);
  r.connections = connections;
  r.loops = loops;

  // Client + server ends both live in this process: 2 fds per
  // connection plus epoll/event/listen fds and stdio slack.
  std::string why;
  if (!EnsureNofile(2 * connections + 64, &why) ||
      !EnsurePorts(connections, &why)) {
    r.skipped = true;
    r.skip_reason = why;
    return r;
  }

  const Slo slo{kSecond, 2 * kSecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(&graph, &registry, SystemClock::Global(),
                  ClusterOptions(/*rejecting=*/false));
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    std::exit(1);
  }
  net::NetServer::Options server_options;
  server_options.backend = backend;
  server_options.num_loops = loops;
  server_options.max_connections = connections + 8;
  server_options.read_ring_bytes = 1 << 12;
  server_options.write_ring_bytes = 1 << 12;
  server_options.max_inflight_per_conn = 16;
  // 32k+ fleets with 512 x 4k provided buffers per loop would pin tens
  // of MB per ring; the staged-copy design only needs enough buffers to
  // cover one wakeup's worth of CQEs.
  server_options.uring_buf_count = 256;
  net::NetServer server(&cluster, server_options);
  if (!server.Start().ok()) {
    std::fprintf(stderr, "server start failed\n");
    std::exit(1);
  }

  net::NetClient::Options client_options;
  client_options.port = server.port();
  client_options.num_connections = connections;
  client_options.num_io_threads = 4;
  client_options.in_flight_per_conn = 2;
  client_options.ring_bytes = 1 << 12;
  net::NetClient client(client_options,
                        [&queries](size_t conn_index, uint64_t seq) {
                          return FrameFor(queries[(conn_index * 7919 + seq) %
                                                  queries.size()]);
                        });
  if (!client.Start().ok()) {
    r.skipped = true;
    r.skip_reason = "client connect failed (host fd or port limits?)";
    server.Stop();
    cluster.Stop();
    return r;
  }
  client.StartClosedLoop();
  std::this_thread::sleep_for(std::chrono::nanoseconds(warmup));

  client.ResetStats();
  const net::NetServer::Stats before = server.AggregateStats();
  r.rss_start_kb = ReadRssKb();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::nanoseconds(measure));
  const auto t1 = std::chrono::steady_clock::now();
  r.rss_end_kb = ReadRssKb();
  const net::NetServer::Stats after = server.AggregateStats();
  const net::NetClient::Counters counters = client.counters();
  const stats::HistogramSummary latency = client.Latency();

  client.StopSending();
  client.WaitForDrain(2 * kSecond);
  client.Stop();
  server.Stop();
  cluster.Stop();

  r.backend = net::NetBackendName(after.backend);
  r.qps = static_cast<double>(counters.responses) /
          std::chrono::duration<double>(t1 - t0).count();
  r.rt_p50 = latency.p50;
  r.rt_p99 = latency.p99;
  if (counters.responses > 0) {
    r.sys_per_req = static_cast<double>(after.syscalls - before.syscalls) /
                    static_cast<double>(counters.responses);
  }
  return r;
}

/// Overload: offer ~2x `capacity_qps` open-loop against the rejecting
/// policy, sampling RSS just after the surge is established and at its
/// end.
SurgeResult RunSurge(const GraphStore& graph,
                     const std::vector<GraphQuery>& queries,
                     double capacity_qps, Nanos duration) {
  const Slo slo{kSecond, 2 * kSecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(&graph, &registry, SystemClock::Global(),
                  ClusterOptions(/*rejecting=*/true));
  if (!cluster.Start().ok()) std::exit(1);
  net::NetServer server(&cluster, {});
  if (!server.Start().ok()) std::exit(1);

  net::NetClient::Options client_options;
  client_options.port = server.port();
  client_options.num_connections = 64;
  client_options.num_io_threads = 4;
  net::NetClient client(client_options, [](size_t, uint64_t) {
    return net::RequestFrame{};  // Open loop only; sampler unused.
  });
  if (!client.Start().ok()) std::exit(1);

  SurgeResult surge;
  surge.capacity_qps = capacity_qps;
  surge.offered_qps = 2.0 * capacity_qps;

  // Paced open-loop feeder: every millisecond, offer the next slice of
  // the absolute schedule; local-queue overflow counts as drops (the
  // server's TCP backpressure reached the client), which is the open-loop
  // contract under overload.
  const auto t_start = std::chrono::steady_clock::now();
  const auto t_end = t_start + std::chrono::nanoseconds(duration);
  const Nanos rss_probe_at = duration / 5;
  uint64_t offered = 0;
  size_t qi = 0;
  bool rss_sampled = false;
  while (std::chrono::steady_clock::now() < t_end) {
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_start)
            .count();
    const auto due = static_cast<uint64_t>(elapsed * surge.offered_qps);
    while (offered < due) {
      const GraphQuery& q = queries[qi++ % queries.size()];
      net::RequestFrame frame;
      frame.op = static_cast<uint8_t>(q.op);
      frame.source = q.source;
      frame.target = q.target;
      client.TrySend(frame);
      ++offered;
    }
    if (!rss_sampled &&
        elapsed * kSecond >= static_cast<double>(rss_probe_at)) {
      surge.rss_start_kb = ReadRssKb();
      rss_sampled = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  surge.rss_end_kb = ReadRssKb();
  client.WaitForDrain(2 * kSecond);

  const net::NetClient::Counters counters = client.counters();
  surge.responses = counters.responses;
  surge.ok = counters.ok;
  surge.rejections = counters.rejected + counters.shedded;
  surge.dropped = counters.dropped;
  client.Stop();
  server.Stop();
  cluster.Stop();
  return surge;
}

void WriteJson(const std::vector<CellResult>& results,
               const std::vector<LadderResult>& ladder,
               const SurgeResult& surge, double loop_scaling,
               const std::string& uring_skip) {
  std::FILE* f = std::fopen("BENCH_net_throughput.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"net_throughput\",\n");
  WriteHostJsonFields(f);
  {
    const Cluster::Options topology = ClusterOptions(false);
    std::fprintf(f,
                 "  \"brokers\": %zu, \"broker_workers\": %zu, "
                 "\"shards\": %zu, \"shard_workers\": %zu,\n",
                 topology.num_brokers, topology.broker_workers,
                 topology.num_shards, topology.shard_workers);
  }
  if (uring_skip.empty()) {
    std::fprintf(f, "  \"backends\": [\"epoll\", \"io_uring\"],\n");
  } else {
    std::fprintf(f,
                 "  \"backends\": [\"epoll\"],\n"
                 "  \"io_uring_skipped\": \"%s\",\n",
                 uring_skip.c_str());
  }
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(
        f,
        "    {\"variant\": \"%s\", \"backend\": \"%s\", \"loops\": %zu, "
        "\"connections\": %zu, "
        "\"in_flight\": %zu, \"tracing\": %d, \"seconds\": %.3f, "
        "\"completed\": %llu, "
        "\"qps\": %.0f, \"rt_p50_us\": %.1f, \"rt_p99_us\": %.1f, "
        "\"avg_batch\": %.1f, \"sys_per_req\": %.3f}%s\n",
        r.variant.c_str(), r.backend.c_str(), r.loops, r.connections,
        r.in_flight, r.tracing, r.seconds,
        static_cast<unsigned long long>(r.completed), r.qps,
        static_cast<double>(r.rt_p50) / 1000.0,
        static_cast<double>(r.rt_p99) / 1000.0, r.avg_batch, r.sys_per_req,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"ladder\": [\n");
  for (size_t i = 0; i < ladder.size(); ++i) {
    const LadderResult& r = ladder[i];
    if (r.skipped) {
      std::fprintf(f,
                   "    {\"backend\": \"%s\", \"connections\": %zu, "
                   "\"loops\": %zu, "
                   "\"skipped\": \"%s\"}%s\n",
                   r.backend.c_str(), r.connections, r.loops,
                   r.skip_reason.c_str(), i + 1 < ladder.size() ? "," : "");
    } else {
      std::fprintf(
          f,
          "    {\"backend\": \"%s\", \"connections\": %zu, \"loops\": %zu, "
          "\"qps\": %.0f, "
          "\"rt_p50_us\": %.1f, \"rt_p99_us\": %.1f, \"sys_per_req\": %.3f, "
          "\"rss_start_kb\": %ld, "
          "\"rss_end_kb\": %ld}%s\n",
          r.backend.c_str(), r.connections, r.loops, r.qps,
          static_cast<double>(r.rt_p50) / 1000.0,
          static_cast<double>(r.rt_p99) / 1000.0, r.sys_per_req,
          r.rss_start_kb, r.rss_end_kb, i + 1 < ladder.size() ? "," : "");
    }
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"surge\": {\"offered_qps\": %.0f, \"capacity_qps\": %.0f, "
      "\"responses\": %llu, \"ok\": %llu, \"rejections\": %llu, "
      "\"dropped\": %llu, \"rss_start_kb\": %ld, \"rss_end_kb\": %ld},\n",
      surge.offered_qps, surge.capacity_qps,
      static_cast<unsigned long long>(surge.responses),
      static_cast<unsigned long long>(surge.ok),
      static_cast<unsigned long long>(surge.rejections),
      static_cast<unsigned long long>(surge.dropped), surge.rss_start_kb,
      surge.rss_end_kb);
  std::fprintf(f, "  \"loop_scaling_at_256conns\": %.2f\n}\n", loop_scaling);
  std::fclose(f);
}

int Main() {
  PrintPreamble("bench_net_throughput",
                "sharded front-end over loopback: epoll vs io_uring "
                "backends, loop scaling, vs the in-process ceiling");

  Nanos warmup = 300 * kMillisecond;
  Nanos measure = 600 * kMillisecond;
  Nanos surge_duration = 1500 * kMillisecond;
  std::vector<std::pair<size_t, size_t>> grid = {{16, 8}, {64, 16}};
  std::vector<size_t> ladder_conns = {256, 1024};
  if (BenchScale() == 1) {
    warmup = 500 * kMillisecond;
    measure = 2 * kSecond;
    surge_duration = 4 * kSecond;
    grid = {{4, 8}, {16, 8}, {64, 16}, {128, 16}, {256, 16}};
    ladder_conns = {256, 1024, 10240, 32768};
  } else if (BenchScale() >= 2) {
    warmup = kSecond;
    measure = 5 * kSecond;
    surge_duration = 10 * kSecond;
    grid = {{4, 8}, {16, 8}, {64, 8}, {64, 16}, {128, 16}, {256, 16}};
    ladder_conns = {256, 1024, 10240, 32768, 65536};
  }
  const std::vector<size_t> loop_sweep = LoopSweep();

  // Both backends in one invocation: epoll always, io_uring when the
  // kernel passes the functional probe (otherwise noted in the JSON so a
  // fallback run is never mistaken for a comparison).
  std::vector<net::NetBackend> backends = {net::NetBackend::kEpoll};
  std::string uring_skip;
  if (net::NetServer::UringSupported(&uring_skip)) {
    backends.push_back(net::NetBackend::kUring);
    uring_skip.clear();
  } else {
    std::printf("io_uring backend skipped: %s\n", uring_skip.c_str());
  }

  graph::GeneratorOptions graph_options;
  graph_options.num_vertices = 20'000;
  graph_options.edges_per_vertex = 8;
  const GraphStore graph = GeneratePreferentialAttachment(graph_options);
  const std::vector<GraphQuery> queries = MakeQueries(graph);

  std::printf("hardware_concurrency: %u, loop sweep:",
              std::thread::hardware_concurrency());
  for (const size_t loops : loop_sweep) std::printf(" %zu", loops);
  std::printf("\n\n%-10s %-9s %6s %6s %9s %12s %12s %12s %10s %8s\n",
              "variant", "backend", "loops", "conns", "in_flight", "qps",
              "p50_us", "p99_us", "avg_batch", "sys/req");
  PrintRule(103);
  std::vector<CellResult> results;
  double capacity_qps = 0;
  for (const auto& [connections, in_flight] : grid) {
    const size_t row_start = results.size();
    CellResult inproc = RunInproc(graph, queries, connections * in_flight,
                                  warmup, measure);
    inproc.connections = connections;
    inproc.in_flight = in_flight;
    results.push_back(inproc);
    for (const net::NetBackend backend : backends) {
      for (const size_t loops : loop_sweep) {
        const CellResult r = RunNet(graph, queries, backend, loops,
                                    connections, in_flight, warmup, measure);
        results.push_back(r);
        if (r.qps > capacity_qps) capacity_qps = r.qps;
      }
    }
    for (size_t i = row_start; i < results.size(); ++i) {
      const CellResult& r = results[i];
      std::printf("%-10s %-9s %6zu %6zu %9zu %12.0f %12.1f %12.1f %10.1f "
                  "%8.2f\n",
                  r.variant.c_str(),
                  r.backend.empty() ? "-" : r.backend.c_str(), r.loops,
                  r.connections, r.in_flight, r.qps,
                  static_cast<double>(r.rt_p50) / 1000.0,
                  static_cast<double>(r.rt_p99) / 1000.0, r.avg_batch,
                  r.sys_per_req);
    }
    PrintRule(103);
  }

  // High-connection ladder at the sweep's min and max loop counts.
  std::vector<size_t> ladder_loops = {loop_sweep.front()};
  if (loop_sweep.back() != loop_sweep.front()) {
    ladder_loops.push_back(loop_sweep.back());
  }
  std::vector<LadderResult> ladder;
  std::printf("\nladder (in_flight=2, 4k rings)\n%-9s %6s %6s %12s %12s "
              "%12s %8s %12s %12s\n",
              "backend", "conns", "loops", "qps", "p50_us", "p99_us",
              "sys/req", "rss0_kb", "rss1_kb");
  PrintRule(97);
  double ladder_1 = 0, ladder_n = 0;
  for (const size_t connections : ladder_conns) {
    for (const net::NetBackend backend : backends) {
      for (const size_t loops : ladder_loops) {
        const LadderResult r = RunLadder(graph, queries, backend,
                                         connections, loops, warmup, measure);
        ladder.push_back(r);
        if (r.skipped) {
          std::printf("%-9s %6zu %6zu skipped: %s\n", r.backend.c_str(),
                      r.connections, r.loops, r.skip_reason.c_str());
          continue;
        }
        std::printf("%-9s %6zu %6zu %12.0f %12.1f %12.1f %8.3f %12ld "
                    "%12ld\n",
                    r.backend.c_str(), r.connections, r.loops, r.qps,
                    static_cast<double>(r.rt_p50) / 1000.0,
                    static_cast<double>(r.rt_p99) / 1000.0, r.sys_per_req,
                    r.rss_start_kb, r.rss_end_kb);
        if (connections == 256 && backend == net::NetBackend::kEpoll) {
          if (loops == ladder_loops.front()) ladder_1 = r.qps;
          if (loops == ladder_loops.back()) ladder_n = r.qps;
        }
      }
    }
  }
  PrintRule(97);

  // Tracing overhead pair: the largest grid cell, net_batch, with the
  // flight recorder off vs on at the default 1-in-64 sampling (the
  // always-on observability bar is < 3% QPS cost). The on cell also
  // serves the BOUNCER_BENCH_NET_STATS_OUT live-snapshot hook.
  const auto [trace_conns, trace_flight] = grid.back();
  const net::NetBackend trace_backend = backends.back();
  const CellResult trace_off =
      RunNet(graph, queries, trace_backend, loop_sweep.front(), trace_conns,
             trace_flight, warmup, measure, /*tracing=*/false);
  const CellResult trace_on =
      RunNet(graph, queries, trace_backend, loop_sweep.front(), trace_conns,
             trace_flight, warmup, measure, /*tracing=*/true);
  results.push_back(trace_off);
  results.push_back(trace_on);
  std::printf("\n%-10s %6zu %6zu %9zu %12.0f   (tracing off)\n",
              trace_off.variant.c_str(), trace_off.loops,
              trace_off.connections, trace_off.in_flight, trace_off.qps);
  std::printf("%-10s %6zu %6zu %9zu %12.0f   (tracing on, 1-in-64)\n",
              trace_on.variant.c_str(), trace_on.loops, trace_on.connections,
              trace_on.in_flight, trace_on.qps);
  if (trace_off.qps > 0) {
    std::printf("tracing overhead: %+.2f%%\n",
                100.0 * (trace_off.qps - trace_on.qps) / trace_off.qps);
  }

  const SurgeResult surge =
      RunSurge(graph, queries, capacity_qps, surge_duration);
  std::printf(
      "surge: offered %.0f qps (2x capacity %.0f), responses=%llu "
      "ok=%llu rejections=%llu dropped=%llu\n",
      surge.offered_qps, surge.capacity_qps,
      static_cast<unsigned long long>(surge.responses),
      static_cast<unsigned long long>(surge.ok),
      static_cast<unsigned long long>(surge.rejections),
      static_cast<unsigned long long>(surge.dropped));
  std::printf("surge RSS: %ld kB -> %ld kB (delta %+ld kB)\n",
              surge.rss_start_kb, surge.rss_end_kb,
              surge.rss_end_kb - surge.rss_start_kb);

  // Per-backend syscall cost at the largest grid cell (net_batch, first
  // loop count): the number the io_uring backend exists to shrink.
  std::vector<std::string> summarized;
  for (const CellResult& r : results) {
    if (r.variant == "net_batch" && r.loops == loop_sweep.front() &&
        r.connections == grid.back().first && r.tracing == 0 &&
        r.sys_per_req > 0 &&
        std::find(summarized.begin(), summarized.end(), r.backend) ==
            summarized.end()) {
      summarized.push_back(r.backend);
      std::printf("%s: %.3f syscalls/request at %zu conns\n",
                  r.backend.c_str(), r.sys_per_req, r.connections);
    }
  }

  const double loop_scaling =
      (ladder_1 > 0 && ladder_loops.size() > 1) ? ladder_n / ladder_1 : 0;
  WriteJson(results, ladder, surge, loop_scaling, uring_skip);
  std::printf("wrote BENCH_net_throughput.json\n");
  if (loop_scaling > 0) {
    std::printf("256 conns: loops %zu -> %zu scaling = %.2fx\n",
                ladder_loops.front(), ladder_loops.back(), loop_scaling);
  }
  return 0;
}

}  // namespace
}  // namespace bouncer::bench

int main() { return bouncer::bench::Main(); }
