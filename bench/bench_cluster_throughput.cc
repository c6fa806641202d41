// Real-cluster scatter-gather throughput: a closed-loop driver keeps a
// fixed window of queries in flight against the in-process broker/shard
// cluster and measures sustained completions/sec plus the end-to-end
// latency distribution at the real-study topology, sweeping broker/shard
// worker counts at larger scales. This is the cluster's closed-loop
// capacity figure. Both tiers run AlwaysAccept so the bench measures the
// data path, not admission behavior. Results are printed as a table and
// written to BENCH_cluster_throughput.json.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "bench/real_common.h"
#include "src/graph/cluster.h"
#include "src/stats/histogram.h"
#include "src/util/rng.h"
#include "src/workload/workload_spec.h"

namespace bouncer::bench {
namespace {

using graph::Cluster;
using graph::GraphOp;
using graph::GraphQuery;
using graph::GraphQueryResult;
using graph::GraphStore;

/// Outstanding queries in the closed loop: enough to keep every broker
/// and shard worker of the largest swept topology busy with a queue
/// behind it, small enough that queueing delay stays bounded.
constexpr size_t kWindow = 32;

struct CellResult {
  size_t broker_workers = 0;
  size_t shard_workers = 0;
  double seconds = 0;
  uint64_t completed = 0;
  double qps = 0;
  Nanos rt_p50 = 0;
  Nanos rt_p99 = 0;
  uint64_t shard_failures = 0;
};

/// Shared state of one closed-loop run. Completion callbacks capture a
/// pointer to this plus their submit timestamp (16 trivially-copyable
/// bytes, inside std::function's small-buffer), so driving the loop
/// allocates nothing per query.
struct BenchState {
  Cluster* cluster = nullptr;
  const std::vector<GraphQuery>* queries = nullptr;
  std::atomic<uint64_t> cursor{0};
  std::atomic<uint64_t> completed{0};
  std::atomic<bool> recording{false};
  std::atomic<bool> stop{false};
  std::atomic<size_t> in_flight{0};
  stats::Histogram rt;

  void SubmitNext();
};

void BenchState::SubmitNext() {
  const uint64_t i =
      cursor.fetch_add(1, std::memory_order_relaxed) % queries->size();
  const Nanos t0 = SystemClock::Global()->Now();
  BenchState* state = this;
  cluster->Submit(
      (*queries)[i], /*deadline=*/0,
      [state, t0](const server::WorkItem&, server::Outcome,
                  const GraphQueryResult&) {
        if (state->recording.load(std::memory_order_relaxed)) {
          state->rt.Record(SystemClock::Global()->Now() - t0);
          state->completed.fetch_add(1, std::memory_order_relaxed);
        }
        if (!state->stop.load(std::memory_order_acquire)) {
          state->SubmitNext();  // Keep the window full.
        } else {
          state->in_flight.fetch_sub(1, std::memory_order_acq_rel);
        }
      });
}

CellResult RunCell(const GraphStore& graph_store, size_t broker_workers,
                   size_t shard_workers,
                   const std::vector<GraphQuery>& queries, Nanos warmup,
                   Nanos measure) {
  const Slo slo{kSecond, 2 * kSecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);

  // Real-study topology (DefaultRealParams) with swept worker counts and
  // wide-open admission: the bench isolates scatter-gather cost.
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = broker_workers;
  options.num_shards = 2;
  options.shard_workers = shard_workers;
  options.work_per_edge = 24;
  options.broker_queue_capacity = 1 << 15;
  options.shard_queue_capacity = 1 << 15;
  options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  Cluster cluster(&graph_store, &registry, SystemClock::Global(), options);
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    std::exit(1);
  }

  BenchState state;
  state.cluster = &cluster;
  state.queries = &queries;
  state.in_flight.store(kWindow, std::memory_order_relaxed);
  for (size_t i = 0; i < kWindow; ++i) state.SubmitNext();

  std::this_thread::sleep_for(std::chrono::nanoseconds(warmup));
  state.recording.store(true, std::memory_order_relaxed);
  const auto measure_start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::nanoseconds(measure));
  state.recording.store(false, std::memory_order_relaxed);
  const auto measure_end = std::chrono::steady_clock::now();

  state.stop.store(true, std::memory_order_release);
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (state.in_flight.load(std::memory_order_acquire) > 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  cluster.Stop();

  CellResult r;
  r.broker_workers = broker_workers;
  r.shard_workers = shard_workers;
  r.seconds =
      std::chrono::duration<double>(measure_end - measure_start).count();
  r.completed = state.completed.load();
  r.qps = static_cast<double>(r.completed) / r.seconds;
  r.rt_p50 = state.rt.Percentile(0.5);
  r.rt_p99 = state.rt.Percentile(0.99);
  r.shard_failures = cluster.shard_failures();
  return r;
}

void WriteJson(const std::vector<CellResult>& results) {
  std::FILE* f = std::fopen("BENCH_cluster_throughput.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"cluster_throughput\",\n");
  WriteHostJsonFields(f);
  std::fprintf(f, "  \"window\": %zu,\n  \"cells\": [\n", kWindow);
  for (size_t i = 0; i < results.size(); ++i) {
    const CellResult& r = results[i];
    std::fprintf(
        f,
        "    {\"broker_workers\": %zu, \"shard_workers\": %zu, "
        "\"seconds\": %.3f, \"completed\": %llu, \"qps\": %.0f, "
        "\"rt_p50_us\": %.1f, \"rt_p99_us\": %.1f, "
        "\"shard_failures\": %llu}%s\n",
        r.broker_workers, r.shard_workers, r.seconds,
        static_cast<unsigned long long>(r.completed), r.qps,
        static_cast<double>(r.rt_p50) / 1000.0,
        static_cast<double>(r.rt_p99) / 1000.0,
        static_cast<unsigned long long>(r.shard_failures),
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int Main() {
  PrintPreamble("bench_cluster_throughput",
                "closed-loop broker/shard cluster throughput");
  const RealStudyParams params = DefaultRealParams();
  const GraphStore& graph_store = SharedGraph(params);

  Nanos warmup = 200 * kMillisecond;
  Nanos measure = 500 * kMillisecond;
  if (BenchScale() == 1) {
    warmup = 500 * kMillisecond;
    measure = 2 * kSecond;
  } else if (BenchScale() >= 2) {
    warmup = kSecond;
    measure = 5 * kSecond;
  }

  // Pre-generated §5.4 query mix: the driver only bumps an atomic cursor.
  const workload::WorkloadSpec mix = workload::PaperRealSystemMix();
  Rng rng(7);
  std::vector<GraphQuery> queries;
  queries.reserve(1 << 14);
  for (size_t i = 0; i < (1 << 14); ++i) {
    const size_t type_index = mix.SampleType(rng);
    queries.push_back(Cluster::SampleQuery(static_cast<GraphOp>(type_index),
                                           graph_store, rng));
  }

  // (broker_workers, shard_workers) sweep; the first point is the
  // real-study topology.
  std::vector<std::pair<size_t, size_t>> grid = {{4, 1}};
  if (BenchScale() >= 1) {
    grid.push_back({2, 1});
    grid.push_back({8, 1});
    grid.push_back({4, 2});
    grid.push_back({8, 2});
  }

  std::printf("%8s %8s %12s %12s %12s %10s\n", "brk_wrk", "shd_wrk", "qps",
              "p50_us", "p99_us", "failures");
  PrintRule(69);
  std::vector<CellResult> results;
  for (const auto& [brokers, shards] : grid) {
    const CellResult r =
        RunCell(graph_store, brokers, shards, queries, warmup, measure);
    std::printf("%8zu %8zu %12.0f %12.1f %12.1f %10llu\n", r.broker_workers,
                r.shard_workers, r.qps, static_cast<double>(r.rt_p50) / 1000.0,
                static_cast<double>(r.rt_p99) / 1000.0,
                static_cast<unsigned long long>(r.shard_failures));
    results.push_back(r);
  }
  PrintRule(69);
  WriteJson(results);
  std::printf("wrote BENCH_cluster_throughput.json\n");

  return 0;
}

}  // namespace
}  // namespace bouncer::bench

int main() { return bouncer::bench::Main(); }
