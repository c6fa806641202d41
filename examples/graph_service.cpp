// Minigraph service under a traffic surge: the full real-system stack —
// synthetic social graph, broker/shard cluster, open-loop load generator
// — with Bouncer guarding the broker. Traffic ramps from light load
// through a surge past capacity and back; per-phase stats show early
// rejections kicking in during the surge while serviced queries keep
// meeting their SLOs (the paper's §2 motivation).
//
//   ./build/examples/graph_service
//   ./build/examples/graph_service --surge-qps=2000 --broker-workers=8
//
// With --listen the same stack serves the binary TCP protocol instead of
// an in-process generator; drive it with examples/net_client:
//
//   ./build/examples/graph_service --listen=7317
//   ./build/examples/net_client --port=7317 --qps=500 --duration-s=5
//
//   ./build/examples/graph_service --help

#include <csignal>
#include <cstdio>
#include <thread>

#include "examples/flags.h"
#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/net/net_server.h"
#include "src/server/metrics_collector.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"
#include "src/workload/load_generator.h"

using namespace bouncer;
using namespace bouncer::graph;

namespace {

std::atomic<bool> g_interrupted{false};

void OnSignal(int) { g_interrupted.store(true, std::memory_order_release); }

void PrintHelp() {
  std::printf(
      "graph_service — broker/shard graph cluster with Bouncer at the "
      "door\n\n"
      "  mode\n"
      "  --listen=PORT       serve the TCP protocol on PORT (0 = "
      "ephemeral)\n"
      "                      instead of the in-process surge demo\n"
      "  --serve-seconds=N   with --listen: stop after N s (0 = until "
      "SIGINT)\n"
      "  --loops=N           with --listen: event loops / SO_REUSEPORT\n"
      "                      listeners (default 0 = min(cores, 4))\n"
      "  --backend=KIND      with --listen: event-loop backend — auto,\n"
      "                      epoll, or io_uring (default auto: probe the\n"
      "                      kernel, fall back to epoll)\n\n"
      "  observability\n"
      "  --stats-interval=N  with --listen: print a metric-registry "
      "summary\n"
      "                      every N s (default 2; 0 = quiet)\n"
      "  --trace=0|1         enable the flight recorder (default 1)\n"
      "  --trace-sample=N    trace 1-in-N requests (default 64)\n"
      "  --trace-dump=PATH   dump retained trace events to PATH as JSONL "
      "on\n"
      "                      exit (also served live via net_client "
      "--stats=trace)\n\n"
      "  cluster\n"
      "  --vertices=N        graph size (default 50000)\n"
      "  --brokers=N         broker stages (default 1)\n"
      "  --broker-workers=N  workers per broker (default 4)\n"
      "  --shards=N          shard stages (default 2)\n"
      "  --shard-workers=N   workers per shard (default 1)\n"
      "  --allowance=F       broker acceptance allowance (default 0.10)\n"
      "  --queue-guard=N     broker queue guard limit (default 48)\n"
      "  --tenant-fair=0|1   weighted-fair admission across tenants "
      "(default\n"
      "                      0; stats rows appear as tenant.<id>.*)\n"
      "  --tenant-flood-guard=N  queue depth at which a tenant is capped "
      "at\n"
      "                      its weighted queue share (default 32 when\n"
      "                      --tenant-fair; 0 = off)\n\n"
      "  surge demo\n"
      "  --steady-qps=F      light-load rate (default 300)\n"
      "  --surge-qps=F       surge rate past capacity (default 1400)\n"
      "  --phase-seconds=N   length of each reported phase (default 6)\n");
}

}  // namespace

int main(int argc, char** argv) {
  examples::CliFlags flags(argc, argv);
  if (flags.help()) {
    PrintHelp();
    return 0;
  }
  const bool listen_mode = flags.Has("listen");
  const auto listen_port = static_cast<uint16_t>(flags.GetUint("listen", 0));
  const auto serve_seconds = flags.GetUint("serve-seconds", 0);
  const auto num_loops = flags.GetUint("loops", 0);
  const net::NetBackend backend =
      flags.GetBackend("backend", net::NetBackend::kAuto);
  const auto stats_interval_s = flags.GetUint("stats-interval", 2);
  const bool trace_on = flags.GetBool("trace", true);
  const auto trace_sample = flags.GetUint("trace-sample", 64);
  const std::string trace_dump_path = flags.GetString("trace-dump", "");

  GeneratorOptions graph_options;
  graph_options.num_vertices =
      static_cast<uint32_t>(flags.GetUint("vertices", 50'000));
  graph_options.edges_per_vertex = 8;

  Cluster::Options options;
  options.num_brokers = flags.GetUint("brokers", 1);
  options.broker_workers = flags.GetUint("broker-workers", 4);
  options.num_shards = flags.GetUint("shards", 2);
  options.shard_workers = flags.GetUint("shard-workers", 1);
  options.broker_policy.kind = PolicyKind::kBouncerWithAllowance;
  options.broker_policy.bouncer.histogram_swap_interval = 2 * kSecond;
  options.broker_policy.bouncer.min_samples_to_publish = 5;
  options.broker_policy.allowance.allowance =
      flags.GetDouble("allowance", 0.10);
  options.broker_policy.queue_guard_limit = flags.GetUint("queue-guard", 48);
  options.shard_policy.kind = PolicyKind::kAcceptFraction;
  options.shard_policy.accept_fraction.max_utilization = 0.98;

  // Multi-tenant admission: requests carrying a wire tenant id are
  // interned here; --tenant-fair adds the weighted-fair layer on the
  // brokers. The registry is cheap when unused (single-tenant traffic
  // all lands on the pre-interned default tenant).
  TenantRegistry tenant_registry;
  options.tenants = &tenant_registry;
  const bool tenant_fair = flags.GetBool("tenant-fair", false);
  const uint64_t tenant_flood_guard =
      flags.GetUint("tenant-flood-guard", tenant_fair ? 32 : 0);
  if (tenant_fair) {
    options.broker_policy.tenant_fair = true;
    options.broker_policy.tenant_fair_options.flood_guard_limit =
        tenant_flood_guard;
  }

  const double steady_qps = flags.GetDouble("steady-qps", 300);
  const double surge_qps = flags.GetDouble("surge-qps", 1400);
  const Nanos phase_duration =
      static_cast<Nanos>(flags.GetUint("phase-seconds", 6)) * kSecond;

  const auto unknown = flags.Unknown();
  if (!unknown.empty()) {
    for (const auto& flag : unknown) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", flag.c_str());
    }
    return 1;
  }

  std::printf("generating graph (%u vertices)...\n",
              graph_options.num_vertices);
  const GraphStore graph = GeneratePreferentialAttachment(graph_options);
  std::printf("graph ready: %u vertices, %llu edges\n", graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()));

  // Observability: one process-wide metric registry every layer publishes
  // into, plus the flight recorder sampling 1-in-N request lifecycles.
  stats::MetricRegistry metric_registry;
  stats::FlightRecorder& recorder = stats::FlightRecorder::Global();
  if (stats::kTraceCompiledIn && trace_on) {
    stats::FlightRecorder::Options trace_options;
    trace_options.sampling_period =
        trace_sample == 0 ? 1 : static_cast<uint32_t>(trace_sample);
    recorder.Configure(trace_options);
    recorder.SetEnabled(true);
  }
  options.metrics = &metric_registry;

  // Cluster: brokers run Bouncer + acceptance-allowance at the door,
  // shards run AcceptFraction as the CPU backstop.
  const Slo slo{18 * kMillisecond, 50 * kMillisecond, 0};
  QueryTypeRegistry registry = Cluster::MakeRegistry(slo);
  Cluster cluster(&graph, &registry, SystemClock::Global(), options);
  if (Status s = cluster.Start(); !s.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", s.ToString().c_str());
    return 1;
  }

  if (listen_mode) {
    net::NetServer::Options server_options;
    server_options.port = listen_port;
    server_options.num_loops = num_loops;
    server_options.backend = backend;
    server_options.metrics = &metric_registry;
    server_options.tenants = &tenant_registry;
    net::NetServer server(&cluster, server_options);
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    std::signal(SIGINT, OnSignal);
    std::signal(SIGTERM, OnSignal);
    std::printf("listening on %s:%u (%s backend, %zu loop%s%s)\n",
                server_options.bind_address.c_str(), server.port(),
                net::NetBackendName(server.backend()), server.num_loops(),
                server.num_loops() == 1 ? "" : "s",
                server.handoff_mode() ? ", fd-handoff fallback" : "");
    if (!server.backend_fallback_reason().empty()) {
      std::printf("  (io_uring unavailable: %s)\n",
                  server.backend_fallback_reason().c_str());
    }
    std::fflush(stdout);
    const Nanos stop_at =
        serve_seconds == 0
            ? 0
            : SystemClock::Global()->Now() +
                  static_cast<Nanos>(serve_seconds) * kSecond;
    const Nanos interval = static_cast<Nanos>(stats_interval_s) * kSecond;
    Nanos next_report =
        interval == 0 ? 0 : SystemClock::Global()->Now() + interval;
    uint64_t last_requests = 0;
    while (!g_interrupted.load(std::memory_order_acquire)) {
      const Nanos now = SystemClock::Global()->Now();
      if (stop_at != 0 && now >= stop_at) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (interval == 0 || now < next_report) continue;
      next_report = now + interval;
      const net::NetServer::Stats stats = server.AggregateStats();
      if (stats.requests == last_requests) continue;
      last_requests = stats.requests;
      std::printf(
          "conns=%llu requests=%llu rejected=%llu (policy=%llu "
          "queue=%llu) shard-fail=%llu expired=%llu batches=%llu "
          "pauses=%llu admin=%llu\n",
          static_cast<unsigned long long>(stats.connections_accepted -
                                          stats.connections_closed),
          static_cast<unsigned long long>(stats.requests),
          static_cast<unsigned long long>(stats.rejections),
          static_cast<unsigned long long>(stats.rejections_policy),
          static_cast<unsigned long long>(stats.rejections_queue),
          static_cast<unsigned long long>(stats.failures_shard),
          static_cast<unsigned long long>(stats.expirations),
          static_cast<unsigned long long>(stats.submit_batches),
          static_cast<unsigned long long>(stats.pauses),
          static_cast<unsigned long long>(stats.admin_requests));
      // One registry line per interval: the broker estimate-error
      // histograms are the live Eq. 2 health check.
      const stats::MetricSnapshot snap = metric_registry.Snapshot();
      for (const auto& [name, summary] : snap.histograms) {
        if (name.find("est_wait_err") == std::string::npos) continue;
        if (summary.count == 0) continue;
        std::printf("  %s: n=%llu mean=%.3fms p99=%.3fms\n", name.c_str(),
                    static_cast<unsigned long long>(summary.count),
                    ToMillis(static_cast<Nanos>(summary.mean)),
                    ToMillis(summary.p99));
      }
      std::fflush(stdout);
    }
    server.Stop();
    cluster.Stop();
    std::printf("served %llu requests\n",
                static_cast<unsigned long long>(
                    server.AggregateStats().requests));
    if (!trace_dump_path.empty()) {
      if (recorder.DumpToFile(trace_dump_path.c_str())) {
        std::printf("trace dump written to %s\n", trace_dump_path.c_str());
      } else {
        std::fprintf(stderr, "trace dump to %s failed\n",
                     trace_dump_path.c_str());
      }
    }
    return 0;
  }

  const workload::WorkloadSpec mix = workload::PaperRealSystemMix();
  server::MetricsCollector metrics(registry.size());
  Rng query_rng(1);

  const struct {
    const char* label;
    double qps;
  } phases[] = {
      {"warm-up (not reported)", steady_qps},
      {"steady (light load)", steady_qps},
      {"surge (past capacity)", surge_qps},
      {"recovery", steady_qps},
  };

  std::printf("\n%-24s %9s %9s %9s %12s %12s\n", "phase", "received",
              "rejected", "rej %", "QT11 rt_p50", "QT11 rt_p90");
  for (const auto& phase : phases) {
    metrics.Reset();
    workload::LoadGenerator::Options generator_options;
    generator_options.rate_qps = phase.qps;
    generator_options.duration =
        phase.label[0] == 'w' ? 5 * kSecond : phase_duration;
    workload::LoadGenerator generator(
        &mix, generator_options, [&](size_t type_index) {
          const GraphQuery query = Cluster::SampleQuery(
              static_cast<GraphOp>(type_index), graph, query_rng);
          cluster.Submit(query, /*deadline=*/0,
                         [&metrics](const server::WorkItem& item,
                                    server::Outcome outcome,
                                    const GraphQueryResult& result) {
                           if (outcome == server::Outcome::kCompleted &&
                               !result.ok) {
                             outcome = server::Outcome::kShedded;
                           }
                           metrics.Record(item, outcome);
                         });
        });
    generator.Run();
    // Let in-flight queries finish before reading the phase's numbers.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    if (phase.label[0] == 'w') continue;  // Warm-up phase: discard.
    const auto overall = metrics.Overall();
    const auto qt11 = metrics.Report(Cluster::TypeIdFor(GraphOp::kDistance4));
    std::printf("%-24s %9lu %9lu %8.2f%% %10.2fms %10.2fms\n", phase.label,
                static_cast<unsigned long>(overall.received),
                static_cast<unsigned long>(overall.rejected),
                overall.rejection_pct, qt11.rt_p50_ms, qt11.rt_p90_ms);
  }
  cluster.Stop();
  std::printf("\nDuring the surge Bouncer sheds the expensive QT11 queries "
              "early (clients can fail over\nimmediately) and keeps the "
              "serviced ones near the 18ms/50ms SLOs.\n");
  return 0;
}
