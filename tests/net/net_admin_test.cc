// Admin-endpoint and rejection-reason tests: kStatsSnapshot (JSON),
// Prometheus text and kTraceDump fetched from a loaded NetServer via the
// blocking admin client, plus the per-reason rejection counters the
// response flags byte carries back to NetClient. The suite runs once per
// event-loop backend (io_uring cases skip with the probe's reason where
// unsupported) and checks the snapshot's net.backend_io_uring gauge
// reports the backend that served it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/net/admin_client.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"
#include "tests/net/backend_test_util.h"

namespace bouncer::net {
namespace {

using graph::Cluster;
using graph::GraphOp;
using graph::GraphStore;

GraphStore MakeGraph() {
  graph::GeneratorOptions options;
  options.num_vertices = 2'000;
  options.edges_per_vertex = 6;
  return graph::GeneratePreferentialAttachment(options);
}

/// Harness with the full observability plumbing attached: a metric
/// registry shared by cluster and server, and a flight recorder tracing
/// every request (period 1).
struct AdminHarness {
  explicit AdminHarness(NetBackend backend, bool rejecting)
      : graph(MakeGraph()),
        registry(Cluster::MakeRegistry(Slo{kSecond, 2 * kSecond, 0})) {
    stats::FlightRecorder::Options trace_options;
    trace_options.sampling_period = 1;
    recorder.Configure(trace_options);
    recorder.SetEnabled(true);

    Cluster::Options cluster_options;
    cluster_options.num_brokers = 1;
    cluster_options.broker_workers = 2;
    cluster_options.num_shards = 2;
    cluster_options.shard_workers = 1;
    cluster_options.work_per_edge = 4;
    if (rejecting) {
      // One-deep queue door: guaranteed policy rejections under load.
      cluster_options.broker_policy.kind = PolicyKind::kMaxQueueLength;
      cluster_options.broker_policy.max_queue_length.length_limit = 1;
    } else {
      cluster_options.broker_policy.kind = PolicyKind::kBouncer;
    }
    cluster_options.shard_policy.kind = PolicyKind::kAlwaysAccept;
    cluster_options.metrics = &metrics;
    cluster_options.recorder = &recorder;
    cluster = std::make_unique<Cluster>(&graph, &registry,
                                        SystemClock::Global(),
                                        cluster_options);
    EXPECT_TRUE(cluster->Start().ok());

    NetServer::Options server_options;
    server_options.backend = backend;
    server_options.metrics = &metrics;
    server_options.recorder = &recorder;
    server = std::make_unique<NetServer>(cluster.get(), server_options);
    EXPECT_TRUE(server->Start().ok());
    EXPECT_EQ(server->backend(), backend);
  }

  ~AdminHarness() {
    server->Stop();
    cluster->Stop();
  }

  std::unique_ptr<NetClient> MakeLoadClient(size_t conns, size_t in_flight) {
    NetClient::Options options;
    options.port = server->port();
    options.num_connections = conns;
    options.num_io_threads = 2;
    options.in_flight_per_conn = in_flight;
    auto client = std::make_unique<NetClient>(
        options, [](size_t conn_index, uint64_t seq) {
          RequestFrame frame;
          frame.op = static_cast<uint8_t>(GraphOp::kDegree);
          frame.source = static_cast<uint32_t>((conn_index * 7919 + seq) %
                                               2'000);
          return frame;
        });
    EXPECT_TRUE(client->Start().ok());
    return client;
  }

  std::string Fetch(uint8_t op) {
    AdminFetch fetch;
    fetch.port = server->port();
    fetch.op = op;
    std::string payload;
    EXPECT_TRUE(FetchAdmin(fetch, &payload).ok());
    return payload;
  }

  GraphStore graph;
  QueryTypeRegistry registry;
  stats::FlightRecorder recorder;
  stats::MetricRegistry metrics;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<NetServer> server;
};

/// Extracts the u64 immediately following `key` in `text`, or 0.
uint64_t NumberAfter(const std::string& text, const std::string& key) {
  const size_t pos = text.find(key);
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + key.size(), nullptr, 10);
}

class NetAdminTest : public ::testing::TestWithParam<NetBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, NetAdminTest,
                         ::testing::Values(NetBackend::kEpoll,
                                           NetBackend::kUring),
                         BackendParamName);

TEST_P(NetAdminTest, SnapshotsRoundTripUnderLoad) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  AdminHarness harness(GetParam(), /*rejecting=*/false);
  auto client = harness.MakeLoadClient(8, 16);
  client->StartClosedLoop();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));

  // All three admin opcodes answer while the data path is saturated.
  const std::string json = harness.Fetch(kOpStatsJson);
  const std::string prom = harness.Fetch(kOpStatsPrometheus);
  const std::string trace = harness.Fetch(kOpTraceDump);

  client->StopSending();
  client->WaitForDrain(2 * kSecond);
  client->Stop();

  // JSON snapshot: live net counters and the broker's estimate-vs-actual
  // queue-wait error histogram, populated under load.
  EXPECT_GT(NumberAfter(json, "\"net.requests\":"), 0u);
  EXPECT_GT(NumberAfter(json, "\"net.responses\":"), 0u);
  EXPECT_GT(NumberAfter(json, "\"stage.broker-0.completed\":"), 0u);
  const uint64_t err_count =
      NumberAfter(json, "\"stage.broker-0.est_wait_err_under_ns\":{\"count\":") +
      NumberAfter(json, "\"stage.broker-0.est_wait_err_over_ns\":{\"count\":");
  EXPECT_GT(err_count, 0u);
  // The admin request that produced this snapshot counted itself.
  EXPECT_GT(NumberAfter(json, "\"net.admin_requests\":"), 0u);
  // The backend gauge names the event loop that served this fetch.
  ASSERT_NE(json.find("\"net.backend_io_uring\":"), std::string::npos);
  EXPECT_EQ(NumberAfter(json, "\"net.backend_io_uring\":"),
            GetParam() == NetBackend::kUring ? 1u : 0u);

  // Prometheus exposition of the same counters.
  EXPECT_NE(prom.find("# TYPE bouncer_net_requests counter"),
            std::string::npos);
  EXPECT_GT(NumberAfter(prom, "\nbouncer_net_requests "), 0u);
  EXPECT_NE(prom.find("bouncer_stage_broker_0_est_wait_err"),
            std::string::npos);

  // Trace dump: full per-request lifecycle chains landed in the rings.
  EXPECT_NE(trace.find("\"kind\":\"net_parse\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"admission\""), std::string::npos);
  EXPECT_NE(trace.find("\"kind\":\"response_write\""), std::string::npos);
}

TEST_P(NetAdminTest, AdminOnQuiescentServerAndUnknownKindsRefused) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  AdminHarness harness(GetParam(), /*rejecting=*/false);
  const std::string json = harness.Fetch(kOpStatsJson);
  EXPECT_EQ(json.rfind("{\"counters\":{", 0), 0u);  // Valid JSON shape.
  AdminFetch fetch;
  fetch.port = harness.server->port();
  fetch.op = 0x42;  // A graph opcode is not an admin opcode.
  std::string payload;
  EXPECT_FALSE(FetchAdmin(fetch, &payload).ok());
}

TEST_P(NetAdminTest, RejectionReasonsReachTheClient) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  AdminHarness harness(GetParam(), /*rejecting=*/true);
  auto client = harness.MakeLoadClient(4, 8);
  client->StartClosedLoop();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  client->StopSending();
  client->WaitForDrain(2 * kSecond);
  const NetClient::Counters counters = client->counters();
  client->Stop();

  // The one-deep queue forces early policy rejections; their reason code
  // rides the response flags byte into the per-reason client counters.
  EXPECT_GT(counters.rejected, 0u);
  EXPECT_EQ(counters.reason_policy, counters.rejected);
  EXPECT_EQ(counters.reason_queue, counters.shedded);
  EXPECT_EQ(counters.reason_expired, counters.expired);

  // The server distinguished the same reasons per loop.
  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_EQ(stats.rejections_policy, counters.rejected);
  EXPECT_EQ(stats.rejections_queue, counters.shedded);
  EXPECT_EQ(stats.rejections, stats.rejections_policy + stats.rejections_queue);
}

}  // namespace
}  // namespace bouncer::net
