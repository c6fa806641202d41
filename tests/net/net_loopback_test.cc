// End-to-end loopback tests: NetServer fronting a real Cluster, driven
// by NetClient over 127.0.0.1. This is also the CI smoke test for the
// network front-end (ctest runs it on every push): ~1k queries, every
// one answered, degree answers checked against the graph, and
// rejection status codes verified against a rejecting admission policy.
// The whole suite runs once per event-loop backend (epoll / io_uring;
// io_uring cases skip with the probe's reason where unsupported), plus a
// mixed-backend interop case with both server backends sharing one
// cluster. The "NetLoopback" suite name keeps it inside the TSan job's
// regex.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/tenant_registry.h"
#include "src/graph/cluster.h"
#include "src/graph/graph_generator.h"
#include "src/net/net_client.h"
#include "src/net/net_server.h"
#include "src/stats/metric_registry.h"
#include "src/util/rng.h"
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

Cluster::Options SmallCluster(bool rejecting) {
  Cluster::Options options;
  options.num_brokers = 1;
  options.broker_workers = 2;
  options.num_shards = 2;
  options.shard_workers = 1;
  options.work_per_edge = 4;
  if (rejecting) {
    // A one-deep queue door: every query that arrives while another is
    // queued gets a synchronous early rejection.
    options.broker_policy.kind = PolicyKind::kMaxQueueLength;
    options.broker_policy.max_queue_length.length_limit = 1;
  } else {
    options.broker_policy.kind = PolicyKind::kAlwaysAccept;
  }
  options.shard_policy.kind = PolicyKind::kAlwaysAccept;
  return options;
}

struct LoopbackHarness {
  explicit LoopbackHarness(NetBackend backend, bool rejecting = false)
      : graph(MakeGraph()),
        registry(Cluster::MakeRegistry(Slo{kSecond, 2 * kSecond, 0})),
        cluster(&graph, &registry, SystemClock::Global(),
                SmallCluster(rejecting)) {
    EXPECT_TRUE(cluster.Start().ok());
    NetServer::Options server_options;
    server_options.backend = backend;
    // Every loopback test runs with the tenant dimension wired in: v1
    // traffic lands on the default tenant, so the single-tenant cases
    // double as wire-compat coverage.
    server_options.tenants = &tenants;
    server_options.metrics = &metrics;
    server = std::make_unique<NetServer>(&cluster, server_options);
    EXPECT_TRUE(server->Start().ok());
    EXPECT_EQ(server->backend(), backend);
  }

  ~LoopbackHarness() {
    server->Stop();
    cluster.Stop();
  }

  GraphStore graph;
  QueryTypeRegistry registry;
  Cluster cluster;
  TenantRegistry tenants;
  stats::MetricRegistry metrics;
  std::unique_ptr<NetServer> server;
};

NetClient::Options ClientOptions(uint16_t port, size_t conns,
                                 size_t in_flight) {
  NetClient::Options options;
  options.port = port;
  options.num_connections = conns;
  options.num_io_threads = 2;
  options.in_flight_per_conn = in_flight;
  return options;
}

constexpr uint64_t kDegreeQueries = 1000;

/// Runs 1k degree queries closed-loop against `harness` and checks that
/// every one is answered kOk.
void RunDegreeCheck(LoopbackHarness& harness) {
  const uint32_t num_vertices = harness.graph.num_vertices();
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/8),
      [num_vertices](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        // Deterministic per-connection vertex choice, recoverable from
        // the echoed id for the answer check.
        frame.source =
            static_cast<uint32_t>((conn_index * 7919 + seq * 104'729) %
                                  num_vertices);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.counters().queued < kDegreeQueries &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();

  const auto counters = client.counters();
  EXPECT_EQ(counters.conn_errors, 0u);
  EXPECT_GE(counters.queued, kDegreeQueries);
  EXPECT_EQ(counters.responses, counters.queued) << "every request answered";
  EXPECT_EQ(counters.ok, counters.responses) << "AlwaysAccept serves all";
  EXPECT_EQ(counters.failed, 0u);
}

class NetLoopbackTest : public ::testing::TestWithParam<NetBackend> {};

INSTANTIATE_TEST_SUITE_P(Backends, NetLoopbackTest,
                         ::testing::Values(NetBackend::kEpoll,
                                           NetBackend::kUring),
                         BackendParamName);

TEST_P(NetLoopbackTest, BatchedModeAnswersEveryQuery) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  LoopbackHarness harness(GetParam());
  RunDegreeCheck(harness);
  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_GE(stats.requests, kDegreeQueries);
  EXPECT_EQ(stats.responses, stats.requests);
  EXPECT_EQ(stats.bad_frames, 0u);
  // Batch mode must actually batch: fewer admission episodes than
  // requests (each episode covers a whole wakeup's parse).
  EXPECT_GT(stats.submit_batches, 0u);
  EXPECT_LE(stats.submit_batches, stats.requests);
}

TEST_P(NetLoopbackTest, DegreeAnswersMatchGraph) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  // A raw blocking socket, one request at a time: every kOk value must
  // equal the graph's actual degree of the queried vertex, and the id
  // must echo back verbatim.
  LoopbackHarness harness(GetParam());
  const uint32_t num_vertices = harness.graph.num_vertices();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  for (uint64_t seq = 0; seq < 200; ++seq) {
    RequestFrame request;
    request.id = 0xbeef0000 + seq;
    request.op = static_cast<uint8_t>(GraphOp::kDegree);
    const uint32_t vertex =
        static_cast<uint32_t>((seq * 104'729) % num_vertices);
    request.source = vertex;
    uint8_t out[kRequestFrameBytes];
    const size_t out_bytes = EncodeRequest(request, out);
    ASSERT_EQ(::send(fd, out, out_bytes, 0),
              static_cast<ssize_t>(out_bytes));

    uint8_t in[kResponseFrameBytes];
    size_t got = 0;
    while (got < sizeof(in)) {
      const ssize_t n = ::recv(fd, in + got, sizeof(in) - got, 0);
      ASSERT_GT(n, 0) << "connection died mid-response";
      got += static_cast<size_t>(n);
    }
    ASSERT_EQ(wire::GetU32(in), kResponseBodyBytes);
    ResponseFrame response;
    DecodeResponseBody(in + kLengthPrefixBytes, &response);
    EXPECT_EQ(response.id, request.id);
    ASSERT_EQ(response.status, ResponseStatus::kOk);
    EXPECT_EQ(response.value, harness.graph.Degree(vertex))
        << "wrong degree for vertex " << vertex;
  }
  ::close(fd);
}

TEST_P(NetLoopbackTest, TenantIdsThreadEndToEnd) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  // v2 frames carry external tenant ids; the server interns them and
  // charges per-tenant counters. A v1 (36-byte) frame from an old client
  // lands on the default tenant. One blocking socket keeps it exact.
  LoopbackHarness harness(GetParam());
  const uint32_t num_vertices = harness.graph.num_vertices();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  // (external tenant id, request count): tenant 0 = legacy v1 frames.
  const std::pair<uint64_t, int> kMix[] = {{7, 5}, {9, 3}, {0, 2}};
  uint64_t seq = 0;
  for (const auto& [tenant, count] : kMix) {
    for (int i = 0; i < count; ++i, ++seq) {
      RequestFrame request;
      request.id = 0xfeed0000 + seq;
      request.op = static_cast<uint8_t>(GraphOp::kDegree);
      request.source = static_cast<uint32_t>((seq * 104'729) % num_vertices);
      request.tenant = tenant;
      uint8_t out[kRequestFrameBytes];
      const size_t out_bytes = EncodeRequest(request, out);
      ASSERT_EQ(out_bytes, tenant == 0
                               ? kLengthPrefixBytes + kRequestBodyBytesV1
                               : kRequestFrameBytes);
      ASSERT_EQ(::send(fd, out, out_bytes, 0),
                static_cast<ssize_t>(out_bytes));
      uint8_t in[kResponseFrameBytes];
      size_t got = 0;
      while (got < sizeof(in)) {
        const ssize_t n = ::recv(fd, in + got, sizeof(in) - got, 0);
        ASSERT_GT(n, 0) << "connection died mid-response";
        got += static_cast<size_t>(n);
      }
      ResponseFrame response;
      DecodeResponseBody(in + kLengthPrefixBytes, &response);
      EXPECT_EQ(response.id, request.id);
      EXPECT_EQ(response.status, ResponseStatus::kOk);
    }
  }
  ::close(fd);

  // Per-tenant accounting: exact request/ok splits by dense index.
  for (const auto& [tenant, count] : kMix) {
    TenantId dense = kDefaultTenant;
    if (tenant != 0) {
      const StatusOr<TenantId> found = harness.tenants.Find(tenant);
      ASSERT_TRUE(found.ok()) << "tenant " << tenant << " never interned";
      dense = *found;
      EXPECT_NE(dense, kDefaultTenant);
    }
    const NetServer::TenantStats stats = harness.server->TenantStatsOf(dense);
    EXPECT_EQ(stats.requests, static_cast<uint64_t>(count))
        << "tenant " << tenant;
    EXPECT_EQ(stats.ok, static_cast<uint64_t>(count)) << "tenant " << tenant;
    EXPECT_EQ(stats.rejected, 0u);
  }

  // The admin metric surface renders per-tenant rows keyed by wire id.
  const std::string json = harness.metrics.ToJson();
  EXPECT_NE(json.find("\"tenant.7.requests\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant.9.ok\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant.0.requests\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tenant.count\":3"), std::string::npos) << json;
}

TEST_P(NetLoopbackTest, RejectionCodesReachTheClient) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  // Zero-length broker queue: with 8 connections x 8 in flight, most
  // queries must come back kRejected — synchronously, from the event
  // loop — while some still complete.
  LoopbackHarness harness(GetParam(), /*rejecting=*/true);
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/8, /*in_flight=*/8),
      [](size_t conn_index, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source = static_cast<uint32_t>((conn_index + seq) % 2000);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (client.counters().queued < 2000 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();

  const auto counters = client.counters();
  EXPECT_EQ(counters.responses, counters.queued);
  EXPECT_GT(counters.rejected + counters.shedded, 0u)
      << "rejecting policy produced no rejections";
  EXPECT_GT(counters.ok, 0u) << "nothing completed at all";
  EXPECT_EQ(counters.ok + counters.rejected + counters.shedded +
                counters.expired + counters.failed,
            counters.responses);
  EXPECT_EQ(harness.server->AggregateStats().rejections,
            counters.rejected + counters.shedded);
}

TEST_P(NetLoopbackTest, ManyShortLivedConnections) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  // Slot recycling: connections come and go; the server must keep
  // serving and release every slot (accepted == closed at the end).
  LoopbackHarness harness(GetParam());
  for (int round = 0; round < 5; ++round) {
    NetClient client(
        ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/4),
        [](size_t, uint64_t seq) {
          RequestFrame frame;
          frame.op = static_cast<uint8_t>(GraphOp::kDegree);
          frame.source = static_cast<uint32_t>(seq % 2000);
          return frame;
        });
    ASSERT_TRUE(client.Start().ok());
    client.StartClosedLoop();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (client.counters().queued < 100 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.StopSending();
    ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
    client.Stop();
    EXPECT_EQ(client.counters().conn_errors, 0u);
  }
  // Give the server a beat to observe the FIN of the last round.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  NetServer::Stats stats = harness.server->AggregateStats();
  while (stats.connections_closed < stats.connections_accepted &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = harness.server->AggregateStats();
  }
  EXPECT_EQ(stats.connections_accepted, 20u);
  EXPECT_EQ(stats.connections_closed, 20u);
}

TEST_P(NetLoopbackTest, NodelaySetAndVerifiedOnAcceptedSockets) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  // The server sets TCP_NODELAY on every accepted socket and reads it
  // back with getsockopt at accept time; a failed verification bumps
  // nodelay_failures. Small length-prefixed frames must never sit in a
  // Nagle buffer waiting for an ACK.
  LoopbackHarness harness(GetParam());
  NetClient client(
      ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/2),
      [](size_t, uint64_t seq) {
        RequestFrame frame;
        frame.op = static_cast<uint8_t>(GraphOp::kDegree);
        frame.source = static_cast<uint32_t>(seq % 2000);
        return frame;
      });
  ASSERT_TRUE(client.Start().ok());
  client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (client.counters().responses < 50 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  client.StopSending();
  ASSERT_TRUE(client.WaitForDrain(10 * kSecond));
  client.Stop();

  const NetServer::Stats stats = harness.server->AggregateStats();
  EXPECT_GE(stats.connections_accepted, 4u);
  EXPECT_EQ(stats.nodelay_failures, 0u)
      << "an accepted socket is running without TCP_NODELAY";
}

TEST_P(NetLoopbackTest, PeerResetMidResponseLeavesServerServing) {
  BOUNCER_SKIP_UNLESS_BACKEND_AVAILABLE(GetParam());
  // A client queues a burst of slow requests, half-closes (the server
  // keeps answering what it owes), reads part of the answers, then resets
  // with SO_LINGER {1, 0}. After the half-close, the reset makes the
  // server's next write to that socket fail with EPIPE, which without
  // MSG_NOSIGNAL raises SIGPIPE and kills this process. A second client
  // must then be served in full.
  LoopbackHarness harness(GetParam());
  const uint32_t num_vertices = harness.graph.num_vertices();
  constexpr int kResets = 3;
  constexpr uint64_t kBurst = 1000;  // Under max_inflight_per_conn.
  for (int round = 0; round < kResets; ++round) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(harness.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    const auto* peer = reinterpret_cast<const sockaddr*>(&addr);
    ASSERT_EQ(::connect(fd, peer, sizeof(addr)), 0);
    std::vector<uint8_t> burst;
    for (uint64_t seq = 0; seq < kBurst; ++seq) {
      RequestFrame request;
      request.id = seq;
      // Depth-4 BFS keeps the server owing answers for a while.
      request.op = static_cast<uint8_t>(GraphOp::kDistance4);
      request.source = static_cast<uint32_t>((seq * 104'729) % num_vertices);
      uint8_t out[kRequestFrameBytes];
      const size_t out_bytes = EncodeRequest(request, out);
      burst.insert(burst.end(), out, out + out_bytes);
    }
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
    ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);
    // Mid-response: take one and a half frames, then reset.
    uint8_t in[kResponseFrameBytes + kResponseFrameBytes / 2];
    size_t got = 0;
    while (got < sizeof(in)) {
      const ssize_t n = ::recv(fd, in + got, sizeof(in) - got, 0);
      ASSERT_GT(n, 0) << "connection died before the reset";
      got += static_cast<size_t>(n);
    }
    const linger reset{1, 0};
    ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset)),
              0);
    ::close(fd);
  }

  RunDegreeCheck(harness);
}

TEST(NetLoopbackInteropTest, MixedBackendServersShareOneCluster) {
  // Interop: an epoll server and an io_uring server front the same
  // Cluster on different ports, each driven by its own client
  // concurrently. Worker completions for both route through the same
  // done rings; every request on both paths must be answered and the
  // two servers' stats must stay independent.
  std::string reason;
  if (!NetServer::UringSupported(&reason)) {
    GTEST_SKIP() << "io_uring backend unavailable: " << reason;
  }
  LoopbackHarness harness(NetBackend::kEpoll);
  NetServer::Options uring_options;
  uring_options.backend = NetBackend::kUring;
  NetServer uring_server(&harness.cluster, uring_options);
  ASSERT_TRUE(uring_server.Start().ok());
  ASSERT_EQ(uring_server.backend(), NetBackend::kUring);

  const uint32_t num_vertices = harness.graph.num_vertices();
  const auto sampler = [num_vertices](size_t conn_index, uint64_t seq) {
    RequestFrame frame;
    frame.op = static_cast<uint8_t>(GraphOp::kDegree);
    frame.source = static_cast<uint32_t>(
        (conn_index * 7919 + seq * 104'729) % num_vertices);
    return frame;
  };
  NetClient epoll_client(
      ClientOptions(harness.server->port(), /*conns=*/4, /*in_flight=*/4),
      sampler);
  NetClient uring_client(
      ClientOptions(uring_server.port(), /*conns=*/4, /*in_flight=*/4),
      sampler);
  ASSERT_TRUE(epoll_client.Start().ok());
  ASSERT_TRUE(uring_client.Start().ok());
  epoll_client.StartClosedLoop();
  uring_client.StartClosedLoop();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((epoll_client.counters().queued < 500 ||
          uring_client.counters().queued < 500) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  epoll_client.StopSending();
  uring_client.StopSending();
  ASSERT_TRUE(epoll_client.WaitForDrain(10 * kSecond));
  ASSERT_TRUE(uring_client.WaitForDrain(10 * kSecond));
  epoll_client.Stop();
  uring_client.Stop();

  for (const NetClient* client : {&epoll_client, &uring_client}) {
    const auto counters = client->counters();
    EXPECT_EQ(counters.conn_errors, 0u);
    EXPECT_GE(counters.queued, 500u);
    EXPECT_EQ(counters.responses, counters.queued);
    EXPECT_EQ(counters.ok, counters.responses);
  }
  const NetServer::Stats epoll_stats = harness.server->AggregateStats();
  const NetServer::Stats uring_stats = uring_server.AggregateStats();
  EXPECT_EQ(epoll_stats.backend, NetBackend::kEpoll);
  EXPECT_EQ(uring_stats.backend, NetBackend::kUring);
  EXPECT_EQ(epoll_stats.requests, epoll_client.counters().queued);
  EXPECT_EQ(uring_stats.requests, uring_client.counters().queued);
  uring_server.Stop();
}

}  // namespace
}  // namespace bouncer::net
