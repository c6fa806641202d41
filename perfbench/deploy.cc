// Workload table, the seeded request stream, fingerprints, and the
// deployment (graph + cluster + optional NetServer + client connections).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "perfbench/bench.h"
#include "src/graph/graph_generator.h"

namespace perfbench {

using bouncer::PolicyKind;
using bouncer::graph::Cluster;
using bouncer::graph::GraphOp;
using bouncer::graph::GraphStore;

namespace {

// name, tcp, rate_qps, tenant_fair, num_tenants, lookup_mix, warmup.
const Workload kWorkloads[] = {
    {"paper_overload", false, 4500, false, 0, false, 6 * kSecond},
    {"lookup_open", true, 100'000, true, 10'000, true, 4 * kSecond},
};

/// Paper §5.4 QT1..QT11 proportions as published (they sum to 1.0001;
/// sampling normalizes).
constexpr double kPaperMix[bouncer::graph::kNumGraphOps] = {
    0.1156, 0.0004, 0.0004, 0.0234, 0.1344, 0.1344,
    0.0042, 0.0009, 0.2635, 0.0449, 0.2780};

/// Share of QT1 (degree) in the lookup mix; the rest is QT2 (neighbors).
constexpr double kLookupDegreeShare = 0.9;

std::vector<double> ZipfCdf(size_t n) {
  std::vector<double> cdf(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / static_cast<double>(k + 1);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

RequestStream::RequestStream(const Workload& workload, const GraphStore& graph,
                             uint64_t seed, uint64_t stream, double rate_qps)
    : workload_(workload),
      graph_(graph),
      rng_(HashCombine(seed, stream)),
      mean_gap_ns_(rate_qps > 0 ? 1e9 / rate_qps : 0) {
  if (workload.num_tenants > 0) zipf_cdf_ = ZipfCdf(workload.num_tenants);
}

Request RequestStream::Next(Nanos* gap) {
  Request r;
  const double u = rng_.NextDouble();
  if (workload_.lookup_mix) {
    r.op = static_cast<uint8_t>(u < kLookupDegreeShare ? GraphOp::kDegree
                                                       : GraphOp::kNeighbors);
  } else {
    double total = 0;
    for (double p : kPaperMix) total += p;
    double acc = 0;
    r.op = bouncer::graph::kNumGraphOps - 1;
    for (size_t i = 0; i < bouncer::graph::kNumGraphOps; ++i) {
      acc += kPaperMix[i] / total;
      if (u < acc) {
        r.op = static_cast<uint8_t>(i);
        break;
      }
    }
  }
  const uint32_t n = std::max<uint32_t>(graph_.num_vertices(), 1);
  r.source = rng_.NextBounded(n);
  r.target = rng_.NextBounded(n);
  if (r.op == static_cast<uint8_t>(GraphOp::kDegreeByExternalId)) {
    r.external_id = graph_.ExternalId(r.source);
  }
  if (!zipf_cdf_.empty()) {
    const double t = rng_.NextDouble();
    const auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), t);
    const size_t rank =
        std::min<size_t>(it - zipf_cdf_.begin(), zipf_cdf_.size() - 1);
    r.tenant = rank + 1;
  }
  const double g = rng_.NextDouble();
  *gap = mean_gap_ns_ > 0
             ? static_cast<Nanos>(-std::log1p(-g) * mean_gap_ns_)
             : 0;
  return r;
}

uint64_t FingerprintStream(const Workload& workload, const GraphStore& graph,
                           uint64_t seed, uint64_t stream, double rate_qps,
                           size_t count) {
  RequestStream requests(workload, graph, seed, stream, rate_qps);
  uint64_t h = HashCombine(seed, stream);
  for (size_t i = 0; i < count; ++i) {
    Nanos gap = 0;
    const Request r = requests.Next(&gap);
    h = HashCombine(h, r.op);
    h = HashCombine(h, (static_cast<uint64_t>(r.source) << 32) | r.target);
    h = HashCombine(h, r.external_id);
    h = HashCombine(h, r.tenant);
    h = HashCombine(h, static_cast<uint64_t>(gap));
  }
  return h;
}

GraphFingerprint FingerprintGraph(const GraphStore& graph) {
  GraphFingerprint f;
  f.vertices = graph.num_vertices();
  f.edges = graph.num_edges();
  uint64_t h = 0;
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    h = HashCombine(h, graph.Degree(v));
    h = HashCombine(h, graph.ExternalId(v));
  }
  f.hash = h;
  return f;
}

std::unique_ptr<Deployment> Deployment::Create(const Workload& workload,
                                               Nanos begin, SetupTimes* times,
                                               std::string* error) {
  std::unique_ptr<Deployment> d(new Deployment());

  Nanos t = Now();
  bouncer::graph::GeneratorOptions graph_options;
  graph_options.num_vertices = kGraphVertices;
  graph_options.edges_per_vertex = kEdgesPerVertex;
  graph_options.seed = kGraphSeed;
  d->graph = bouncer::graph::GeneratePreferentialAttachment(graph_options);
  times->graph_build_s = bouncer::ToSeconds(Now() - t);

  t = Now();
  d->registry = std::make_unique<bouncer::QueryTypeRegistry>(
      Cluster::MakeRegistry(bouncer::Slo{kSloP50, kSloP90, 0}));
  d->shard_metrics =
      std::make_unique<bouncer::server::MetricsCollector>(d->registry->size());
  d->shard_metrics->SetRecording(false);
  Cluster::Options options;
  options.num_brokers = kBrokers;
  options.broker_workers = kBrokerWorkers;
  options.num_shards = kShards;
  options.shard_workers = kShardWorkers;
  options.broker_policy.kind = PolicyKind::kBouncerWithAllowance;
  options.broker_policy.bouncer.histogram_swap_interval = 2 * kSecond;
  options.broker_policy.bouncer.min_samples_to_publish = 5;
  options.broker_policy.allowance.allowance = 0.10;
  options.broker_policy.queue_guard_limit = 48;
  options.shard_policy.kind = PolicyKind::kAcceptFraction;
  options.shard_policy.accept_fraction.max_utilization = 0.98;
  if (workload.tenant_fair) {
    options.broker_policy.tenant_fair = true;
    options.broker_policy.tenant_fair_options.flood_guard_limit = 32;
  }
  options.tenants = &d->tenants;
  options.metrics = &d->metrics;
  options.shard_metrics = d->shard_metrics.get();
  d->cluster = std::make_unique<Cluster>(&d->graph, d->registry.get(),
                                         bouncer::SystemClock::Global(),
                                         options);
  if (bouncer::Status s = d->cluster->Start(); !s.ok()) {
    *error = "cluster start failed: " + s.ToString();
    return nullptr;
  }
  times->server_start_s = bouncer::ToSeconds(Now() - t);

  if (workload.tcp) {
    t = Now();
    bouncer::net::NetServer::Options server_options;
    server_options.num_loops = kNetLoops;
    server_options.backend = bouncer::net::NetBackend::kAuto;
    server_options.metrics = &d->metrics;
    server_options.tenants = &d->tenants;
    d->server = std::make_unique<bouncer::net::NetServer>(d->cluster.get(),
                                                          server_options);
    if (bouncer::Status s = d->server->Start(); !s.ok()) {
      *error = "server start failed: " + s.ToString();
      return nullptr;
    }
    times->net_start_s = bouncer::ToSeconds(Now() - t);
    t = Now();
    if (!d->ConnectBalanced(error)) return nullptr;
    times->connect_s = bouncer::ToSeconds(Now() - t);
  }
  times->total_s = bouncer::ToSeconds(Now() - begin);
  return d;
}

Deployment::~Deployment() {
  for (int fd : client_fds) ::close(fd);
  if (server) server->Stop();
  server.reset();
  if (cluster) cluster->Stop();
  cluster.reset();
}

namespace {

/// Waits until `pred` holds or two seconds pass.
template <typename Pred>
bool WaitFor(Pred pred) {
  const Nanos deadline = Now() + 2 * kSecond;
  while (!pred()) {
    if (Now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

}  // namespace

bool Deployment::ConnectBalanced(std::string* error) {
  // Connections are opened one at a time; the loop whose accept counter
  // moved owns the new one. A connection that lands on a loop already
  // holding its share is closed and retried (a new source port rehashes
  // it), so every loop ends up with kConnections / loops connections.
  const size_t loops = server->num_loops();
  if (loops == 0 || kConnections % loops != 0) {
    *error = "connections do not divide evenly over the server loops";
    return false;
  }
  const size_t quota = kConnections / loops;
  std::vector<size_t> kept(loops, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server->port());
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  for (size_t c = 0; c < kConnections; ++c) {
    for (int attempt = 0;; ++attempt) {
      if (attempt == 64) {
        *error = "could not balance connections over the server loops";
        return false;
      }
      std::vector<uint64_t> before(loops);
      for (size_t i = 0; i < loops; ++i) {
        before[i] = server->LoopStats(i).connections_accepted;
      }
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0 ||
          ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        *error = std::string("connect failed: ") + std::strerror(errno);
        if (fd >= 0) ::close(fd);
        return false;
      }
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      size_t loop = loops;
      WaitFor([&] {
        for (size_t i = 0; i < loops; ++i) {
          if (server->LoopStats(i).connections_accepted > before[i]) {
            loop = i;
            return true;
          }
        }
        return false;
      });
      if (loop == loops) {
        ::close(fd);
        *error = "server never adopted a connection";
        return false;
      }
      if (kept[loop] < quota) {
        ++kept[loop];
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
        client_fds.push_back(fd);
        client_loop.push_back(loop);
        break;
      }
      const uint64_t closed = server->LoopStats(loop).connections_closed;
      ::close(fd);
      WaitFor([&] {
        return server->LoopStats(loop).connections_closed > closed;
      });
    }
  }
  // Order the connections by loop so client thread t (connections t,
  // t + kClientThreads, ...) always talks to the same loops, whatever the
  // SO_REUSEPORT hash did.
  std::vector<size_t> order(client_fds.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return client_loop[a] < client_loop[b];
  });
  std::vector<int> fds;
  std::vector<size_t> fd_loops;
  for (size_t i : order) {
    fds.push_back(client_fds[i]);
    fd_loops.push_back(client_loop[i]);
  }
  client_fds = std::move(fds);
  client_loop = std::move(fd_loops);
  for (size_t i = 0; i < loops; ++i) {
    const auto s = server->LoopStats(i);
    if (s.connections_accepted - s.connections_closed != quota) {
      *error = "loop " + std::to_string(i) + " holds " +
               std::to_string(s.connections_accepted - s.connections_closed) +
               " connections, want " + std::to_string(quota);
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
