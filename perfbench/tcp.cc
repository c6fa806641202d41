// lookup_open: the benchmark's own open-loop loopback TCP client.
// kClientThreads threads each own an equal share of the kConnections
// connections (epoll over them) and pace each connection's Poisson
// departures; frames are the wire protocol's v2 requests (tenant id).
// Request ids are unique across connections and windows, so
// flight-recorder events join by id.

#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "perfbench/bench.h"
#include "src/net/protocol.h"

namespace perfbench {

using bouncer::net::NetServer;
using bouncer::net::ResponseFrame;
using bouncer::net::ResponseStatus;

namespace {

constexpr size_t kInflightSlots = 1 << 15;  ///< Per connection (power of 2).
constexpr size_t kTxLimit = 1 << 20;        ///< Local backlog before drops.
constexpr uint64_t kSeqBits = 40;
/// Traced runs: a smaller share of the client-sampled requests joining
/// the recorder's events fails the run.
constexpr double kMinJoinShare = 0.95;

struct Inflight {
  uint64_t id = 0;
  Nanos intended = 0;
  Nanos sent = 0;
  uint32_t source = 0;
  uint8_t op = 0;
  bool live = false;
};

struct Conn {
  int fd = -1;
  uint64_t tag = 0;  ///< High id bits: unique per (window, connection).
  std::unique_ptr<RequestStream> stream;
  Request next;      ///< Open loop: the request due at next_due.
  Nanos next_due = 0;
  Nanos next_gap = 0;
  /// Pending request bytes [tx_off, size()); capacity is reserved and
  /// touched up front so backpressure episodes do not grow the RSS.
  std::vector<uint8_t> tx;
  size_t tx_off = 0;
  std::vector<uint8_t> rx = std::vector<uint8_t>(1 << 16);
  size_t rx_len = 0;
  std::vector<Inflight> inflight = std::vector<Inflight>(kInflightSlots);
  uint64_t next_seq = 0;
  uint64_t outstanding = 0;
  bool broken = false;
  bool want_out = false;
};

class ClientThread {
 public:
  ClientThread(const bouncer::graph::GraphStore& graph,
               std::vector<Conn*> conns, Nanos start, Nanos stop, bool traced)
      : graph_(graph),
        conns_(std::move(conns)),
        start_(start),
        stop_(stop),
        traced_(traced) {}

  void Run() {
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (Conn* c : conns_) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.ptr = c;
      ::epoll_ctl(ep_, EPOLL_CTL_ADD, c->fd, &ev);
      c->next = c->stream->Next(&c->next_gap);
      c->next_due = start_;
    }
    const Nanos drain_deadline = stop_ + 10 * kSecond;
    epoll_event events[16];
    for (;;) {
      const Nanos now = Now();
      if (now >= start_ && now < stop_) {
        for (Conn* c : conns_) Fill(c, now);
      } else if (now >= stop_ && Idle()) {
        break;
      }
      if (now > drain_deadline) break;
      for (Conn* c : conns_) {
        if (!c->broken && c->tx_off < c->tx.size()) Flush(c);
      }
      Nanos wait = now < stop_ ? 10 * kMillisecond : kMillisecond;
      if (now < stop_) {
        for (const Conn* c : conns_) {
          if (!c->broken) wait = std::min(wait, c->next_due - Now());
        }
        wait = std::max<Nanos>(wait, 0);
      }
      timespec ts{wait / kSecond, wait % kSecond};
      const int n = ::epoll_pwait2(ep_, events, 16, &ts, nullptr);
      for (int i = 0; i < n; ++i) {
        Conn* c = static_cast<Conn*>(events[i].data.ptr);
        if (c->broken) continue;
        if (events[i].events & EPOLLOUT) Flush(c);
        if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) Read(c);
      }
    }
    for (Conn* c : conns_) {
      tally.fates[kPending] += c->outstanding;
      if (!c->broken) ::epoll_ctl(ep_, EPOLL_CTL_DEL, c->fd, nullptr);
    }
    ::close(ep_);
  }

  Tally tally;
  std::vector<ClientSpan> spans;
  std::string first_error;

 private:
  bool Idle() const {
    for (const Conn* c : conns_) {
      if (!c->broken && c->outstanding > 0) return false;
    }
    return true;
  }

  /// Dispatches every departure of `c` due by `now`.
  void Fill(Conn* c, Nanos now) {
    while (c->next_due <= now) {
      Dispatch(c, c->next, c->next_due, now);
      c->next_due += c->next_gap;
      c->next = c->stream->Next(&c->next_gap);
    }
  }

  void Dispatch(Conn* c, const Request& r, Nanos intended, Nanos now) {
    ++tally.sent;
    const uint64_t seq = c->next_seq++;
    Inflight& slot = c->inflight[seq & (kInflightSlots - 1)];
    if (c->broken || slot.live || c->tx.size() - c->tx_off > kTxLimit) {
      ++tally.fates[kDropped];
      return;
    }
    bouncer::net::RequestFrame frame;
    frame.id = (c->tag << kSeqBits) | seq;
    frame.op = r.op;
    frame.source = r.source;
    frame.target = r.target;
    frame.external_id = r.external_id;
    frame.tenant = r.tenant;
    const size_t old = c->tx.size();
    c->tx.resize(old + bouncer::net::kRequestFrameBytes);
    c->tx.resize(old + bouncer::net::EncodeRequest(frame, c->tx.data() + old));
    slot = Inflight{frame.id, intended, now, r.source, r.op, true};
    ++c->outstanding;
    tally.send_lag.Record(now - intended);
  }

  void SetWantOut(Conn* c, bool on) {
    if (c->want_out == on) return;
    c->want_out = on;
    epoll_event ev{};
    ev.events = on ? EPOLLIN | EPOLLOUT : EPOLLIN;
    ev.data.ptr = c;
    ::epoll_ctl(ep_, EPOLL_CTL_MOD, c->fd, &ev);
  }

  void Flush(Conn* c) {
    while (c->tx_off < c->tx.size()) {
      const ssize_t n =
          ::send(c->fd, c->tx.data() + c->tx_off, c->tx.size() - c->tx_off,
                 MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c->tx_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (c->tx_off > (1 << 16)) {
          c->tx.erase(c->tx.begin(),
                      c->tx.begin() + static_cast<ptrdiff_t>(c->tx_off));
          c->tx_off = 0;
        }
        SetWantOut(c, true);
        return;
      }
      Fail(c, n < 0 ? errno : EPIPE);
      return;
    }
    c->tx.clear();
    c->tx_off = 0;
    SetWantOut(c, false);
  }

  void Read(Conn* c) {
    for (;;) {
      const ssize_t n = ::recv(c->fd, c->rx.data() + c->rx_len,
                               c->rx.size() - c->rx_len, MSG_DONTWAIT);
      if (n > 0) {
        c->rx_len += static_cast<size_t>(n);
        Parse(c);
        if (c->broken) return;
        continue;
      }
      if (n == 0) {
        Fail(c, ECONNRESET);  // The server hung up.
        return;
      }
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) Fail(c, errno);
      return;
    }
  }

  void Parse(Conn* c) {
    const Nanos now = Now();
    size_t off = 0;
    while (c->rx_len - off >= bouncer::net::kResponseFrameBytes) {
      const uint8_t* p = c->rx.data() + off;
      if (bouncer::net::wire::GetU32(p) != bouncer::net::kResponseBodyBytes) {
        ++tally.bad_responses;
        Fail(c, EPROTO);
        return;
      }
      ResponseFrame frame;
      bouncer::net::DecodeResponseBody(p + bouncer::net::kLengthPrefixBytes,
                                       &frame);
      OnResponse(c, frame, now);
      off += bouncer::net::kResponseFrameBytes;
    }
    std::memmove(c->rx.data(), c->rx.data() + off, c->rx_len - off);
    c->rx_len -= off;
  }

  void OnResponse(Conn* c, const ResponseFrame& frame, Nanos now) {
    const uint64_t seq = frame.id & ((uint64_t{1} << kSeqBits) - 1);
    Inflight& slot = c->inflight[seq & (kInflightSlots - 1)];
    if (!slot.live || slot.id != frame.id) {
      ++tally.bad_responses;
      return;
    }
    slot.live = false;
    --c->outstanding;
    const Nanos latency = now - slot.intended;
    switch (frame.status) {
      case ResponseStatus::kOk: {
        tally.RecordOk(latency, slot.op);
        // Lookups are checked against the graph itself.
        const uint64_t degree = graph_.Degree(slot.source);
        const uint64_t expected =
            slot.op == 0 ? degree : std::min<uint64_t>(degree, 64);
        ++tally.answers_checked;
        if (frame.value != expected) ++tally.answer_mismatches;
        break;
      }
      case ResponseStatus::kRejected:
        ++tally.fates[kRejected];
        break;
      case ResponseStatus::kShedded:
        ++tally.fates[kShed];
        break;
      case ResponseStatus::kExpired:
        ++tally.fates[kExpired];
        break;
      case ResponseStatus::kFailed:
        ++tally.fates[kFailed];
        break;
      default:
        ++tally.fates[kFailed];
        ++tally.bad_responses;
        break;
    }
    if (frame.status != ResponseStatus::kOk) {
      ++tally.reasons[frame.flags < tally.reasons.size() ? frame.flags : 0];
    }
    if (traced_ &&
        bouncer::stats::FlightRecorder::Global().ShouldSample(frame.id)) {
      spans.push_back(ClientSpan{frame.id, slot.intended, slot.sent, now});
    }
  }

  /// A transport error (EPIPE, ECONNRESET, ...): everything in flight on
  /// the connection fails, and its later departures are dropped.
  void Fail(Conn* c, int err) {
    if (c->broken) return;
    c->broken = true;
    if (first_error.empty()) first_error = std::strerror(err);
    for (Inflight& slot : c->inflight) {
      if (!slot.live) continue;
      slot.live = false;
      ++tally.fates[kFailed];
      ++tally.transport_failures;
    }
    c->outstanding = 0;
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c->fd, nullptr);
  }

  const bouncer::graph::GraphStore& graph_;
  std::vector<Conn*> conns_;
  Nanos start_;
  Nanos stop_;
  bool traced_;
  int ep_ = -1;
};

NetServer::Stats NetDelta(const NetServer::Stats& a, const NetServer::Stats& b) {
  NetServer::Stats d;
  d.requests = b.requests - a.requests;
  d.responses = b.responses - a.responses;
  d.rejections_policy = b.rejections_policy - a.rejections_policy;
  d.rejections_queue = b.rejections_queue - a.rejections_queue;
  d.failures_shard = b.failures_shard - a.failures_shard;
  d.expirations = b.expirations - a.expirations;
  d.bad_frames = b.bad_frames - a.bad_frames;
  d.submit_batches = b.submit_batches - a.submit_batches;
  d.pauses_inflight = b.pauses_inflight - a.pauses_inflight;
  d.pauses_tx = b.pauses_tx - a.pauses_tx;
  d.pauses_overload = b.pauses_overload - a.pauses_overload;
  d.syscalls = b.syscalls - a.syscalls;
  d.wakeups = b.wakeups - a.wakeups;
  d.eventfd_wakeups = b.eventfd_wakeups - a.eventfd_wakeups;
  return d;
}

struct TcpWindow {
  WindowResult result;
  NetServer::Stats net;
  std::vector<ClientSpan> spans;
  double queue_mean = 0;
  Nanos start = 0;
  Nanos stop = 0;
};

/// Per-tenant (requests, ok) deltas of the hottest 1% of tenants and of
/// all tenants, from NetServer::TenantStatsOf.
struct TenantTotals {
  std::vector<NetServer::TenantStats> by_rank;  ///< Index = rank - 1.
};

TenantTotals ReadTenants(const Deployment& d, size_t num_tenants) {
  TenantTotals t;
  if (num_tenants == 0) {
    t.by_rank.push_back(d.server->TenantStatsOf(bouncer::kDefaultTenant));
    return t;
  }
  t.by_rank.resize(num_tenants);
  for (size_t rank = 1; rank <= num_tenants; ++rank) {
    const auto dense = d.tenants.Find(rank);
    if (dense.ok()) t.by_rank[rank - 1] = d.server->TenantStatsOf(*dense);
  }
  return t;
}

TcpWindow RunWindow(const Args& args, Deployment& d, const WindowSpec& spec) {
  const Workload& w = *args.workload;
  TcpWindow out;
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t i = 0; i < d.client_fds.size(); ++i) {
    auto c = std::make_unique<Conn>();
    c->tx.resize(kTxLimit + (1 << 17));
    c->tx.clear();
    c->fd = d.client_fds[i];
    c->tag = spec.stream_base + i + 1;
    c->stream = std::make_unique<RequestStream>(
        w, d.graph, args.seed, spec.stream_base + i,
        w.rate_qps / static_cast<double>(d.client_fds.size()));
    conns.push_back(std::move(c));
  }
  const auto broker_before = d.cluster->broker(0)->counters();
  const uint64_t failures_before = d.cluster->shard_failures();
  const NetServer::Stats net_before = d.server->AggregateStats();

  out.start = Now() + 2 * kMillisecond;
  out.stop = out.start + spec.duration;
  std::vector<std::unique_ptr<ClientThread>> clients;
  for (size_t t = 0; t < kClientThreads; ++t) {
    std::vector<Conn*> mine;
    for (size_t i = t; i < conns.size(); i += kClientThreads) {
      mine.push_back(conns[i].get());
    }
    clients.push_back(std::make_unique<ClientThread>(
        d.graph, std::move(mine), out.start, out.stop, spec.traced));
  }
  std::atomic<bool> stop_sampler{false};
  double queue_sum = 0;
  uint64_t queue_samples = 0;
  std::thread sampler;
  if (spec.traced) {
    sampler = std::thread([&] {
      while (!stop_sampler.load(std::memory_order_relaxed)) {
        const Nanos now = Now();
        if (now >= out.start && now < out.stop) {
          queue_sum += static_cast<double>(d.cluster->broker(0)->QueueLength());
          ++queue_samples;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([c = client.get()] { c->Run(); });
  }
  for (std::thread& t : threads) t.join();
  if (sampler.joinable()) {
    stop_sampler.store(true, std::memory_order_relaxed);
    sampler.join();
  }
  out.queue_mean =
      queue_samples == 0 ? 0 : queue_sum / static_cast<double>(queue_samples);

  out.result.broker_delta =
      StageDelta(broker_before, d.cluster->broker(0)->counters());
  out.result.shard_failures = d.cluster->shard_failures() - failures_before;
  out.net = NetDelta(net_before, d.server->AggregateStats());
  for (auto& client : clients) {
    out.result.tally.Merge(client->tally);
    out.spans.insert(out.spans.end(), client->spans.begin(),
                     client->spans.end());
    if (!client->first_error.empty()) {
      out.result.transport_error = client->first_error;
    }
  }
  out.result.seconds = bouncer::ToSeconds(spec.duration);
  out.result.offered_qps =
      static_cast<double>(out.result.tally.sent) / out.result.seconds;
  return out;
}

/// The client's per-status counts over the window must equal the server's
/// counter deltas.
void CheckNet(const TcpWindow& w, Report* report) {
  const Tally& t = w.result.tally;
  if (t.transport_failures != 0) return;  // Reported as failed operations.
  const auto expect = [&](const char* what, uint64_t server, uint64_t client) {
    if (server != client) {
      report->Error(std::string("net ") + what + " delta " + Count(server) +
                    " != client count " + Count(client));
    }
  };
  const uint64_t answered = t.fates[kOk] + t.fates[kRejected] +
                            t.fates[kShed] + t.fates[kExpired] +
                            t.fates[kFailed];
  expect("requests", w.net.requests, t.sent - t.fates[kDropped]);
  expect("responses", w.net.responses, answered);
  expect("rejections_policy", w.net.rejections_policy, t.fates[kRejected]);
  expect("rejections_queue", w.net.rejections_queue, t.fates[kShed]);
  expect("failures_shard", w.net.failures_shard, t.fates[kFailed]);
  expect("expirations", w.net.expirations, t.fates[kExpired]);
  expect("bad_frames", w.net.bad_frames, 0);
}

double PerResponse(uint64_t n, const NetServer::Stats& net) {
  return net.responses == 0 ? 0
                            : static_cast<double>(n) /
                                  static_cast<double>(net.responses);
}

}  // namespace

WindowResult RunTcp(const Args& args, Deployment& d, Report* report) {
  const Workload& w = *args.workload;
  RunWindow(args, d, WindowSpec{w.warmup, 100, false});

  const auto measure = [&](bool traced) {
    TcpWindow window =
        RunWindow(args, d,
                  WindowSpec{traced ? TracedWindow(args) : UntracedWindow(args),
                             0, traced});
    CheckAccounting(window.result, report);
    CheckNet(window, report);
    CountFailures(window.result, report);
    return window;
  };

  TcpWindow untraced = measure(false);
  if (!args.trace) return untraced.result;

  BeginTracedWindow(d);
  const TenantTotals tenants_mid = ReadTenants(d, w.num_tenants);
  const Usage before = ReadUsage();
  TcpWindow traced = measure(true);
  const Usage after = ReadUsage();
  const TenantTotals tenants_after = ReadTenants(d, w.num_tenants);
  EndTracedWindow(d);

  AddCommonLayers(traced.result,
                  static_cast<double>(untraced.result.tally.ok_in_limit) /
                      untraced.result.seconds,
                  after.cpu_s - before.cpu_s, after.ctx - before.ctx,
                  after.minflt - before.minflt, report);
  AddDeploymentLayers(d, traced.result, report);

  const NetServer::Stats& net = traced.net;
  const std::string per = "per response (" + Count(net.responses) + ")";
  report->Layer("net.syscalls_per_req", PerResponse(net.syscalls, net),
                "count", Count(net.syscalls) + " syscalls " + per);
  report->Layer("net.wakeups_per_req", PerResponse(net.wakeups, net), "count",
                Count(net.wakeups) + " wakeups " + per);
  report->Layer("net.eventfd_writes_per_req",
                PerResponse(net.eventfd_wakeups, net), "count",
                Count(net.eventfd_wakeups) + " eventfd writes " + per);
  report->Layer("net.reqs_per_batch",
                net.submit_batches == 0
                    ? 0
                    : static_cast<double>(net.requests) /
                          static_cast<double>(net.submit_batches),
                "count",
                Count(net.requests) + " requests / " +
                    Count(net.submit_batches) + " submit batches");
  report->Layer("net.pauses_inflight", static_cast<double>(net.pauses_inflight),
                "count", "AggregateStats() delta");
  report->Layer("net.pauses_tx", static_cast<double>(net.pauses_tx), "count",
                "AggregateStats() delta");
  report->Layer("net.pauses_overload", static_cast<double>(net.pauses_overload),
                "count", "AggregateStats() delta");

  // Server-side boundaries from the flight recorder, joined by id with
  // the client's own send/receive times. The rings are sized in traced
  // runs to hold the whole traced window, so nearly every request the
  // client saw sampled must join.
  const auto events = JoinRecorder(traced.start, traced.stop + 10 * kSecond);
  std::unordered_map<uint64_t, const ClientSpan*> client;
  for (const ClientSpan& s : traced.spans) client.emplace(s.id, &s);
  Hist parse_to_admit, dequeue_to_write, queue_wait, exec;
  SpanLog spans;
  std::vector<Span> request;
  for (const auto& [id, e] : events) {
    if (e.parse != 0 && e.admit >= e.parse) {
      parse_to_admit.Record(e.admit - e.parse);
    }
    if (e.dequeue != 0 && e.write >= e.dequeue) {
      dequeue_to_write.Record(e.write - e.dequeue);
    }
    if (e.dequeue != 0 && e.wait >= 0) queue_wait.Record(e.wait);
    if (e.dequeue != 0 && e.gather_last >= e.dequeue) {
      exec.Record(e.gather_last - e.dequeue);
    }
    const auto it = client.find(id);
    if (it == client.end() || e.parse == 0 || e.admit == 0 || e.write == 0) {
      continue;
    }
    const ClientSpan& c = *it->second;
    request.clear();
    request.push_back({id, "request", c.intended, c.received, nullptr});
    request.push_back({id, "gen.dispatch", c.intended, c.sent, "request"});
    request.push_back({id, "net.in", c.sent, e.parse, "request"});
    request.push_back(
        {id, "net.parse_to_admit", e.parse, e.admit, "request"});
    Nanos served = e.admit;
    if (e.dequeue != 0) {
      request.push_back(
          {id, "server.broker.queue_wait", e.admit, e.dequeue, "request"});
      served = e.dequeue;
      if (e.gather_last >= e.dequeue) {
        request.push_back(
            {id, "graph.exec", e.dequeue, e.gather_last, "request"});
        served = e.gather_last;
      }
    }
    request.push_back({id, "net.out", served, e.write, "request"});
    request.push_back({id, "net.return", e.write, c.received, "request"});
    spans.AddRequest(request, true);
  }
  const size_t joined = spans.requests();
  const std::string coverage = Count(joined) + " of " + Count(client.size()) +
                               " client-sampled requests joined";
  report->notes.push_back("recorder join: " + coverage);
  if (static_cast<double>(joined) <
      kMinJoinShare * static_cast<double>(client.size())) {
    report->Error("recorder join covers too little of the traced window: " +
                  coverage);
  }
  const auto base = [&](const Hist& h) {
    return Count(h.count()) + " recorder samples (1 in " +
           Count(kTraceSamplePeriod) + "); " + coverage;
  };
  report->Layer("net.parse_to_admit_us_p50",
                parse_to_admit.Quantile(0.50) / 1e3, "us",
                base(parse_to_admit));
  report->Layer("net.parse_to_admit_us_p99",
                parse_to_admit.Quantile(0.99) / 1e3, "us",
                base(parse_to_admit));
  report->Layer("net.dequeue_to_write_us_p50",
                dequeue_to_write.Quantile(0.50) / 1e3, "us",
                base(dequeue_to_write));
  report->Layer("net.dequeue_to_write_us_p99",
                dequeue_to_write.Quantile(0.99) / 1e3, "us",
                base(dequeue_to_write));
  report->Layer("server.broker.queue_wait_ms_p50",
                queue_wait.Quantile(0.50) / 1e6, "ms", base(queue_wait));
  report->Layer("server.broker.queue_wait_ms_p99",
                queue_wait.Quantile(0.99) / 1e6, "ms", base(queue_wait));
  report->Layer("graph.exec_ms_p50", exec.Quantile(0.50) / 1e6, "ms",
                base(exec) + "; dequeue to last gather");
  report->Layer("graph.exec_ms_p99", exec.Quantile(0.99) / 1e6, "ms",
                base(exec) + "; dequeue to last gather");
  report->Layer("server.broker.queue_len_mean", traced.queue_mean, "count",
                "QueueLength() sampled every 1 ms");
  report->Layer("core.admit_call_us_p50", 0, "us",
                "not measured: the server, not the benchmark, calls "
                "Cluster::SubmitBatch here");
  report->Layer("core.admit_call_us_p99", 0, "us",
                "not measured: the server, not the benchmark, calls "
                "Cluster::SubmitBatch here");

  // Hottest 1% of tenants: share of OK responses over share of requests.
  const size_t hot = std::max<size_t>(1, tenants_after.by_rank.size() / 100);
  uint64_t hot_req = 0, hot_ok = 0, all_req = 0, all_ok = 0;
  for (size_t i = 0; i < tenants_after.by_rank.size(); ++i) {
    const uint64_t req =
        tenants_after.by_rank[i].requests - tenants_mid.by_rank[i].requests;
    const uint64_t ok = tenants_after.by_rank[i].ok - tenants_mid.by_rank[i].ok;
    all_req += req;
    all_ok += ok;
    if (i < hot) {
      hot_req += req;
      hot_ok += ok;
    }
  }
  const double req_share =
      all_req == 0 ? 0 : static_cast<double>(hot_req) / all_req;
  const double ok_share = all_ok == 0 ? 0 : static_cast<double>(hot_ok) / all_ok;
  report->Layer("core.hot_tenant_ok_share",
                req_share == 0 ? 0 : ok_share / req_share, "ratio",
                "hottest " + Count(hot) + " tenants: " + Count(hot_ok) +
                    " of " + Count(all_ok) + " OK, " + Count(hot_req) +
                    " of " + Count(all_req) + " requests");
  FinishSpans(args, spans, report);
  return untraced.result;
}

}  // namespace perfbench
