#include "src/net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/net/net_server_internal.h"
#include "src/util/clock.h"

namespace bouncer::net {

using graph::GraphQueryResult;
using server::Outcome;

namespace {

ResponseStatus ToStatus(Outcome outcome, bool result_ok) {
  switch (outcome) {
    case Outcome::kCompleted:
      return result_ok ? ResponseStatus::kOk : ResponseStatus::kFailed;
    case Outcome::kRejected:
      return ResponseStatus::kRejected;
    case Outcome::kExpired:
      return ResponseStatus::kExpired;
    case Outcome::kShedded:
      return ResponseStatus::kShedded;
  }
  return ResponseStatus::kFailed;
}

/// Data-path syscall accounting (Stats::syscalls). Templated so it never
/// names the private LoopCounters type.
template <typename Counters>
void CountSyscall(Counters& counters, uint64_t n = 1) {
  counters.syscalls.fetch_add(n, std::memory_order_relaxed);
}

}  // namespace

const char* NetBackendName(NetBackend backend) {
  switch (backend) {
    case NetBackend::kAuto:
      return "auto";
    case NetBackend::kEpoll:
      return "epoll";
    case NetBackend::kUring:
      return "io_uring";
  }
  return "epoll";
}

bool ParseNetBackend(const std::string& text, NetBackend* out) {
  if (text == "auto") {
    *out = NetBackend::kAuto;
  } else if (text == "epoll") {
    *out = NetBackend::kEpoll;
  } else if (text == "io_uring" || text == "uring") {
    *out = NetBackend::kUring;
  } else {
    return false;
  }
  return true;
}

bool NetServer::UringSupported(std::string* reason) {
  const UringSupport& support = QueryUringSupport();
  if (!support.supported && reason != nullptr) *reason = support.reason;
  return support.supported;
}

NetServer::NetServer(graph::Cluster* cluster, const Options& options)
    : cluster_(cluster), options_(options) {
  if (options_.num_loops == 0) {
    const size_t hw = std::thread::hardware_concurrency();
    options_.num_loops = hw == 0 ? 1 : (hw < 4 ? hw : 4);
  }
  if (options_.num_loops > kMaxLoops) options_.num_loops = kMaxLoops;
  if constexpr (stats::kTraceCompiledIn) {
    recorder_ = options_.recorder != nullptr
                    ? options_.recorder
                    : &stats::FlightRecorder::Global();
  }
  if (options_.tenants != nullptr) {
    tenant_stats_ =
        std::make_unique<PolicyStateTable<TenantNetCell>>(/*num_types=*/1);
  }
}

NetServer::~NetServer() { Stop(); }

Status NetServer::StartListeners() {
  // Reuseport path: one listener per loop, all bound to the same port,
  // the kernel hashes incoming connections across them. Any failure
  // after loop 0's listener is up falls back to handoff mode (loop 0
  // accepts for everyone) rather than failing Start; extra listeners
  // already bound are closed so exactly one thread ever accepts then.
  const bool want_reuseport =
      !options_.force_fd_handoff && loops_.size() > 1;
  handoff_mode_ = !want_reuseport && loops_.size() > 1;
  const auto fall_back = [this] {
    for (size_t j = 1; j < loops_.size(); ++j) {
      if (loops_[j]->listen_fd >= 0) {
        ::close(loops_[j]->listen_fd);
        loops_[j]->listen_fd = -1;
      }
    }
    handoff_mode_ = true;
  };

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  const size_t listeners = handoff_mode_ ? 1 : loops_.size();
  for (size_t i = 0; i < listeners; ++i) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      if (i == 0) return Status::Internal("socket() failed");
      fall_back();
      return Status::OK();
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (want_reuseport &&
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      // Kernel without SO_REUSEPORT: single listener + fd handoff.
      if (i > 0) {
        ::close(fd);
        fall_back();
        return Status::OK();
      }
      handoff_mode_ = true;
    }
    addr.sin_port = htons(i == 0 ? options_.port : port_);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, options_.listen_backlog) < 0) {
      ::close(fd);
      if (i == 0) {
        return Status::Internal(std::string("bind/listen failed: ") +
                                std::strerror(errno));
      }
      fall_back();
      return Status::OK();
    }
    if (i == 0) {
      socklen_t addr_len = sizeof(addr);
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len);
      port_ = ntohs(addr.sin_port);
    }
    loops_[i]->listen_fd = fd;
    if (handoff_mode_) break;  // SO_REUSEPORT failed on loop 0's socket.
  }
  return Status::OK();
}

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already started");
  }
  loops_.clear();  // Restart after Stop(): previous loops' stats reset.
  handoff_mode_ = false;
  handoff_rr_ = 0;
  port_ = 0;
  total_live_.store(0, std::memory_order_relaxed);

  const size_t num_loops = options_.num_loops;
  // Done-ring sizing: bounds how far workers can run ahead of a loop's
  // drain. Scaled down with the loop count so a high-connection server
  // doesn't multiply ring memory by the loop count.
  size_t ring = options_.max_connections * 64 / num_loops;
  if (ring < (1u << 12)) ring = 1u << 12;
  if (ring > (1u << 16)) ring = 1u << 16;
  const size_t mailbox =
      options_.max_connections < 1024 ? 1024 : options_.max_connections;
  loops_.reserve(num_loops);
  for (size_t i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<Loop>(this, i, ring, mailbox));
    Loop& loop = *loops_.back();
    loop.batch.reserve(options_.max_batch);
    loop.batch_tokens.reserve(options_.max_batch);
    loop.deferred_dones.reserve(options_.max_batch);
  }

  // Backend resolution. kAuto degrades to epoll with a recorded reason;
  // explicit kUring fails Start() instead so a misconfigured deployment
  // is loud, not silently slower.
  backend_ = NetBackend::kEpoll;
  backend_fallback_reason_.clear();
  if (options_.backend != NetBackend::kEpoll) {
    const UringSupport& support = QueryUringSupport();
    if (support.supported) {
      backend_ = NetBackend::kUring;
    } else if (options_.backend == NetBackend::kUring) {
      loops_.clear();
      return Status::FailedPrecondition("io_uring backend unavailable: " +
                                        support.reason);
    } else {
      backend_fallback_reason_ = support.reason;
      std::fprintf(stderr,
                   "[net] io_uring unavailable (%s); backend=auto falling "
                   "back to epoll\n",
                   support.reason.c_str());
    }
  }

  if (Status s = StartListeners(); !s.ok()) {
    CloseAll();
    loops_.clear();
    return s;
  }
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop.event_fd < 0) {
      CloseAll();
      loops_.clear();
      return Status::Internal("eventfd setup failed");
    }
  }
  if (backend_ == NetBackend::kUring && !UringSetupLoops()) {
    // Probe passed but ring setup failed (fd or memlock limits, most
    // likely). Explicit kUring surfaces it; kAuto degrades.
    if (options_.backend == NetBackend::kUring) {
      CloseAll();
      loops_.clear();
      return Status::Internal("io_uring setup failed: " +
                              backend_fallback_reason_);
    }
    std::fprintf(stderr,
                 "[net] io_uring setup failed (%s); backend=auto falling "
                 "back to epoll\n",
                 backend_fallback_reason_.c_str());
    backend_ = NetBackend::kEpoll;
  }
  if (backend_ == NetBackend::kEpoll) {
    for (auto& loop_ptr : loops_) {
      Loop& loop = *loop_ptr;
      loop.epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
      if (loop.epoll_fd < 0) {
        CloseAll();
        loops_.clear();
        return Status::Internal("epoll setup failed");
      }
      epoll_event ev{};
      if (loop.listen_fd >= 0) {
        ev.events = EPOLLIN;
        ev.data.u64 = kListenToken;
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.listen_fd, &ev);
      }
      ev.events = EPOLLIN;
      ev.data.u64 = kEventToken;
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, loop.event_fd, &ev);
    }
  }

  if (options_.metrics != nullptr) {
    metrics_collector_handle_ =
        options_.metrics->AddCollector([this](stats::MetricSink& sink) {
          const Stats s = AggregateStats();
          sink.AddCounter("net.connections_accepted", s.connections_accepted);
          sink.AddCounter("net.connections_dropped", s.connections_dropped);
          sink.AddCounter("net.connections_closed", s.connections_closed);
          sink.AddCounter("net.requests", s.requests);
          sink.AddCounter("net.responses", s.responses);
          sink.AddCounter("net.rejections", s.rejections);
          sink.AddCounter("net.rejections_policy", s.rejections_policy);
          sink.AddCounter("net.rejections_queue", s.rejections_queue);
          sink.AddCounter("net.failures_shard", s.failures_shard);
          sink.AddCounter("net.expirations", s.expirations);
          sink.AddCounter("net.bad_frames", s.bad_frames);
          sink.AddCounter("net.submit_batches", s.submit_batches);
          sink.AddCounter("net.pauses", s.pauses);
          sink.AddCounter("net.pauses_inflight", s.pauses_inflight);
          sink.AddCounter("net.pauses_tx", s.pauses_tx);
          sink.AddCounter("net.pauses_overload", s.pauses_overload);
          sink.AddCounter("net.admin_requests", s.admin_requests);
          sink.AddCounter("net.handoffs", s.handoffs);
          sink.AddCounter("net.nodelay_failures", s.nodelay_failures);
          sink.AddCounter("net.syscalls", s.syscalls);
          sink.AddCounter("net.wakeups", s.wakeups);
          sink.AddCounter("net.eventfd_wakeups", s.eventfd_wakeups);
          // 1 when the io_uring backend is serving, 0 for epoll — how
          // `net_client --stats` learns which backend answered it.
          sink.AddGauge("net.backend_io_uring",
                        backend_ == NetBackend::kUring ? 1 : 0);
          sink.AddGauge("net.loops", static_cast<int64_t>(loops_.size()));
          for (size_t i = 0; i < loops_.size(); ++i) {
            const Stats ls = LoopStats(i);
            const std::string prefix = "net.loop" + std::to_string(i) + ".";
            sink.AddCounter(prefix + "requests", ls.requests);
            sink.AddCounter(prefix + "responses", ls.responses);
            sink.AddCounter(prefix + "pauses", ls.pauses);
          }
          if (options_.tenants != nullptr && tenant_stats_ != nullptr) {
            // Per-tenant rows, keyed by external id. Bounded so a
            // 100k-tenant deployment cannot balloon the admin payload:
            // the first kMaxTenantMetricRows active tenants are listed,
            // the rest only counted.
            constexpr size_t kMaxTenantMetricRows = 256;
            const size_t n = options_.tenants->size();
            sink.AddGauge("tenant.count", static_cast<int64_t>(n));
            size_t rows = 0;
            size_t skipped = 0;
            for (size_t t = 0; t < n; ++t) {
              const TenantNetCell* cell =
                  tenant_stats_->Find(static_cast<TenantId>(t));
              if (cell == nullptr) continue;
              const uint64_t requests =
                  cell->requests.load(std::memory_order_relaxed);
              if (requests == 0) continue;
              if (rows >= kMaxTenantMetricRows) {
                ++skipped;
                continue;
              }
              ++rows;
              const std::string prefix =
                  "tenant." +
                  std::to_string(options_.tenants->ExternalIdOf(
                      static_cast<TenantId>(t))) +
                  ".";
              sink.AddCounter(prefix + "requests", requests);
              sink.AddCounter(prefix + "ok",
                              cell->ok.load(std::memory_order_relaxed));
              sink.AddCounter(
                  prefix + "rejected",
                  cell->rejected.load(std::memory_order_relaxed));
              sink.AddCounter(prefix + "shedded",
                              cell->shedded.load(std::memory_order_relaxed));
              sink.AddCounter(prefix + "expired",
                              cell->expired.load(std::memory_order_relaxed));
              sink.AddCounter(prefix + "failed",
                              cell->failed.load(std::memory_order_relaxed));
            }
            sink.AddGauge("tenant.rows_truncated",
                          static_cast<int64_t>(skipped));
          }
        });
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    loop.thread = std::thread([this, &loop] { LoopThread(loop); });
  }
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  if (metrics_collector_handle_ != 0) {
    options_.metrics->RemoveCollector(metrics_collector_handle_);
    metrics_collector_handle_ = 0;
  }
  stop_requested_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    if (loop->event_fd >= 0) WriteEventFd(loop->event_fd);
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // Cluster workers may still be inside OnQueryDone for requests this
  // server submitted; those calls read Loop state (done rings, counters,
  // eventfds), so the loops must stay alive until the last one returns.
  // The ring-push spin inside OnQueryDone exits on stop_requested_, so
  // this drain is bounded by worker progress, never by ring space.
  while (inflight_dones_.load(std::memory_order_acquire) != 0) {
    CpuRelax();
  }
  CloseAll();
}

void NetServer::CloseAll() {
  for (auto& loop_ptr : loops_) {
    Loop& loop = *loop_ptr;
    // Handed-off fds nobody adopted.
    int fd;
    while (loop.fd_mailbox.TryPop(fd)) ::close(fd);
    for (auto& slot : loop.slots) {
      if (slot && slot->fd >= 0) {
        ::close(slot->fd);
        slot->fd = -1;
        ++slot->gen;
      }
    }
    if (loop.listen_fd >= 0) ::close(loop.listen_fd);
    if (loop.epoll_fd >= 0) ::close(loop.epoll_fd);
    if (loop.event_fd >= 0) ::close(loop.event_fd);
    loop.listen_fd = loop.epoll_fd = loop.event_fd = -1;
    // Closing the ring fd cancels whatever was still in flight.
    UringDestroyLoop(loop);
  }
}

NetServer::TenantStats NetServer::TenantStatsOf(TenantId tenant) const {
  TenantStats s;
  if (tenant_stats_ == nullptr) return s;
  const TenantNetCell* cell = tenant_stats_->Find(tenant);
  if (cell == nullptr) return s;
  s.requests = cell->requests.load(std::memory_order_relaxed);
  s.ok = cell->ok.load(std::memory_order_relaxed);
  s.rejected = cell->rejected.load(std::memory_order_relaxed);
  s.shedded = cell->shedded.load(std::memory_order_relaxed);
  s.expired = cell->expired.load(std::memory_order_relaxed);
  s.failed = cell->failed.load(std::memory_order_relaxed);
  return s;
}

NetServer::Stats NetServer::LoopStats(size_t loop) const {
  Stats s;
  if (loop >= loops_.size()) return s;
  const LoopCounters& c = loops_[loop]->counters;
  s.connections_accepted =
      c.connections_accepted.load(std::memory_order_relaxed);
  s.connections_dropped =
      c.connections_dropped.load(std::memory_order_relaxed);
  s.connections_closed =
      c.connections_closed.load(std::memory_order_relaxed);
  s.requests = c.requests.load(std::memory_order_relaxed);
  s.responses = c.responses.load(std::memory_order_relaxed);
  s.rejections = c.rejections.load(std::memory_order_relaxed);
  s.rejections_policy = c.rejections_policy.load(std::memory_order_relaxed);
  s.rejections_queue = c.rejections_queue.load(std::memory_order_relaxed);
  s.failures_shard = c.failures_shard.load(std::memory_order_relaxed);
  s.expirations = c.expirations.load(std::memory_order_relaxed);
  s.bad_frames = c.bad_frames.load(std::memory_order_relaxed);
  s.submit_batches = c.submit_batches.load(std::memory_order_relaxed);
  s.pauses = c.pauses.load(std::memory_order_relaxed);
  s.pauses_inflight = c.pauses_inflight.load(std::memory_order_relaxed);
  s.pauses_tx = c.pauses_tx.load(std::memory_order_relaxed);
  s.pauses_overload = c.pauses_overload.load(std::memory_order_relaxed);
  s.admin_requests = c.admin_requests.load(std::memory_order_relaxed);
  s.handoffs = c.handoffs.load(std::memory_order_relaxed);
  s.nodelay_failures = c.nodelay_failures.load(std::memory_order_relaxed);
  s.syscalls = c.syscalls.load(std::memory_order_relaxed);
  s.wakeups = c.wakeups.load(std::memory_order_relaxed);
  s.eventfd_wakeups = c.eventfd_wakeups.load(std::memory_order_relaxed);
  s.backend = backend_;
  return s;
}

NetServer::Stats NetServer::AggregateStats() const {
  Stats total;
  for (size_t i = 0; i < loops_.size(); ++i) {
    const Stats s = LoopStats(i);
    total.connections_accepted += s.connections_accepted;
    total.connections_dropped += s.connections_dropped;
    total.connections_closed += s.connections_closed;
    total.requests += s.requests;
    total.responses += s.responses;
    total.rejections += s.rejections;
    total.rejections_policy += s.rejections_policy;
    total.rejections_queue += s.rejections_queue;
    total.failures_shard += s.failures_shard;
    total.expirations += s.expirations;
    total.bad_frames += s.bad_frames;
    total.submit_batches += s.submit_batches;
    total.pauses += s.pauses;
    total.pauses_inflight += s.pauses_inflight;
    total.pauses_tx += s.pauses_tx;
    total.pauses_overload += s.pauses_overload;
    total.admin_requests += s.admin_requests;
    total.handoffs += s.handoffs;
    total.nodelay_failures += s.nodelay_failures;
    total.syscalls += s.syscalls;
    total.wakeups += s.wakeups;
    total.eventfd_wakeups += s.eventfd_wakeups;
  }
  total.backend = backend_;
  return total;
}

NetServer::Connection* NetServer::Resolve(Loop& loop, uint64_t token) {
  const uint32_t index = static_cast<uint32_t>(token) & kSlotMask;
  const uint32_t loop_id =
      static_cast<uint32_t>(token >> kSlotBits) & kLoopMask;
  const auto gen = static_cast<uint32_t>(token >> 32);
  if (loop_id != loop.id || index >= loop.slots.size()) return nullptr;
  Connection* conn = loop.slots[index].get();
  if (conn == nullptr || conn->fd < 0 || conn->gen != gen) return nullptr;
  return conn;
}

void NetServer::UpdateEpoll(Loop& loop, Connection* conn) {
  if (backend_ == NetBackend::kUring) {
    UringUpdateInterest(loop, conn);
    return;
  }
  uint32_t want = 0;
  if (conn->want_read && !conn->closing) want |= EPOLLIN;
  if (!conn->tx.empty()) want |= EPOLLOUT;
  if (want == conn->armed_events) return;
  epoll_event ev{};
  ev.events = want | EPOLLRDHUP;
  ev.data.u64 = conn->Token();
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  CountSyscall(loop.counters);
  conn->armed_events = want;
}

void NetServer::PauseRead(Loop& loop, Connection* conn) {
  if (!conn->want_read) return;
  conn->want_read = false;
  loop.counters.pauses.fetch_add(1, std::memory_order_relaxed);
  UpdateEpoll(loop, conn);
}

void NetServer::ResumeRead(Loop& loop, Connection* conn) {
  if (conn->want_read || conn->closing) return;
  if (conn->read_paused_inflight || conn->read_paused_tx ||
      conn->read_paused_overload) {
    return;
  }
  conn->want_read = true;
  UpdateEpoll(loop, conn);
  // Bytes may already be buffered (or the kernel buffer full); parse and
  // read rather than waiting for another edge.
  ParseConn(loop, conn);
  ReadConn(loop, conn);
}

void NetServer::AdoptFd(Loop& loop, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Verify: small length-prefixed frames must never be Nagle-delayed.
  // The counter (asserted zero in tests) proves every accepted socket
  // really runs with the option set.
  int got = 0;
  socklen_t got_len = sizeof(got);
  if (::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &got, &got_len) != 0 ||
      got == 0) {
    loop.counters.nodelay_failures.fetch_add(1, std::memory_order_relaxed);
  }

  Connection* conn;
  if (!loop.free_slots.empty()) {
    conn = loop.slots[loop.free_slots.back()].get();
    loop.free_slots.pop_back();
  } else {
    if (loop.slots.size() >= kSlotMask) {
      // Slot index field exhausted (16M connections on one loop).
      loop.counters.connections_dropped.fetch_add(1,
                                                  std::memory_order_relaxed);
      total_live_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      return;
    }
    const auto index = static_cast<uint32_t>(loop.slots.size());
    loop.slots.push_back(std::make_unique<Connection>(
        options_.read_ring_bytes, options_.write_ring_bytes));
    conn = loop.slots.back().get();
    conn->index = index;
    conn->loop_id = loop.id;
  }
  conn->fd = fd;
  conn->rx.Clear();
  conn->tx.Clear();
  conn->owed = 0;
  conn->want_read = true;
  conn->dirty = false;
  conn->read_paused_inflight = conn->read_paused_tx =
      conn->read_paused_overload = false;
  conn->closing = false;
  conn->admin_active = false;
  conn->admin_id = 0;
  conn->admin_offset = 0;
  conn->admin_payload.clear();
  conn->armed_events = EPOLLIN;
  conn->recv_armed = false;
  conn->send_inflight = false;
  conn->cancel_pending = false;
  conn->zombie = false;
  loop.counters.connections_accepted.fetch_add(1, std::memory_order_relaxed);

  if (backend_ == NetBackend::kUring) {
    // Multishot recv plays the role of the persistent EPOLLIN interest;
    // bytes that arrived before the arm (handed-off fds) surface as a
    // completion as soon as the SQE is submitted.
    UringArmRecv(loop, conn);
    return;
  }
  // Level-triggered EPOLLIN: bytes that arrived before this ADD (e.g. on
  // a handed-off fd) surface on the next epoll_wait.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = conn->Token();
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev);
  CountSyscall(loop.counters);
}

void NetServer::AcceptReady(Loop& loop) {
  for (;;) {
    CountSyscall(loop.counters);
    const int fd = ::accept4(loop.listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: done for now.
    HandleAccepted(loop, fd);
  }
}

/// Shared accept tail: cap enforcement and (in handoff mode) mailing
/// the fd to its round-robin target. Both backends' accept paths land
/// here.
void NetServer::HandleAccepted(Loop& loop, int fd) {
  if (total_live_.fetch_add(1, std::memory_order_relaxed) >=
      options_.max_connections) {
    total_live_.fetch_sub(1, std::memory_order_relaxed);
    loop.counters.connections_dropped.fetch_add(1, std::memory_order_relaxed);
    ::close(fd);
    return;
  }
  if (handoff_mode_ && loops_.size() > 1) {
    // Loop 0 accepts for everyone; fds round-robin across the loops
    // (including loop 0 itself) through each target's mailbox.
    const size_t target = handoff_rr_++ % loops_.size();
    if (target != loop.id) {
      Loop& other = *loops_[target];
      int mailed = fd;
      if (other.fd_mailbox.TryPush(std::move(mailed))) {
        loop.counters.handoffs.fetch_add(1, std::memory_order_relaxed);
        WriteEventFd(other.event_fd);
        CountSyscall(loop.counters);
        return;
      }
      // Mailbox full (target loop badly behind): keep it local rather
      // than dropping the connection.
    }
  }
  AdoptFd(loop, fd);
}

void NetServer::DrainMailbox(Loop& loop) {
  int fd;
  while (loop.fd_mailbox.TryPop(fd)) {
    if (stop_requested_.load(std::memory_order_acquire)) {
      ::close(fd);
      total_live_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    AdoptFd(loop, fd);
  }
}

void NetServer::CloseConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0) return;
  // io_uring holds a file reference for every outstanding SQE, so close
  // alone would leave a multishot recv pending forever; cancel first
  // (by user_data — the fd number may be reused immediately).
  if (backend_ == NetBackend::kUring) UringPrepareClose(loop, conn);
  ::close(conn->fd);  // Also removes it from the epoll set.
  conn->fd = -1;
  ++conn->gen;  // In-flight completions now resolve to nothing.
  conn->rx.Clear();
  conn->tx.Clear();
  conn->owed = 0;
  conn->dirty = false;
  conn->admin_active = false;
  conn->admin_payload.clear();
  conn->admin_payload.shrink_to_fit();
  if (conn->uring_inflight > 0) {
    // Zombie: the slot returns to free_slots when the last CQE lands.
    conn->zombie = true;
  } else {
    loop.free_slots.push_back(conn->index);
  }
  total_live_.fetch_sub(1, std::memory_order_relaxed);
  loop.counters.connections_closed.fetch_add(1, std::memory_order_relaxed);
}

void NetServer::ReadConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0 || conn->closing) return;
  if (backend_ == NetBackend::kUring) {
    // No synchronous read: drain staged recv buffers, parse, and make
    // sure the multishot recv is armed again.
    UringPumpConn(loop, conn);
    return;
  }
  for (;;) {
    if (!conn->want_read) return;  // Parse gate paused us mid-read.
    struct iovec iov[2];
    const int segments = conn->rx.WritableSegments(iov);
    if (segments == 0) {
      // Ring full of unparsed bytes: only possible while a parse gate
      // holds (frames are far smaller than the ring); the gate's resume
      // re-enters here.
      ParseConn(loop, conn);
      if (conn->rx.free_space() == 0) return;
      continue;
    }
    const ssize_t n = ::readv(conn->fd, iov, segments);
    CountSyscall(loop.counters);
    if (n > 0) {
      conn->rx.CommitWrite(static_cast<size_t>(n));
      ParseConn(loop, conn);
      continue;
    }
    if (n == 0) {
      // EOF: answer what is owed, flush, then close.
      conn->closing = true;
      if (conn->owed == 0 && conn->tx.empty()) CloseConn(loop, conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    CloseConn(loop, conn);  // Hard error: responses in flight are dropped.
    return;
  }
}

void NetServer::ParseConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0 || conn->closing) return;
  const Nanos now = SystemClock::Global()->Now();
  for (;;) {
    // Backpressure gates, checked before consuming another frame. Each
    // pause disarms EPOLLIN: the kernel receive buffer fills, the TCP
    // window closes, and the overload queues at the client.
    if (conn->owed >= options_.max_inflight_per_conn) {
      if (!conn->read_paused_inflight) {
        conn->read_paused_inflight = true;
        loop.counters.pauses_inflight.fetch_add(1, std::memory_order_relaxed);
      }
      PauseRead(loop, conn);
      return;
    }
    if (conn->tx.free_space() <
        (conn->owed + 1) * kResponseFrameBytes) {
      if (!conn->read_paused_tx) {
        conn->read_paused_tx = true;
        loop.counters.pauses_tx.fetch_add(1, std::memory_order_relaxed);
      }
      PauseRead(loop, conn);
      return;
    }
    uint8_t header[kLengthPrefixBytes];
    if (!conn->rx.Peek(0, header, sizeof(header))) return;
    const uint32_t body_len = wire::GetU32(header);
    if (body_len != kRequestBodyBytesV1 && body_len != kRequestBodyBytes) {
      // Framing is lost; nothing downstream is trustworthy.
      loop.counters.bad_frames.fetch_add(1, std::memory_order_relaxed);
      CloseConn(loop, conn);
      return;
    }
    uint8_t body[kRequestBodyBytes];
    if (!conn->rx.Peek(kLengthPrefixBytes, body, body_len)) return;
    const size_t frame_bytes = kLengthPrefixBytes + body_len;

    // Decoded before the frame is consumed: an admin op that cannot start
    // yet (one already streaming) must stay buffered.
    RequestFrame frame;
    const bool valid = DecodeRequestBody(body, body_len, &frame);
    if (valid && IsAdminOp(frame.op)) {
      if (conn->admin_active) return;  // Resumes when the pump finishes.
      conn->rx.Consume(frame_bytes);
      loop.counters.admin_requests.fetch_add(1, std::memory_order_relaxed);
      StartAdmin(loop, conn, frame);
      continue;
    }
    conn->rx.Consume(frame_bytes);

    if (!valid) {
      // Well-framed but invalid (unknown op / flags): answer and move on.
      loop.counters.bad_frames.fetch_add(1, std::memory_order_relaxed);
      uint8_t encoded[kResponseFrameBytes];
      EncodeResponse({frame.id, ResponseStatus::kBadRequest, 0, 0}, encoded);
      conn->tx.Write(encoded, sizeof(encoded));
      conn->dirty = true;
      loop.counters.responses.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    loop.counters.requests.fetch_add(1, std::memory_order_relaxed);
    ++conn->owed;

    bool traced = false;
    if constexpr (stats::kTraceCompiledIn) {
      if (recorder_->ShouldSample(frame.id)) {
        traced = true;
        stats::TraceEvent event;
        event.ts = now;
        event.id = frame.id;
        event.arg0 = static_cast<int64_t>(frame.deadline_ns);
        event.loc = loop.id;
        event.type = static_cast<uint16_t>(frame.op) + 1;
        event.kind = static_cast<uint8_t>(stats::TraceEventKind::kNetParse);
        recorder_->Record(event);
      }
    }

    TenantId tenant = kDefaultTenant;
    if (options_.tenants != nullptr && frame.tenant != 0) {
      // Interning is O(1) after the tenant's first request (lock-free
      // probe); the first request takes the registry mutex once.
      tenant = options_.tenants->Intern(frame.tenant);
    }
    if (tenant_stats_ != nullptr) {
      tenant_stats_->At(tenant).requests.fetch_add(1,
                                                   std::memory_order_relaxed);
    }

    Pending* pending = loop.pending_pool.Acquire();
    pending->loop = &loop;
    pending->token = conn->Token();
    pending->request_id = frame.id;
    pending->tenant = tenant;
    inflight_dones_.fetch_add(1, std::memory_order_relaxed);
    graph::Cluster::BatchRequest request;
    request.query = ToGraphQuery(frame);
    request.tenant = tenant;
    request.deadline =
        frame.deadline_ns == 0
            ? 0
            : now + static_cast<Nanos>(frame.deadline_ns);
    request.id = frame.id;
    request.traced = traced;
    // 8-byte capture: stays in std::function's inline buffer.
    request.done = [pending](const server::WorkItem& w, Outcome outcome,
                             const GraphQueryResult& result) {
      pending->loop->server->OnQueryDone(pending, w, outcome, result);
    };
    loop.batch.push_back(std::move(request));
    loop.batch_tokens.push_back(conn->Token());
    if (loop.batch.size() >= options_.max_batch) SubmitParsed(loop);
  }
}

void NetServer::SubmitParsed(Loop& loop) {
  if (!loop.batch.empty()) {
    loop.counters.submit_batches.fetch_add(1, std::memory_order_relaxed);
    // Synchronous completions (rejections/sheds) fire on this thread
    // while SubmitBatch iterates the batch; delivering them immediately
    // could resume a paused read, whose re-parse appends to the batch
    // mid-iteration. Park them in deferred_dones until the call returns.
    ++loop.submit_depth;
    loop.in_submit = true;
    // The loop id rides along as the broker run-queue affinity hint:
    // each event loop keeps feeding the same run-queue shard, so the
    // submit side of the execution core stays shared-nothing per loop.
    const server::Stage::BatchResult result =
        cluster_->SubmitBatch(loop.batch, loop.id);
    loop.in_submit = false;
    if (result.shedded > 0) {
      // A broker's bounded queue stopped admitting: pause every
      // connection that fed this batch until the queue drains
      // (MaybeResumePaused).
      for (const uint64_t token : loop.batch_tokens) {
        Connection* conn = Resolve(loop, token);
        if (conn == nullptr || conn->read_paused_overload) continue;
        conn->read_paused_overload = true;
        loop.counters.pauses_overload.fetch_add(1, std::memory_order_relaxed);
        PauseRead(loop, conn);
      }
      loop.overload_paused = true;
    }
    loop.batch.clear();
    loop.batch_tokens.clear();
    --loop.submit_depth;
  }
  // Answer the parked synchronous rejections — only at the outermost
  // call: delivery can resume reads whose re-parse fills the batch and
  // re-enters SubmitParsed, and letting every nesting level deliver
  // would recurse without bound. Nested calls just append here; the
  // index loop picks their entries up (the vector may grow and
  // reallocate mid-iteration, hence no iterators and a by-value copy).
  if (loop.submit_depth == 0) {
    for (size_t i = 0; i < loop.deferred_dones.size(); ++i) {
      const Done done = loop.deferred_dones[i];
      DeliverDone(loop, done);
    }
    loop.deferred_dones.clear();
  }
}

bool NetServer::BrokersCongested() const {
  const size_t limit = cluster_->options().broker_queue_capacity / 2;
  for (size_t b = 0; b < cluster_->num_brokers(); ++b) {
    if (cluster_->broker(b)->QueueLength() >= limit) return true;
  }
  return false;
}

void NetServer::MaybeResumePaused(Loop& loop) {
  if (!loop.overload_paused || BrokersCongested()) return;
  loop.overload_paused = false;
  for (auto& slot : loop.slots) {
    Connection* conn = slot.get();
    if (conn == nullptr || conn->fd < 0 || !conn->read_paused_overload) {
      continue;
    }
    conn->read_paused_overload = false;
    ResumeRead(loop, conn);
  }
}

void NetServer::OnQueryDone(Pending* pending, const server::WorkItem& item,
                            Outcome outcome, const GraphQueryResult& result) {
  // Keeps Stop()'s loop teardown at bay until every return path below
  // has finished touching `loop`.
  struct InflightGuard {
    std::atomic<uint64_t>& count;
    ~InflightGuard() { count.fetch_sub(1, std::memory_order_release); }
  } inflight_guard{inflight_dones_};
  Loop& loop = *pending->loop;
  Done done;
  done.token = pending->token;
  done.request_id = pending->request_id;
  done.status = static_cast<uint8_t>(ToStatus(outcome, result.ok));
  // Response flags carry the RejectReason wire code: the broker stage's
  // own reason when it terminated the request, else the first failed
  // subquery's shard-side reason.
  if (item.reject_reason != RejectReason::kNone) {
    done.reason = static_cast<uint8_t>(item.reject_reason);
  } else if (outcome == Outcome::kCompleted && !result.ok) {
    done.reason = result.fail_reason;
  }
  done.value = result.value;
  if (tenant_stats_ != nullptr) {
    TenantNetCell& cell = tenant_stats_->At(pending->tenant);
    switch (static_cast<ResponseStatus>(done.status)) {
      case ResponseStatus::kOk:
        cell.ok.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kRejected:
        cell.rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kShedded:
        cell.shedded.fetch_add(1, std::memory_order_relaxed);
        break;
      case ResponseStatus::kExpired:
        cell.expired.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        cell.failed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  }
  loop.pending_pool.Release(pending);
  if (std::this_thread::get_id() ==
      loop.tid.load(std::memory_order_relaxed)) {
    // Synchronous completion on the owning event loop itself (a
    // rejection inside Submit/SubmitBatch — only the owning loop ever
    // submits its own connections' queries). Never goes near the ring —
    // the loop must not be able to block on the queue only it drains.
    // Delivery is deferred while a submit call is iterating the batch
    // (see SubmitParsed).
    if (loop.in_submit) {
      loop.deferred_dones.push_back(done);
    } else {
      DeliverDone(loop, done);
    }
    return;
  }
  // Worker thread: a full ring means the owning loop has fallen behind;
  // spin until a drain frees a slot (the completion must be delivered
  // exactly once). The loop drains every iteration and can never block
  // on the ring itself, so the wait is bounded by loop progress — except
  // after Stop(), when the loops are gone and every connection is dead:
  // then the completion has no destination and is dropped instead of
  // hanging the cluster's shutdown.
  while (!loop.done_ring.TryPush(std::move(done))) {
    if (stop_requested_.load(std::memory_order_acquire)) return;
    CpuRelax();
  }
  // Wake the loop only if it is (about to be) blocked: an awake loop
  // drains the ring every iteration, so the eventfd write would be a
  // wasted syscall. The seq_cst fence pairs with the loop's pre-wait
  // fence (store done_waiting=true; fence; check ring emptiness): either
  // this push is visible to that check, or done_waiting=true is visible
  // here — a push can never slip past both.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (loop.done_waiting.load(std::memory_order_relaxed) &&
      !loop.done_signal.exchange(true, std::memory_order_acq_rel)) {
    WriteEventFd(loop.event_fd);
    loop.counters.eventfd_wakeups.fetch_add(1, std::memory_order_relaxed);
    loop.counters.syscalls.fetch_add(1, std::memory_order_relaxed);
  }
}

void NetServer::DeliverDone(Loop& loop, const Done& done) {
  loop.counters.responses.fetch_add(1, std::memory_order_relaxed);
  const auto status = static_cast<ResponseStatus>(done.status);
  switch (status) {
    case ResponseStatus::kRejected:
      loop.counters.rejections.fetch_add(1, std::memory_order_relaxed);
      loop.counters.rejections_policy.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kShedded:
      loop.counters.rejections.fetch_add(1, std::memory_order_relaxed);
      loop.counters.rejections_queue.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kExpired:
      loop.counters.expirations.fetch_add(1, std::memory_order_relaxed);
      break;
    case ResponseStatus::kFailed:
      loop.counters.failures_shard.fetch_add(1, std::memory_order_relaxed);
      break;
    default:
      break;
  }
  Connection* conn = Resolve(loop, done.token);
  if (conn == nullptr) return;  // Connection died while in flight.
  --conn->owed;
  if constexpr (stats::kTraceCompiledIn) {
    if (recorder_->ShouldSample(done.request_id)) {
      stats::TraceEvent event;
      event.ts = SystemClock::Global()->Now();
      event.id = done.request_id;
      event.arg0 = static_cast<int64_t>(done.status);
      event.loc = loop.id;
      event.kind = static_cast<uint8_t>(stats::TraceEventKind::kResponseWrite);
      event.reason = done.reason;
      recorder_->Record(event);
    }
  }
  uint8_t encoded[kResponseFrameBytes];
  EncodeResponse({done.request_id, status, done.reason, done.value}, encoded);
  // Space is guaranteed: parsing never runs the write ring below
  // owed * kResponseFrameBytes of free space.
  conn->tx.Write(encoded, sizeof(encoded));
  conn->dirty = true;
  if (conn->read_paused_inflight &&
      conn->owed < options_.max_inflight_per_conn / 2) {
    conn->read_paused_inflight = false;
    ResumeRead(loop, conn);
  }
}

void NetServer::BuildAdminPayload(uint8_t op, std::string* out) {
  out->clear();
  switch (op) {
    case kOpStatsJson:
      if (options_.metrics != nullptr) {
        *out = options_.metrics->ToJson();
      } else {
        *out = "{\"counters\":{},\"gauges\":{},\"histograms\":{}}";
      }
      return;
    case kOpStatsPrometheus:
      if (options_.metrics != nullptr) *out = options_.metrics->ToPrometheus();
      return;
    case kOpTraceDump:
      if constexpr (stats::kTraceCompiledIn) recorder_->Dump(out);
      return;
    default:
      return;
  }
}

void NetServer::StartAdmin(Loop& loop, Connection* conn,
                           const RequestFrame& frame) {
  BuildAdminPayload(frame.op, &conn->admin_payload);
  conn->admin_offset = 0;
  conn->admin_id = frame.id;
  conn->admin_active = true;
  PumpAdmin(loop, conn);
}

bool NetServer::PumpAdmin(Loop& loop, Connection* conn) {
  if (!conn->admin_active || conn->fd < 0) return true;
  const size_t total = conn->admin_payload.size();
  for (;;) {
    const size_t remaining = total - conn->admin_offset;
    const size_t chunk = remaining < kAdminMaxChunk ? remaining
                                                    : kAdminMaxChunk;
    // The write ring keeps owed * kResponseFrameBytes reserved for
    // in-flight graph responses (DeliverDone writes unconditionally); an
    // admin chunk only goes out when it fits NEXT TO that reservation.
    if (conn->tx.free_space() <
        (conn->owed + 1) * kResponseFrameBytes + chunk) {
      return false;  // Re-pumped next loop iteration, after a flush.
    }
    const bool more = conn->admin_offset + chunk < total;
    uint8_t head[kResponseFrameBytes];
    wire::PutU32(head, static_cast<uint32_t>(kResponseBodyBytes + chunk));
    uint8_t* p = head + kLengthPrefixBytes;
    wire::PutU64(p, conn->admin_id);
    p[8] = static_cast<uint8_t>(ResponseStatus::kOk);
    p[9] = more ? kAdminFlagMore : 0;
    wire::PutU64(p + 10, static_cast<uint64_t>(total));
    conn->tx.Write(head, sizeof(head));
    if (chunk > 0) {
      conn->tx.Write(reinterpret_cast<const uint8_t*>(
                         conn->admin_payload.data() + conn->admin_offset),
                     chunk);
    }
    conn->admin_offset += chunk;
    conn->dirty = true;
    if (!more) {
      conn->admin_active = false;
      conn->admin_payload.clear();
      conn->admin_payload.shrink_to_fit();
      loop.counters.responses.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
}

void NetServer::PumpAdminAll(Loop& loop) {
  for (auto& slot : loop.slots) {
    Connection* conn = slot.get();
    if (conn == nullptr || conn->fd < 0 || !conn->admin_active) continue;
    if (PumpAdmin(loop, conn)) {
      // Frames parked behind the admin request (including another admin
      // op) are parseable again.
      ParseConn(loop, conn);
    }
  }
}

void NetServer::DrainCompletions(Loop& loop) {
  // done_signal resets in the pre-wait block (just before the loop can
  // actually block), not here: resetting mid-iteration would let workers
  // pay an eventfd write for completions this iteration already covers.
  Done done;
  while (loop.done_ring.TryPop(done)) DeliverDone(loop, done);
}

void NetServer::FlushConn(Loop& loop, Connection* conn) {
  if (conn->fd < 0) return;
  if (backend_ == NetBackend::kUring) {
    UringFlushConn(loop, conn);
    return;
  }
  conn->dirty = false;
  while (!conn->tx.empty()) {
    struct iovec iov[2];
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(conn->tx.ReadableSegments(iov));
    // MSG_NOSIGNAL: a write to a peer-reset socket fails with EPIPE
    // (closing this connection) instead of killing the process.
    const ssize_t n = ::sendmsg(conn->fd, &msg, MSG_NOSIGNAL);
    CountSyscall(loop.counters);
    if (n > 0) {
      conn->tx.Consume(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(loop, conn);
    return;
  }
  if (conn->tx.empty() && conn->read_paused_tx) {
    conn->read_paused_tx = false;
    ResumeRead(loop, conn);
  }
  if (conn->closing && conn->owed == 0 && conn->tx.empty()) {
    CloseConn(loop, conn);
    return;
  }
  UpdateEpoll(loop, conn);  // Arm EPOLLOUT iff bytes remain.
}

void NetServer::LoopThread(Loop& loop) {
  loop.tid.store(std::this_thread::get_id(), std::memory_order_relaxed);
  if (backend_ == NetBackend::kUring) {
    UringRun(loop);
  } else {
    EpollRun(loop);
  }
  // Drain loop-side state so queued completions don't linger unanswered
  // in the ring (they resolve to dead connections after Stop closes fds).
  DrainCompletions(loop);
}

void NetServer::EpollRun(Loop& loop) {
  epoll_event events[kMaxEpollEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    // Overload pauses are re-checked on a short timer (the broker queue
    // drains without producing an event we could wait on); otherwise a
    // long timeout keeps an idle server quiet.
    int timeout_ms = loop.overload_paused ? 1 : 100;
    // Pre-wait handshake with OnQueryDone's worker side: declare we are
    // about to block, then re-check the done ring. Seq_cst fences make
    // this a store-buffering (Dekker) pair — a worker push either shows
    // up in EmptyApprox here, or the worker sees done_waiting and pays
    // the eventfd wakeup.
    loop.done_signal.store(false, std::memory_order_relaxed);
    loop.done_waiting.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (!loop.done_ring.EmptyApprox()) timeout_ms = 0;
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEpollEvents,
                               timeout_ms);
    loop.done_waiting.store(false, std::memory_order_relaxed);
    CountSyscall(loop.counters);
    loop.counters.wakeups.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < n; ++i) {
      const uint64_t token = events[i].data.u64;
      if (token == kListenToken) {
        AcceptReady(loop);
        continue;
      }
      if (token == kEventToken) {
        uint64_t drained;
        [[maybe_unused]] ssize_t r =
            ::read(loop.event_fd, &drained, sizeof(drained));
        CountSyscall(loop.counters);
        DrainMailbox(loop);
        continue;
      }
      Connection* conn = Resolve(loop, token);
      if (conn == nullptr) continue;  // Stale event for a closed conn.
      if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        ReadConn(loop, conn);
      }
      if (conn->fd >= 0 && (events[i].events & EPOLLOUT)) {
        FlushConn(loop, conn);
      }
    }
    // One admission episode for everything parsed this wakeup, then
    // answer whatever completed — the batch's synchronous rejections are
    // delivered inside SubmitParsed and flushed in this same iteration.
    // The drain/flush/resume phases can themselves parse new requests
    // (ResumeRead re-parses buffered bytes), so repeat until nothing is
    // left rather than let a resumed request sit in the batch across an
    // epoll_wait (up to the idle timeout away). Each pass consumes real
    // buffered bytes or ring entries, so the loop terminates.
    do {
      SubmitParsed(loop);
      DrainCompletions(loop);
      PumpAdminAll(loop);
      for (auto& slot : loop.slots) {
        Connection* conn = slot.get();
        if (conn != nullptr && conn->fd >= 0 && conn->dirty) {
          FlushConn(loop, conn);
        }
      }
      MaybeResumePaused(loop);
    } while (!loop.batch.empty());
  }
}

}  // namespace bouncer::net
