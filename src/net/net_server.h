#ifndef BOUNCER_NET_NET_SERVER_H_
#define BOUNCER_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/policy_state_table.h"
#include "src/core/tenant_registry.h"
#include "src/graph/cluster.h"
#include "src/net/byte_ring.h"
#include "src/net/protocol.h"
#include "src/stats/flight_recorder.h"
#include "src/stats/metric_registry.h"
#include "src/util/mpmc_queue.h"
#include "src/util/object_pool.h"
#include "src/util/status.h"

namespace bouncer::net {

/// Event-loop backend for the network front end.
enum class NetBackend : uint8_t {
  kAuto = 0,   ///< io_uring when the kernel supports it, else epoll.
  kEpoll = 1,  ///< epoll_wait + readv/sendmsg/accept4 per ready fd.
  kUring = 2,  ///< io_uring: multishot accept/recv, batched one-syscall
               ///< submit-and-wait.
};

/// "auto" | "epoll" | "io_uring".
const char* NetBackendName(NetBackend backend);
/// Parses NetBackendName() spellings (plus "uring"); false on anything
/// else, leaving `out` untouched.
bool ParseNetBackend(const std::string& text, NetBackend* out);

/// Linux epoll TCP front door for a graph::Cluster, sharded across N
/// independent event loops (`Options::num_loops`, default
/// min(hardware threads, 4)) so the front-end scales with cores instead
/// of serializing every connection behind one loop thread.
///
/// Each loop is a self-contained reactor: its own epoll fd, its own
/// `SO_REUSEPORT` listener (the kernel hashes incoming connections
/// across the listeners; when `SO_REUSEPORT` is unavailable — or
/// `Options::force_fd_handoff` is set — loop 0 owns the only listener
/// and hands accepted fds to the other loops round-robin through a
/// per-loop mailbox ring + eventfd), its own connection-slot table and
/// byte rings, its own parse/submit batch buffers, its own
/// `ObjectPool` of per-request records, and its own completion ring +
/// eventfd. Nothing mutable is shared between loops on the hot path —
/// the zero-allocation, single-writer discipline of the original
/// single-loop design holds per loop — and all loops stream their
/// parsed batches into the shared admission stages via
/// `Cluster::SubmitBatch`.
///
/// Completions route back to the owning loop through a 64-bit
/// generation-stamped connection token:
///
///   bits 63..32  generation (slot reuse guard)
///   bits 31..24  loop id    (completion routing)
///   bits 23..0   slot index (within the owning loop's table)
///
/// A cluster worker finishing a query packs {token, id, status, value}
/// into the owning loop's bounded MPMC done-ring and writes that loop's
/// eventfd on the empty→non-empty transition; only the owning loop ever
/// touches the connection. Rejections still complete synchronously
/// inside the submitting loop's `SubmitBatch` call and are answered
/// from the same loop iteration without waking any worker.
///
/// Per-connection backpressure (inflight cap, write-ring owed-space
/// gate, broker-shed overload pause with half-capacity resume) is
/// unchanged from the single-loop design and applies loop-locally:
/// paused sockets fill their kernel receive buffers, shrink the TCP
/// window, and push the queueing back into the clients.
class NetServer {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;  ///< 0 = ephemeral; read the bound port via port().
    int listen_backlog = 256;
    /// Event loops. 0 = min(hardware threads, 4). Capped at 255 (the
    /// loop-id field of the connection token is 8 bits).
    size_t num_loops = 0;
    /// Testing / legacy-kernel knob: skip `SO_REUSEPORT` and run the
    /// accept-and-hand-off fallback (loop 0 accepts, fds round-robin to
    /// the other loops through their mailboxes).
    bool force_fd_handoff = false;
    size_t max_connections = 1024;  ///< Across all loops.
    size_t read_ring_bytes = 1 << 16;
    size_t write_ring_bytes = 1 << 17;
    /// Cap on one admission episode; a wakeup that parses more submits in
    /// chunks of this size.
    size_t max_batch = 4096;
    /// Admitted-but-unanswered cap per connection before its EPOLLIN is
    /// paused. Bounds both completion-ring pressure and write-ring needs.
    size_t max_inflight_per_conn = 1024;
    /// When set, the server answers kOpStatsJson/kOpStatsPrometheus from
    /// this registry and publishes its own per-loop counters into it
    /// (under "net.*"); must outlive the server. Without it, admin stats
    /// requests return an empty snapshot.
    stats::MetricRegistry* metrics = nullptr;
    /// Flight recorder serving kOpTraceDump and receiving the net-layer
    /// parse/response events of sampled requests; defaults to
    /// stats::FlightRecorder::Global() when tracing is compiled in.
    stats::FlightRecorder* recorder = nullptr;
    /// Interns the wire protocol's external tenant ids (v2 frames) into
    /// the dense indices the admission stages key their per-tenant state
    /// on; should be the same registry the cluster's stages were built
    /// with. Must outlive the server. When null, every request runs as
    /// the default tenant and v2 tenant ids are ignored. With `metrics`
    /// also set, per-tenant outcome counters are published under
    /// "tenant.<external-id>.*".
    TenantRegistry* tenants = nullptr;
    /// Event-loop backend. kAuto probes io_uring support once per
    /// process at Start() and falls back to epoll with a logged reason
    /// (see backend_fallback_reason()); kUring instead fails Start()
    /// when the kernel or the build (BOUNCER_IOURING=OFF) lacks it.
    NetBackend backend = NetBackend::kAuto;
    /// io_uring only: provided recv buffers per loop (power of two) and
    /// the size of each. Multishot recv completions land in these; the
    /// loop copies them into the connection rx rings and recycles them.
    size_t uring_buf_count = 512;
    size_t uring_buf_bytes = 4096;
    /// io_uring only: submission-queue entries per loop. Bounds the
    /// SQEs batched into one io_uring_enter; overflow just flushes
    /// early.
    size_t uring_sq_entries = 1024;
  };

  /// Counter snapshot. Counters are accumulated per loop in
  /// cache-line-padded blocks (no false sharing between loops) and
  /// summed on read by AggregateStats() / LoopStats().
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t connections_dropped = 0;  ///< No free slot / over cap.
    uint64_t connections_closed = 0;
    uint64_t requests = 0;
    uint64_t responses = 0;
    uint64_t rejections = 0;  ///< kRejected + kShedded responses.
    uint64_t rejections_policy = 0;  ///< Admission policy said no.
    uint64_t rejections_queue = 0;   ///< Shed on a full bounded queue.
    uint64_t failures_shard = 0;     ///< kFailed: shard-side subquery loss.
    uint64_t expirations = 0;        ///< kExpired responses.
    uint64_t bad_frames = 0;
    uint64_t submit_batches = 0;
    uint64_t pauses = 0;    ///< EPOLLIN disarm episodes.
    uint64_t pauses_inflight = 0;  ///< ... due to the inflight cap.
    uint64_t pauses_tx = 0;        ///< ... due to write-ring space.
    uint64_t pauses_overload = 0;  ///< ... due to broker-queue sheds.
    uint64_t admin_requests = 0;   ///< Admin opcodes served.
    uint64_t handoffs = 0;  ///< Fds mailed to another loop (fallback mode).
    uint64_t nodelay_failures = 0;  ///< TCP_NODELAY not verified on accept.
    /// Data-path syscalls: waits, readv/sendmsg/accept4, epoll_ctl,
    /// io_uring_enter, eventfd reads and writes. Divided by `responses`
    /// this is the per-request syscall cost the backends compete on.
    uint64_t syscalls = 0;
    uint64_t wakeups = 0;  ///< Blocking-wait returns (epoll/io_uring).
    /// Completion-signal write(2)s workers actually issued; pushes that
    /// found the loop awake are coalesced away (no syscall).
    uint64_t eventfd_wakeups = 0;
    /// Backend that produced these counters (resolved, never kAuto).
    NetBackend backend = NetBackend::kEpoll;
  };

  /// `cluster` must be started, and must outlive the server. Shutdown
  /// order: NetServer::Stop() (or destruction), then Cluster::Stop() —
  /// completions the cluster flushes during its stop still land in this
  /// object's completion rings, so the server object must still exist.
  NetServer(graph::Cluster* cluster, const Options& options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the listener(s) and spawns one event-loop thread per loop.
  Status Start();
  /// Stops every loop and closes every connection. Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start(); all listeners share it).
  uint16_t port() const { return port_; }
  /// Counters summed across loops.
  Stats AggregateStats() const;
  /// One loop's counters (loop < num_loops()).
  Stats LoopStats(size_t loop) const;
  /// Event loops actually running (valid after Start()).
  size_t num_loops() const { return loops_.size(); }
  /// True when the accept-and-hand-off fallback is active instead of
  /// per-loop SO_REUSEPORT listeners.
  bool handoff_mode() const { return handoff_mode_; }
  const Options& options() const { return options_; }
  /// The backend actually running (resolved at Start(); never kAuto
  /// afterwards).
  NetBackend backend() const { return backend_; }
  /// Why Options::backend = kAuto degraded to epoll; empty when it did
  /// not.
  const std::string& backend_fallback_reason() const {
    return backend_fallback_reason_;
  }
  /// Cached process-wide kernel/build capability probe for the io_uring
  /// backend; fills `reason` when unsupported.
  static bool UringSupported(std::string* reason = nullptr);

  /// Per-tenant outcome counters (Options::tenants required; zeros
  /// otherwise). `tenant` is the dense registry index.
  struct TenantStats {
    uint64_t requests = 0;   ///< Frames parsed for this tenant.
    uint64_t ok = 0;         ///< kOk responses.
    uint64_t rejected = 0;   ///< Policy rejections.
    uint64_t shedded = 0;    ///< Queue sheds.
    uint64_t expired = 0;    ///< Deadline expirations.
    uint64_t failed = 0;     ///< Shard-side subquery failures.
  };
  TenantStats TenantStatsOf(TenantId tenant) const;

 private:
  struct Connection;
  struct Pending;  ///< Pooled per-request completion record.
  struct Loop;

  /// Completion record a cluster worker pushes for the owning loop to
  /// deliver.
  struct Done {
    uint64_t token = 0;  ///< Generation | loop id | slot index.
    uint64_t request_id = 0;
    uint8_t status = 0;
    uint8_t reason = 0;  ///< RejectReason wire code (response flags byte).
    uint64_t value = 0;
  };

  /// Per-loop counters, cache-line aligned so two loops bumping their
  /// own counters never share a line.
  struct alignas(64) LoopCounters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_dropped{0};
    std::atomic<uint64_t> connections_closed{0};
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> responses{0};
    std::atomic<uint64_t> rejections{0};
    std::atomic<uint64_t> rejections_policy{0};
    std::atomic<uint64_t> rejections_queue{0};
    std::atomic<uint64_t> failures_shard{0};
    std::atomic<uint64_t> expirations{0};
    std::atomic<uint64_t> bad_frames{0};
    std::atomic<uint64_t> submit_batches{0};
    std::atomic<uint64_t> pauses{0};
    std::atomic<uint64_t> pauses_inflight{0};
    std::atomic<uint64_t> pauses_tx{0};
    std::atomic<uint64_t> pauses_overload{0};
    std::atomic<uint64_t> admin_requests{0};
    std::atomic<uint64_t> handoffs{0};
    std::atomic<uint64_t> nodelay_failures{0};
    std::atomic<uint64_t> syscalls{0};
    std::atomic<uint64_t> wakeups{0};
    std::atomic<uint64_t> eventfd_wakeups{0};
  };

  void LoopThread(Loop& loop);
  void EpollRun(Loop& loop);
  void AcceptReady(Loop& loop);
  void HandleAccepted(Loop& loop, int fd);
  void AdoptFd(Loop& loop, int fd);
  void DrainMailbox(Loop& loop);
  void ReadConn(Loop& loop, Connection* conn);
  void ParseConn(Loop& loop, Connection* conn);
  void SubmitParsed(Loop& loop);
  void DeliverDone(Loop& loop, const Done& done);
  void DrainCompletions(Loop& loop);
  void FlushConn(Loop& loop, Connection* conn);
  void CloseConn(Loop& loop, Connection* conn);
  void PauseRead(Loop& loop, Connection* conn);
  void ResumeRead(Loop& loop, Connection* conn);
  void UpdateEpoll(Loop& loop, Connection* conn);
  void MaybeResumePaused(Loop& loop);
  bool BrokersCongested() const;
  Connection* Resolve(Loop& loop, uint64_t token);
  void OnQueryDone(Pending* pending, const server::WorkItem& item,
                   server::Outcome outcome,
                   const graph::GraphQueryResult& result);
  /// Renders the admin payload for `op` (registry JSON / Prometheus text
  /// / recorder JSONL dump).
  void BuildAdminPayload(uint8_t op, std::string* out);
  /// Begins streaming an admin response on `conn` and pumps what fits.
  void StartAdmin(Loop& loop, Connection* conn, const RequestFrame& frame);
  /// Writes as many admin chunks as the write ring can take without
  /// eating the space reserved for owed graph responses. Returns true
  /// when the response finished (admin_active cleared).
  bool PumpAdmin(Loop& loop, Connection* conn);
  /// Pumps every connection with an admin response in progress; resumes
  /// parsing on the ones that finished.
  void PumpAdminAll(Loop& loop);
  Status StartListeners();
  void CloseAll();

  // io_uring backend (net_server_uring.cc; no-op stubs when the build
  // compiles it out). The shared logic above calls into these through
  // small backend branches at the transport touchpoints.
  bool UringSetupLoops();  ///< Rings per loop; false => fallback/fail.
  void UringDestroyLoop(Loop& loop);
  void UringRun(Loop& loop);
  void UringProcessCqes(Loop& loop);
  void UringOnAccept(Loop& loop, int res, uint32_t flags);
  void UringOnRecv(Loop& loop, uint64_t user_data, int res, uint32_t flags);
  void UringOnSend(Loop& loop, uint64_t user_data, int res);
  void UringArmRecv(Loop& loop, Connection* conn);
  /// The uring analogue of UpdateEpoll: reconciles want_read with the
  /// armed multishot recv (arming or async-canceling as needed).
  void UringUpdateInterest(Loop& loop, Connection* conn);
  /// Drains staged recv buffers into rx, parses, and re-arms.
  void UringPumpConn(Loop& loop, Connection* conn);
  void UringFlushConn(Loop& loop, Connection* conn);
  /// Cancels outstanding SQEs before CloseConn closes the fd; the slot
  /// stays a zombie (not reusable) until they all complete.
  void UringPrepareClose(Loop& loop, Connection* conn);
  void UringRearmPending(Loop& loop);
  /// One CQE landed for `conn`'s slot: drop the inflight count and, when
  /// a zombie slot drains to zero, recycle it.
  void UringDecInflight(Loop& loop, Connection* conn);

  graph::Cluster* cluster_;
  Options options_;

  std::vector<std::unique_ptr<Loop>> loops_;
  uint16_t port_ = 0;
  bool handoff_mode_ = false;
  NetBackend backend_ = NetBackend::kEpoll;  ///< Resolved at Start().
  std::string backend_fallback_reason_;
  /// Live connections across all loops (accept-path only — the data
  /// path never touches it).
  std::atomic<size_t> total_live_{0};
  /// Round-robin target for fallback fd handoff (loop 0 only).
  size_t handoff_rr_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};

  stats::FlightRecorder* recorder_ = nullptr;
  uint64_t metrics_collector_handle_ = 0;

  /// Per-tenant outcome accounting, one cache-line cell per tenant in a
  /// flat-indexed slab (grows lazily with the registry; never rehashes
  /// on the parse path). Null when Options::tenants is unset.
  struct alignas(64) TenantNetCell {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> ok{0};
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> shedded{0};
    std::atomic<uint64_t> expired{0};
    std::atomic<uint64_t> failed{0};
  };
  std::unique_ptr<PolicyStateTable<TenantNetCell>> tenant_stats_;
  /// In-flight cluster completions (Pending records alive between parse
  /// and OnQueryDone return). Stop() drains it after joining the loop
  /// threads: a completion still executing inside OnQueryDone reads
  /// Loop state, so the loops must not be torn down under it.
  std::atomic<uint64_t> inflight_dones_{0};
};

}  // namespace bouncer::net

#endif  // BOUNCER_NET_NET_SERVER_H_
