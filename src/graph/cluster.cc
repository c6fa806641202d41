#include "src/graph/cluster.h"

#include <algorithm>

#include "src/util/epoch_visited.h"

namespace bouncer::graph {

using server::Outcome;
using server::Stage;
using server::WorkItem;

struct Cluster::QueryContext {
  GraphQuery query;
  GraphQueryResult result;
  CompletionFn done;
};

namespace {

/// Countdown for one broker->shards scatter round. Lives in the
/// broker worker's scratch; the last shard completion is its last access
/// (the wake-up goes through the cluster-owned ParkingLot, never through
/// this struct), so the gathering worker may move on the instant
/// `pending` reads zero.
struct ScatterCountdown {
  std::atomic<uint32_t> pending{0};
  std::atomic<bool> failed{false};
  /// RejectReason wire code of the first failure (first writer wins).
  std::atomic<uint8_t> fail_reason{0};
};

/// Maps a shard-stage failure to the kShard* reason the client sees.
uint8_t ShardFailReason(const WorkItem& w, Outcome outcome) {
  switch (w.reject_reason) {
    case RejectReason::kPolicy:
      return static_cast<uint8_t>(RejectReason::kShardPolicy);
    case RejectReason::kQueueFull:
      return static_cast<uint8_t>(RejectReason::kShardQueueFull);
    case RejectReason::kExpired:
      return static_cast<uint8_t>(RejectReason::kShardExpired);
    default:
      break;
  }
  switch (outcome) {
    case Outcome::kRejected:
      return static_cast<uint8_t>(RejectReason::kShardPolicy);
    case Outcome::kExpired:
      return static_cast<uint8_t>(RejectReason::kShardExpired);
    default:
      return static_cast<uint8_t>(RejectReason::kShardQueueFull);
  }
}

/// One in-flight subquery batch; lives in the broker worker's scratch
/// until the round's countdown reaches zero, so raw pointers into it stay
/// valid.
struct ShardTask {
  Subquery subquery;
  SubqueryResult result;
  ScatterCountdown* countdown = nullptr;
};

/// Per-broker-worker reusable buffers: the full multi-round execution of
/// a query runs out of these, so the steady-state path performs no
/// heap allocation (vectors are clear()ed, never freed; capacity is
/// retained across rounds and queries). Broker workers are dedicated
/// threads, so thread-local storage is per-worker by construction; no
/// round outlives its ScatterGather call, so nothing here escapes the
/// owning thread.
struct WorkerScratch {
  // Query-level trace/failure state, stamped from the WorkItem at
  // ExecuteQuery entry so the scatter rounds (which only see vertex
  // spans) can emit correlated events and report the failing reason.
  uint64_t trace_id = 0;
  bool traced = false;
  TenantId tenant = kDefaultTenant;
  uint8_t fail_reason = 0;
  // Round-level state.
  std::vector<ShardTask> tasks;  ///< One slot per shard.
  ScatterCountdown countdown;
  // Query-level operand buffers.
  std::vector<uint32_t> degrees;
  std::vector<uint32_t> hop1;
  std::vector<uint32_t> hop2;
  std::vector<uint32_t> neighbors_a;
  std::vector<uint32_t> neighbors_b;
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next;
  // Epoch-stamped membership sets replacing per-call sort/unique scratch
  // (2-hop dedup) and sorted visited vectors (BFS).
  EpochVisitedSet dedup;
  EpochVisitedSet bfs_visited;
};

thread_local WorkerScratch tls_scratch;

/// Brief spin before parking on the scatter gate: under load the shard
/// completion lands within microseconds, while a park costs a futex
/// round-trip on both sides.
constexpr int kGatherSpins = 128;

}  // namespace

Cluster::Cluster(const GraphStore* graph, const QueryTypeRegistry* registry,
                 Clock* clock, const Options& options)
    : graph_(graph), registry_(registry), clock_(clock), options_(options) {
  const auto num_shards = static_cast<uint32_t>(
      options_.num_shards == 0 ? 1 : options_.num_shards);
  options_.num_shards = num_shards;
  if (options_.num_brokers == 0) options_.num_brokers = 1;
  if constexpr (stats::kTraceCompiledIn) {
    recorder_ = options_.recorder != nullptr
                    ? options_.recorder
                    : &stats::FlightRecorder::Global();
  }

  for (uint32_t s = 0; s < num_shards; ++s) {
    engines_.push_back(std::make_unique<ShardEngine>(
        graph_, s, num_shards, options_.work_per_edge));
    ShardEngine* engine = engines_.back().get();
    Stage::Options stage_options;
    stage_options.name = "shard-" + std::to_string(s);
    stage_options.num_workers = options_.shard_workers;
    stage_options.queue_capacity = options_.shard_queue_capacity;
    stage_options.metrics = options_.metrics;
    stage_options.recorder = options_.recorder;
    stage_options.tenants = options_.tenants;
    const PolicyConfig policy = options_.shard_policy;
    shards_.push_back(std::make_unique<Stage>(
        stage_options, registry_, clock_,
        [&policy](const PolicyContext& context) {
          return CreatePolicy(policy, context);
        },
        [engine](WorkItem& item) {
          auto* task = static_cast<ShardTask*>(item.user);
          engine->Execute(task->subquery, &task->result);
        }));
    if (!shards_.back()->init_status().ok()) {
      init_status_ = shards_.back()->init_status();
    }
  }

  for (size_t b = 0; b < options_.num_brokers; ++b) {
    Stage::Options stage_options;
    stage_options.name = "broker-" + std::to_string(b);
    stage_options.num_workers = options_.broker_workers;
    stage_options.queue_capacity = options_.broker_queue_capacity;
    stage_options.metrics = options_.metrics;
    stage_options.recorder = options_.recorder;
    stage_options.tenants = options_.tenants;
    const PolicyConfig policy = options_.broker_policy;
    brokers_.push_back(std::make_unique<Stage>(
        stage_options, registry_, clock_,
        [&policy](const PolicyContext& context) {
          return CreatePolicy(policy, context);
        },
        [this](WorkItem& item) { ExecuteQuery(item); }));
    if (!brokers_.back()->init_status().ok()) {
      init_status_ = brokers_.back()->init_status();
    }
  }
}

Cluster::~Cluster() { Stop(); }

Status Cluster::Start() {
  if (!init_status_.ok()) return init_status_;
  for (auto& shard : shards_) {
    if (Status s = shard->Start(); !s.ok()) return s;
  }
  for (auto& broker : brokers_) {
    if (Status s = broker->Start(); !s.ok()) return s;
  }
  return Status::OK();
}

void Cluster::Stop() {
  for (auto& broker : brokers_) broker->Stop(false);
  for (auto& shard : shards_) shard->Stop(false);
}

QueryTypeRegistry Cluster::MakeRegistry(const Slo& slo) {
  QueryTypeRegistry registry(slo);
  for (size_t i = 0; i < kNumGraphOps; ++i) {
    (void)registry.Register("QT" + std::to_string(i + 1), slo);
  }
  return registry;
}

GraphQuery Cluster::SampleQuery(GraphOp op, const GraphStore& graph,
                                Rng& rng) {
  GraphQuery q;
  q.op = op;
  const uint32_t n = std::max<uint32_t>(graph.num_vertices(), 1);
  q.source = static_cast<uint32_t>(rng.NextBounded(n));
  q.target = static_cast<uint32_t>(rng.NextBounded(n));
  if (op == GraphOp::kDegreeByExternalId) {
    q.external_id = graph.ExternalId(q.source);
  }
  return q;
}

Outcome Cluster::Submit(const GraphQuery& query, Nanos deadline,
                        CompletionFn done, uint64_t id, TenantId tenant) {
  const size_t broker_index =
      next_broker_.fetch_add(1, std::memory_order_relaxed) % brokers_.size();
  QueryContext* context = context_pool_.Acquire();
  context->query = query;
  context->result = GraphQueryResult{};
  context->done = std::move(done);

  WorkItem item;
  item.type = TypeIdFor(query.op);
  item.tenant = tenant;
  item.id = id;
  item.deadline = deadline;
  item.user = context;
  item.on_complete = [this](const WorkItem& w, Outcome outcome) {
    auto* ctx = static_cast<QueryContext*>(w.user);
    if (ctx->done) ctx->done(w, outcome, ctx->result);
    ctx->done = nullptr;  // Drop caller resources before pooling.
    context_pool_.Release(ctx);
  };
  return brokers_[broker_index]->Submit(std::move(item));
}

server::Stage::BatchResult Cluster::SubmitBatch(
    std::span<BatchRequest> requests, uint32_t submitter) {
  server::Stage::BatchResult total;
  if (requests.empty()) return total;

  // Build the WorkItems into per-broker scratch (reused across calls, so
  // steady state allocates nothing), then hand each broker its block in
  // one Stage::SubmitBatch. Requests spread round-robin across brokers;
  // each broker sees its share in arrival order.
  thread_local std::vector<std::vector<WorkItem>> tls_broker_items;
  std::vector<std::vector<WorkItem>>& broker_items = tls_broker_items;
  const size_t num_brokers = brokers_.size();
  if (broker_items.size() < num_brokers) broker_items.resize(num_brokers);
  for (size_t b = 0; b < num_brokers; ++b) broker_items[b].clear();

  const size_t start =
      num_brokers == 1
          ? 0
          : next_broker_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < requests.size(); ++i) {
    BatchRequest& request = requests[i];
    QueryContext* context = context_pool_.Acquire();
    context->query = request.query;
    context->result = GraphQueryResult{};
    context->done = std::move(request.done);

    WorkItem item;
    item.type = TypeIdFor(request.query.op);
    item.tenant = request.tenant;
    item.id = request.id;
    item.traced = request.traced;
    item.deadline = request.deadline;
    item.user = context;
    item.on_complete = [this](const WorkItem& w, Outcome outcome) {
      auto* ctx = static_cast<QueryContext*>(w.user);
      if (ctx->done) ctx->done(w, outcome, ctx->result);
      ctx->done = nullptr;  // Drop caller resources before pooling.
      context_pool_.Release(ctx);
    };
    broker_items[(start + i) % num_brokers].push_back(std::move(item));
  }
  for (size_t b = 0; b < num_brokers; ++b) {
    if (broker_items[b].empty()) continue;
    const server::Stage::BatchResult r =
        brokers_[b]->SubmitBatch(broker_items[b], submitter);
    total.admitted += r.admitted;
    total.rejected += r.rejected;
    total.shedded += r.shedded;
    broker_items[b].clear();
  }
  return total;
}

bool Cluster::ScatterGather(std::span<const uint32_t> vertices,
                            Subquery::Kind kind, uint32_t limit_per_vertex,
                            QueryTypeId type, Nanos deadline,
                            std::vector<uint32_t>* degrees_out,
                            std::vector<uint32_t>* neighbors_out) {
  WorkerScratch& scratch = tls_scratch;
  const size_t num_shards = shards_.size();
  if (scratch.tasks.size() < num_shards) scratch.tasks.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    ShardTask& task = scratch.tasks[s];
    task.subquery.vertices.clear();
    task.result.degrees.clear();
    task.result.neighbors.clear();
    task.result.checksum = 0;
  }
  for (const uint32_t v : vertices) {
    scratch.tasks[v % num_shards].subquery.vertices.push_back(v);
  }

  uint32_t active = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    if (!scratch.tasks[s].subquery.vertices.empty()) ++active;
  }
  if (active == 0) return true;

  // The countdown is preloaded with the full fan-out before the first
  // Submit: completion callbacks may fire synchronously inside Submit
  // (early rejection, shed on a full ring) or inline (single-shard fast
  // path), and must never see a count that another shard's submission
  // has not yet been added to.
  ScatterCountdown& countdown = scratch.countdown;
  countdown.pending.store(active, std::memory_order_relaxed);
  countdown.failed.store(false, std::memory_order_relaxed);
  countdown.fail_reason.store(0, std::memory_order_relaxed);

  for (size_t s = 0; s < num_shards; ++s) {
    ShardTask& task = scratch.tasks[s];
    if (task.subquery.vertices.empty()) continue;
    task.subquery.kind = kind;
    task.subquery.limit_per_vertex = limit_per_vertex;
    task.countdown = &countdown;

    WorkItem item;
    item.type = type;
    item.tenant = scratch.tenant;
    item.id = scratch.trace_id;
    item.traced = scratch.traced;
    item.deadline = deadline;
    item.user = &task;
    if constexpr (stats::kTraceCompiledIn) {
      if (scratch.traced) {
        stats::TraceEvent event;
        event.ts = clock_->Now();
        event.id = scratch.trace_id;
        event.arg0 =
            static_cast<int64_t>(task.subquery.vertices.size());
        event.loc = static_cast<uint32_t>(s);
        event.type = static_cast<uint16_t>(type);
        event.tenant = scratch.tenant;
        event.kind =
            static_cast<uint8_t>(stats::TraceEventKind::kShardScatter);
        recorder_->Record(event);
      }
    }
    item.on_complete = [this](const WorkItem& w, Outcome outcome) {
      ScatterCountdown* countdown = static_cast<ShardTask*>(w.user)->countdown;
      if (outcome != Outcome::kCompleted) {
        shard_failures_.fetch_add(1, std::memory_order_relaxed);
        countdown->failed.store(true, std::memory_order_relaxed);
        uint8_t expected = 0;
        countdown->fail_reason.compare_exchange_strong(
            expected, ShardFailReason(w, outcome), std::memory_order_relaxed);
      }
      if (options_.shard_metrics != nullptr) {
        options_.shard_metrics->Record(w, outcome);
      }
      // acq_rel: the decrement publishes this shard's result writes to
      // the gatherer's acquire load, and the RMW chain extends the
      // release sequence across shards. This is the countdown's last
      // access — the wake-up goes through the cluster-owned gate.
      if (countdown->pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        scatter_gate_.NotifyAll();
      }
    };
    if (active == 1) {
      // Single-shard round: when the shard's queue is empty-and-admitting
      // the subquery runs right here on the broker worker, skipping both
      // thread hand-offs; admission accounting still lands on the shard.
      shards_[s]->SubmitInline(std::move(item));
    } else {
      shards_[s]->Submit(std::move(item));
    }
  }

  // Gather: lend this broker worker's CPU to the shard queues while the
  // round is in flight (work-helping) — the round's own subqueries sit
  // in those queues, so on a saturated host the gather usually completes
  // without a single thread hand-off. Only when every shard queue is dry
  // does the worker spin briefly and then park on the cluster's
  // eventcount; the 10 ms ParkingLot backstop re-checks the countdown,
  // so a missed wake-up costs bounded latency, never a hang.
  int spins = 0;
  while (countdown.pending.load(std::memory_order_acquire) != 0) {
    bool helped = false;
    for (size_t s = 0; s < num_shards; ++s) {
      if (countdown.pending.load(std::memory_order_acquire) == 0) break;
      if (shards_[s]->TryRunOne()) helped = true;
    }
    if (helped) {
      spins = 0;
      continue;
    }
    if (++spins < kGatherSpins) {
      CpuRelax();
      continue;
    }
    scatter_gate_.ParkUnless([&countdown] {
      return countdown.pending.load(std::memory_order_acquire) == 0;
    });
  }

  if (degrees_out != nullptr) {
    size_t total = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      total += scratch.tasks[s].result.degrees.size();
    }
    degrees_out->reserve(degrees_out->size() + total);
    for (size_t s = 0; s < num_shards; ++s) {
      const auto& d = scratch.tasks[s].result.degrees;
      degrees_out->insert(degrees_out->end(), d.begin(), d.end());
    }
  }
  if (neighbors_out != nullptr) {
    size_t total = 0;
    for (size_t s = 0; s < num_shards; ++s) {
      total += scratch.tasks[s].result.neighbors.size();
    }
    neighbors_out->reserve(neighbors_out->size() + total);
    for (size_t s = 0; s < num_shards; ++s) {
      const auto& n = scratch.tasks[s].result.neighbors;
      neighbors_out->insert(neighbors_out->end(), n.begin(), n.end());
    }
  }
  const bool ok = !countdown.failed.load(std::memory_order_relaxed);
  if (!ok && scratch.fail_reason == 0) {
    scratch.fail_reason = countdown.fail_reason.load(std::memory_order_relaxed);
  }
  if constexpr (stats::kTraceCompiledIn) {
    if (scratch.traced) {
      stats::TraceEvent event;
      event.ts = clock_->Now();
      event.id = scratch.trace_id;
      event.arg0 = static_cast<int64_t>(active);
      event.type = static_cast<uint16_t>(type);
      event.tenant = scratch.tenant;
      event.kind = static_cast<uint8_t>(stats::TraceEventKind::kShardGather);
      event.reason = countdown.fail_reason.load(std::memory_order_relaxed);
      recorder_->Record(event);
    }
  }
  return ok;
}

bool Cluster::FetchDegrees(std::span<const uint32_t> vertices,
                           QueryTypeId type, Nanos deadline,
                           std::vector<uint32_t>* degrees) {
  degrees->clear();
  return ScatterGather(vertices, Subquery::Kind::kDegrees, 0, type, deadline,
                       degrees, nullptr);
}

bool Cluster::Expand(std::span<const uint32_t> vertices,
                     uint32_t cap_per_vertex, size_t total_cap,
                     QueryTypeId type, Nanos deadline,
                     std::vector<uint32_t>* unique_neighbors) {
  unique_neighbors->clear();
  const bool ok = ScatterGather(vertices, Subquery::Kind::kExpand,
                                cap_per_vertex, type, deadline, nullptr,
                                unique_neighbors);
  // Epoch-stamped dedup (O(n), no sort): the result is the unique set in
  // unspecified order. When the cap bites, nth_element keeps exactly the
  // smallest total_cap ids. Every consumer is order-independent (counts,
  // degree sums, membership tests, next-hop vertex sets), so skipping an
  // O(n log n) sort changes no observable query value; profiling showed
  // a sort costing as much as a third of broker-side CPU on 2-hop/BFS
  // rounds.
  EpochVisitedSet& dedup = tls_scratch.dedup;
  dedup.NextEpoch(graph_->num_vertices());
  size_t write = 0;
  for (const uint32_t u : *unique_neighbors) {
    if (dedup.Insert(u)) (*unique_neighbors)[write++] = u;
  }
  unique_neighbors->resize(write);
  if (total_cap > 0 && unique_neighbors->size() > total_cap) {
    std::nth_element(unique_neighbors->begin(),
                     unique_neighbors->begin() + total_cap,
                     unique_neighbors->end());
    unique_neighbors->resize(total_cap);
  }
  return ok;
}

uint64_t Cluster::RunBfs(const GraphQuery& query, uint32_t max_depth,
                         size_t frontier_cap, QueryTypeId type,
                         Nanos deadline, bool* ok) {
  if (query.source == query.target) return 0;
  WorkerScratch& scratch = tls_scratch;
  scratch.bfs_visited.NextEpoch(graph_->num_vertices());
  scratch.bfs_visited.Insert(query.source);
  std::vector<uint32_t>& frontier = scratch.frontier;
  std::vector<uint32_t>& next = scratch.next;
  frontier.clear();
  frontier.push_back(query.source);
  for (uint32_t depth = 1; depth <= max_depth; ++depth) {
    if (!Expand(frontier, 64, frontier_cap, type, deadline, &next)) {
      *ok = false;
      return 0;
    }
    // `next` is a unique set (smallest frontier_cap on overflow) in
    // unspecified order: membership is a linear scan, and the next
    // frontier is `next` minus the visited set, whose order the next
    // round doesn't observe.
    if (std::find(next.begin(), next.end(), query.target) != next.end()) {
      return depth;
    }
    frontier.clear();
    for (const uint32_t u : next) {
      if (scratch.bfs_visited.Insert(u)) frontier.push_back(u);
    }
    if (frontier.empty()) return 0;  // Exhausted within the budget.
    if (frontier.size() > frontier_cap) frontier.resize(frontier_cap);
  }
  return 0;  // Not reachable within max_depth.
}

void Cluster::ExecuteQuery(WorkItem& item) {
  auto* context = static_cast<QueryContext*>(item.user);
  const GraphQuery& q = context->query;
  GraphQueryResult& r = context->result;
  const QueryTypeId type = item.type;
  const Nanos deadline = item.deadline;
  WorkerScratch& scratch = tls_scratch;
  // The scatter rounds below only see vertex spans; park the query's
  // trace identity and a slot for the first subquery failure in the
  // worker's scratch for them.
  scratch.trace_id = item.id;
  scratch.traced = item.traced;
  scratch.tenant = item.tenant;
  scratch.fail_reason = 0;

  switch (q.op) {
    case GraphOp::kDegree: {
      std::vector<uint32_t>& degrees = scratch.degrees;
      const uint32_t v[] = {q.source};
      r.ok = FetchDegrees(v, type, deadline, &degrees);
      for (uint32_t d : degrees) r.value += d;
      break;
    }
    case GraphOp::kNeighbors: {
      std::vector<uint32_t>& neighbors = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 64, 64, type, deadline, &neighbors);
      r.value = neighbors.size();
      break;
    }
    case GraphOp::kDegreeByExternalId: {
      const auto vertex = graph_->FindByExternalId(q.external_id);
      if (!vertex.ok()) {
        r.value = 0;
        break;
      }
      std::vector<uint32_t>& degrees = scratch.degrees;
      const uint32_t v[] = {*vertex};
      r.ok = FetchDegrees(v, type, deadline, &degrees);
      for (uint32_t d : degrees) r.value += d;
      break;
    }
    case GraphOp::kCommonNeighbors: {
      std::vector<uint32_t>& a = scratch.neighbors_a;
      std::vector<uint32_t>& b = scratch.neighbors_b;
      const uint32_t va[] = {q.source};
      const uint32_t vb[] = {q.target};
      r.ok = Expand(va, 512, 512, type, deadline, &a);
      r.ok = Expand(vb, 512, 512, type, deadline, &b) && r.ok;
      // Order-independent intersection count (both lists are unique
      // sets; Expand returns them unordered): mark one side in the epoch
      // set, count the other side's hits.
      EpochVisitedSet& membership = scratch.dedup;
      membership.NextEpoch(graph_->num_vertices());
      for (const uint32_t u : a) membership.Insert(u);
      uint64_t common = 0;
      for (const uint32_t u : b) {
        if (membership.Contains(u)) ++common;
      }
      r.value = common;
      break;
    }
    case GraphOp::kNeighborDegreeSum: {
      std::vector<uint32_t>& neighbors = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 128, 128, type, deadline, &neighbors);
      std::vector<uint32_t>& degrees = scratch.degrees;
      r.ok = FetchDegrees(neighbors, type, deadline, &degrees) && r.ok;
      for (uint32_t d : degrees) r.value += d;
      break;
    }
    case GraphOp::kTopKNeighbors: {
      std::vector<uint32_t>& neighbors = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 256, 256, type, deadline, &neighbors);
      std::vector<uint32_t>& degrees = scratch.degrees;
      r.ok = FetchDegrees(neighbors, type, deadline, &degrees) && r.ok;
      std::sort(degrees.begin(), degrees.end(), std::greater<>());
      const size_t k = std::min<size_t>(10, degrees.size());
      for (size_t i = 0; i < k; ++i) r.value += degrees[i];
      break;
    }
    case GraphOp::kTwoHopSample: {
      std::vector<uint32_t>& hop1 = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 64, 64, type, deadline, &hop1);
      if (hop1.size() > 32) {
        // Sample the 32 smallest ids (Expand output is unordered, so
        // select explicitly).
        std::nth_element(hop1.begin(), hop1.begin() + 32, hop1.end());
        hop1.resize(32);
      }
      std::vector<uint32_t>& hop2 = scratch.hop2;
      r.ok = Expand(hop1, 32, 1024, type, deadline, &hop2) && r.ok;
      r.value = hop2.size();
      break;
    }
    case GraphOp::kTwoHopCount: {
      std::vector<uint32_t>& hop1 = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 128, 128, type, deadline, &hop1);
      std::vector<uint32_t>& hop2 = scratch.hop2;
      r.ok = Expand(hop1, 64, 2048, type, deadline, &hop2) && r.ok;
      r.value = hop2.size();
      break;
    }
    case GraphOp::kTwoHopDedup: {
      std::vector<uint32_t>& hop1 = scratch.hop1;
      const uint32_t v[] = {q.source};
      r.ok = Expand(v, 256, 256, type, deadline, &hop1);
      std::vector<uint32_t>& hop2 = scratch.hop2;
      r.ok = Expand(hop1, 64, 4096, type, deadline, &hop2) && r.ok;
      r.value = hop2.size();
      if (hop2.size() > 64) hop2.resize(64);
      std::vector<uint32_t>& degrees = scratch.degrees;
      r.ok = FetchDegrees(hop2, type, deadline, &degrees) && r.ok;
      break;
    }
    case GraphOp::kDistance3: {
      bool ok = true;
      r.value = RunBfs(q, 3, 2048, type, deadline, &ok);
      r.ok = ok;
      break;
    }
    case GraphOp::kDistance4: {
      bool ok = true;
      r.value = RunBfs(q, 4, 4096, type, deadline, &ok);
      r.ok = ok;
      break;
    }
  }
  if (!r.ok) r.fail_reason = scratch.fail_reason;
}

}  // namespace bouncer::graph
