#ifndef PKGM_SERVE_KNOWLEDGE_SERVER_H_
#define PKGM_SERVE_KNOWLEDGE_SERVER_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/service.h"
#include "serve/bounded_queue.h"
#include "serve/coalescer.h"
#include "serve/infer_executor.h"
#include "serve/request.h"
#include "serve/server_stats.h"
#include "serve/tenant_quota.h"
#include "serve/vector_cache.h"
#include "store/model_registry.h"
#include "util/thread_pool.h"

namespace pkgm::serve {

struct KnowledgeServerOptions {
  /// Worker threads executing requests (>= 1).
  size_t num_workers = 2;
  /// Request-queue capacity in *batches*; a SubmitBatch call that finds the
  /// queue full is rejected wholesale (admission control / backpressure).
  size_t queue_capacity = 256;
  /// Serve condensed vectors through the sharded LRU cache.
  bool enable_cache = true;
  /// Total cached (item, mode) entries across all shards.
  size_t cache_capacity = 8192;
  /// Mutex stripes in the cache.
  size_t cache_shards = 8;
  /// Coalesce concurrent condensed-path cache misses on the same
  /// (item, mode): one backend fetch serves every waiter. Requires the
  /// cache to be enabled (coalescing exists to shield the backend behind
  /// it; without a cache each request must compute anyway).
  bool enable_coalescing = false;
  /// Per-tenant admission quotas: each tenant's token bucket refills at
  /// `tenant_rate` tokens/sec up to `tenant_burst`. tenant_burst == 0
  /// (default) disables quotas entirely.
  double tenant_rate = 0.0;
  double tenant_burst = 0.0;
};

/// The online knowledge-serving front end of the paper's deployment story
/// (§II-D/E): downstream systems submit ServiceRequest batches and get
/// back service vectors, never triples.
///
/// Request lifecycle:
///   SubmitBatchAsync    → admission control against a bounded MPMC queue
///                         (full ⇒ every request in the batch resolves
///                         immediately with kRejected)
///   worker Pop          → per-request deadline check (expired ⇒
///                         kDeadlineExceeded, no compute)
///   execute             → condensed requests consult the sharded LRU
///                         cache; misses compute via ServiceVectorProvider
///                         and populate it; sequence requests always
///                         compute
///   done(index, resp)   → the callback given at submit time runs (Submit
///                         and SubmitBatch wrap it in promises)
///
/// Thread-safe: any number of client threads may submit concurrently with
/// the worker pool draining.
///
/// Two parameter-backend modes:
///   * fixed provider — the provider (and the model under it) must outlive
///     the server and stay immutable while serving; on an external model
///     refresh, call InvalidateCache().
///   * registry — each request snapshots the registry's current
///     ServingGeneration (one atomic shared_ptr load), so a Publish() hot-
///     swaps the model with zero downtime: in-flight requests finish on
///     the generation they snapshotted, the first worker to observe a new
///     generation invalidates the condensed-vector cache, and the cache's
///     generation tag keeps racing stale inserts out (see
///     ShardedVectorCache).
class KnowledgeServer {
 public:
  KnowledgeServer(const core::ServiceVectorProvider* provider,
                  KnowledgeServerOptions options = {});
  /// Hot-swappable backend: serves whatever generation `registry`
  /// currently publishes. The registry must outlive the server and have
  /// at least one published generation before the first request executes.
  KnowledgeServer(const store::ModelRegistry* registry,
                  KnowledgeServerOptions options = {});
  ~KnowledgeServer();

  KnowledgeServer(const KnowledgeServer&) = delete;
  KnowledgeServer& operator=(const KnowledgeServer&) = delete;

  /// Plugs in the model-inference backend serving the kRecommend /
  /// kClassify / kAlign request kinds. Inference requests ride
  /// the same admission control, tenant quotas, deadlines and queue as
  /// lookups; a worker groups each dequeued batch by task kind and hands
  /// every inference kind to the executor in one ExecuteBatch call.
  /// Without an executor those kinds complete with kRejected. Must be
  /// called before Start(); `executor` must outlive the server.
  void AttachInferExecutor(InferExecutor* executor);

  /// Spawns the worker pool. Requests may be submitted before Start();
  /// they wait in the queue (subject to capacity) until workers run.
  void Start();

  /// Closes the queue, drains every already-accepted request and joins the
  /// workers. Idempotent. Submissions after Stop() are rejected.
  void Stop();

  /// Enqueues one request. The returned future always becomes ready:
  /// immediately with kRejected when the queue is full, otherwise when a
  /// worker completes the request.
  std::future<ServiceResponse> Submit(ServiceRequest request);

  /// SubmitBatchAsync with one promise per request.
  std::vector<std::future<ServiceResponse>> SubmitBatch(
      std::vector<ServiceRequest> requests);

  /// Enqueues `requests` as one unit of work (one queue slot, executed
  /// back-to-back by one worker — the batching that amortizes queue and
  /// wake-up overhead). All-or-nothing admission. Completion is delivered
  /// through `done`, so no thread ever parks waiting for a response (the
  /// epoll front end in src/net/ and serve::RunLoadGen submit this way).
  /// `done` runs exactly once per request, on a worker thread — or
  /// synchronously on the submitting thread when a request is rejected at
  /// admission — so it must be fast and must not block (the network front
  /// end posts the response to an event loop).
  void SubmitBatchAsync(std::vector<ServiceRequest> requests,
                        BatchCallback done);

  /// Requests accepted but not yet completed.
  size_t queue_depth() const { return pending_requests_.load(); }

  const ServerStats& stats() const { return stats_; }
  /// Null when the cache is disabled.
  const ShardedVectorCache* cache() const { return cache_.get(); }
  /// Null when coalescing is disabled.
  const HotKeyCoalescer* coalescer() const { return coalescer_.get(); }
  /// Null when tenant quotas are disabled.
  const TenantQuotas* quotas() const { return quotas_.get(); }

  /// Drops all cached vectors (call after swapping in a new model).
  void InvalidateCache();

  /// The server's stats object (ServerStats::WriteJson over the queue
  /// gauge and the cache and coalescer counters), with the network front
  /// end's counters when `net` is given: the kStats snapshot of pkgm_netd.
  std::string StatsJson(const NetCounters* net = nullptr) const;
  /// StatsJson's object written into `w`, e.g. as a bench artifact's member.
  void WriteStatsJson(JsonWriter* w, const NetCounters* net = nullptr) const;

  /// StatsJson rendered as an ASCII table, one row per key path
  /// (ServerStats::ToTable): pkgm_netd's final table.
  std::string StatsReport(const NetCounters* net = nullptr) const;

 private:
  struct PendingRequest {
    ServiceRequest request;
    /// Completion sink; invoked exactly once. Calls the batch's
    /// BatchCallback with this request's index.
    std::function<void(ServiceResponse)> done;
    ServeClock::time_point enqueue_time;
  };
  using Batch = std::vector<PendingRequest>;

  /// Shared ctor tail: builds the cache, coalescer and tenant quotas from
  /// options_.
  void InitAdmissionAndCache();

  /// SubmitBatchAsync's quota shedding and queue admission.
  void Enqueue(Batch batch);

  void WorkerLoop();
  /// One grouped executor call for the batch's requests of `task` kind
  /// (`indices` into `batch`); completes each of them.
  void ExecuteInferGroup(TaskKind task, const std::vector<size_t>& indices,
                         ServeClock::time_point dequeue_time, Batch* batch);
  /// Runs the query modules (through the cache for condensed requests).
  ServiceResponse Execute(const ServiceRequest& request);
  /// Registry mode: invalidate the cache and refresh the stats backend
  /// label the first time a worker sees generation `gen`.
  void ObserveGeneration(const store::ServingGeneration& gen);

  const core::ServiceVectorProvider* provider_;
  const store::ModelRegistry* registry_ = nullptr;
  /// Backend for the inference request kinds; null until attached.
  InferExecutor* infer_ = nullptr;
  /// Highest registry generation any worker has observed (registry mode).
  std::atomic<uint64_t> observed_generation_{0};
  const KnowledgeServerOptions options_;
  BoundedQueue<Batch> queue_;
  std::unique_ptr<ShardedVectorCache> cache_;
  std::unique_ptr<HotKeyCoalescer> coalescer_;
  std::unique_ptr<TenantQuotas> quotas_;
  ServerStats stats_;
  std::unique_ptr<ThreadPool> workers_;
  std::atomic<size_t> pending_requests_{0};
};

}  // namespace pkgm::serve

#endif  // PKGM_SERVE_KNOWLEDGE_SERVER_H_
