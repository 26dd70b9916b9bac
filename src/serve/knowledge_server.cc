#include "serve/knowledge_server.h"

#include <chrono>
#include <string>
#include <utility>

#include "tensor/simd/kernel_dispatch.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::serve {
namespace {

double MicrosBetween(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

ServiceResponse RejectedResponse() {
  ServiceResponse response;
  response.code = ResponseCode::kRejected;
  return response;
}

}  // namespace

KnowledgeServer::KnowledgeServer(const core::ServiceVectorProvider* provider,
                                 KnowledgeServerOptions options)
    : provider_(provider),
      options_(options),
      queue_(options.queue_capacity) {
  PKGM_CHECK(provider != nullptr);
  PKGM_CHECK(options_.num_workers >= 1);
  InitAdmissionAndCache();
  stats_.SetBackend(StrFormat("fixed provider (heap-fp32), kernels=%s",
                              simd::ActiveIsaName()));
}

KnowledgeServer::KnowledgeServer(const store::ModelRegistry* registry,
                                 KnowledgeServerOptions options)
    : provider_(nullptr),
      registry_(registry),
      options_(options),
      queue_(options.queue_capacity) {
  PKGM_CHECK(registry != nullptr);
  PKGM_CHECK(options_.num_workers >= 1);
  InitAdmissionAndCache();
  if (auto gen = registry->Current()) ObserveGeneration(*gen);
}

void KnowledgeServer::InitAdmissionAndCache() {
  if (options_.enable_cache) {
    cache_ = std::make_unique<ShardedVectorCache>(options_.cache_capacity,
                                                  options_.cache_shards);
  }
  if (options_.enable_coalescing) {
    // Coalescing shields the backend behind the cache; without a cache
    // every request recomputes anyway and the flight table is pure cost.
    PKGM_CHECK(options_.enable_cache)
        << "enable_coalescing requires enable_cache";
    coalescer_ = std::make_unique<HotKeyCoalescer>();
  }
  if (options_.tenant_burst > 0.0) {
    quotas_ = std::make_unique<TenantQuotas>(options_.tenant_rate,
                                             options_.tenant_burst);
  }
}

KnowledgeServer::~KnowledgeServer() { Stop(); }

void KnowledgeServer::AttachInferExecutor(InferExecutor* executor) {
  PKGM_CHECK(workers_ == nullptr)
      << "AttachInferExecutor must be called before Start()";
  PKGM_CHECK(executor != nullptr);
  infer_ = executor;
}

void KnowledgeServer::Start() {
  if (workers_ != nullptr) return;
  PKGM_CHECK(!queue_.closed());
  workers_ = std::make_unique<ThreadPool>(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_->Submit([this] { WorkerLoop(); });
  }
}

void KnowledgeServer::Stop() {
  queue_.Close();
  if (workers_ != nullptr) {
    workers_->Wait();
    workers_.reset();
  }
}

std::future<ServiceResponse> KnowledgeServer::Submit(ServiceRequest request) {
  std::vector<ServiceRequest> one;
  one.push_back(request);
  auto futures = SubmitBatch(std::move(one));
  return std::move(futures.front());
}

std::vector<std::future<ServiceResponse>> KnowledgeServer::SubmitBatch(
    std::vector<ServiceRequest> requests) {
  auto promises = std::make_shared<std::vector<std::promise<ServiceResponse>>>(
      requests.size());
  std::vector<std::future<ServiceResponse>> futures;
  futures.reserve(promises->size());
  for (auto& promise : *promises) futures.push_back(promise.get_future());
  SubmitBatchAsync(std::move(requests),
                   [promises](size_t index, ServiceResponse response) {
                     (*promises)[index].set_value(std::move(response));
                   });
  return futures;
}

void KnowledgeServer::SubmitBatchAsync(std::vector<ServiceRequest> requests,
                                       BatchCallback done) {
  const auto now = ServeClock::now();
  auto shared_done = std::make_shared<BatchCallback>(std::move(done));
  Batch batch;
  batch.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    PendingRequest pending;
    pending.request = requests[i];
    pending.enqueue_time = now;
    pending.done = [shared_done, i](ServiceResponse response) {
      (*shared_done)(i, std::move(response));
    };
    batch.push_back(std::move(pending));
  }
  Enqueue(std::move(batch));
}

void KnowledgeServer::Enqueue(Batch batch) {
  if (batch.empty()) return;
  if (quotas_ != nullptr) {
    // Quota shedding is per-request (one tenant's dry bucket must not take
    // down a mixed batch), unlike queue admission which stays batch-level.
    const auto now = ServeClock::now();
    Batch admitted;
    admitted.reserve(batch.size());
    uint64_t shed = 0;
    for (PendingRequest& pending : batch) {
      if (quotas_->TryAdmit(pending.request.tenant, now)) {
        admitted.push_back(std::move(pending));
      } else {
        ++shed;
        ServiceResponse response;
        response.code = ResponseCode::kQuotaExceeded;
        pending.done(std::move(response));
      }
    }
    if (shed > 0) stats_.RecordQuotaRejected(shed);
    batch = std::move(admitted);
    if (batch.empty()) return;
  }
  // Count the batch as pending *before* pushing: a worker may finish (and
  // decrement) before TryPush even returns.
  const size_t n = batch.size();
  pending_requests_ += n;
  if (queue_.TryPush(std::move(batch))) {
    stats_.RecordAccepted(n);
  } else {
    pending_requests_ -= n;
    // Admission control: the queue (or the server) is saturated — resolve
    // every request in the batch immediately instead of piling up work.
    stats_.RecordRejected(n);
    for (PendingRequest& pending : batch) {
      pending.done(RejectedResponse());
    }
  }
}

void KnowledgeServer::WorkerLoop() {
  Batch batch;
  while (queue_.Pop(&batch)) {
    const auto dequeue_time = ServeClock::now();
    // Lookups execute per request (each one takes its own path through the
    // cache/coalescer); inference kinds are grouped so one model forward
    // serves every request of that kind in the batch — the batching that
    // makes the gemm kernels pay for themselves.
    std::vector<size_t> grouped[kMaxTaskKind + 1];
    for (size_t i = 0; i < batch.size(); ++i) {
      PendingRequest& pending = batch[i];
      if (pending.request.task != TaskKind::kLookup &&
          pending.request.deadline >= dequeue_time) {
        grouped[static_cast<uint8_t>(pending.request.task)].push_back(i);
        continue;
      }
      const double queue_micros =
          MicrosBetween(pending.enqueue_time, dequeue_time);
      ServiceResponse response;
      double compute_micros = 0.0;
      if (pending.request.deadline < dequeue_time) {
        response.code = ResponseCode::kDeadlineExceeded;
      } else {
        const auto start = ServeClock::now();
        response = Execute(pending.request);
        compute_micros = MicrosBetween(start, ServeClock::now());
      }
      response.queue_micros = queue_micros;
      response.compute_micros = compute_micros;
      stats_.RecordCompleted(response.code, queue_micros, compute_micros);
      stats_.RecordTaskCompleted(pending.request.task);
      --pending_requests_;
      pending.done(std::move(response));
    }
    for (uint8_t kind = 1; kind <= kMaxTaskKind; ++kind) {
      if (grouped[kind].empty()) continue;
      ExecuteInferGroup(static_cast<TaskKind>(kind), grouped[kind],
                        dequeue_time, &batch);
    }
    batch.clear();
  }
}

void KnowledgeServer::ExecuteInferGroup(TaskKind task,
                                        const std::vector<size_t>& indices,
                                        ServeClock::time_point dequeue_time,
                                        Batch* batch) {
  std::vector<const ServiceRequest*> requests;
  requests.reserve(indices.size());
  for (size_t i : indices) requests.push_back(&(*batch)[i].request);
  std::vector<ServiceResponse> responses(indices.size());
  double compute_micros = 0.0;
  if (infer_ == nullptr) {
    // The deployment serves lookups only: shed the inference kinds the way
    // admission control would, instead of failing the process.
    for (ServiceResponse& response : responses) {
      response.code = ResponseCode::kRejected;
    }
  } else {
    const auto start = ServeClock::now();
    infer_->ExecuteBatch(task, requests, &responses);
    // Per-request share of the grouped forward, so per-task latencies stay
    // comparable with the per-request lookup path.
    compute_micros =
        MicrosBetween(start, ServeClock::now()) / indices.size();
  }
  for (size_t b = 0; b < indices.size(); ++b) {
    PendingRequest& pending = (*batch)[indices[b]];
    ServiceResponse& response = responses[b];
    response.queue_micros =
        MicrosBetween(pending.enqueue_time, dequeue_time);
    response.compute_micros = compute_micros;
    stats_.RecordCompleted(response.code, response.queue_micros,
                           compute_micros);
    stats_.RecordTaskCompleted(task);
    --pending_requests_;
    pending.done(std::move(response));
  }
}

void KnowledgeServer::ObserveGeneration(const store::ServingGeneration& gen) {
  // Only the worker that *raises* the observed generation invalidates, so
  // one swap costs one invalidation no matter how many workers race here;
  // a worker still holding an older snapshot can never lower it (its
  // compare_exchange fails), which would otherwise re-trigger the swap.
  uint64_t prev = observed_generation_.load(std::memory_order_acquire);
  while (gen.generation > prev) {
    if (observed_generation_.compare_exchange_weak(
            prev, gen.generation, std::memory_order_acq_rel)) {
      InvalidateCache();
      const auto& info = gen.info;
      std::string backend =
          StrFormat("%s gen %llu", info.load_mode.c_str(),
                    static_cast<unsigned long long>(gen.generation));
      if (info.file_bytes > 0) {
        backend += StrFormat(" (%s, %s bytes)", StoreDtypeName(info.dtype),
                             WithThousandsSeparators(info.file_bytes).c_str());
      }
      // The kernel ISA serving this process, so a perf regression in a
      // report is attributable to a kernel change (PKGM_KERNEL override
      // round-trips through here).
      backend += StrFormat(", kernels=%s", simd::ActiveIsaName());
      stats_.SetBackend(std::move(backend));
      break;
    }
  }
}

ServiceResponse KnowledgeServer::Execute(const ServiceRequest& request) {
  // Ordering matters for hot-swap correctness: the cache generation is
  // snapshotted *before* the model generation. If a swap (publish +
  // invalidate) lands between the two, the value we compute from the new
  // model is tagged stale and dropped — harmless. The reverse order would
  // let a value computed from the *old* model carry the *new* cache
  // generation and be served stale indefinitely.
  const uint64_t cache_generation =
      cache_ != nullptr ? cache_->generation() : 0;
  std::shared_ptr<const store::ServingGeneration> pinned;
  const core::ServiceVectorProvider* provider = provider_;
  if (registry_ != nullptr) {
    pinned = registry_->Current();
    PKGM_CHECK(pinned != nullptr)
        << "KnowledgeServer executing against an empty ModelRegistry";
    ObserveGeneration(*pinned);
    provider = pinned->provider.get();
  }

  ServiceResponse response;
  if (request.item >= provider->num_items()) {
    response.code = ResponseCode::kInvalidItem;
    return response;
  }
  if (request.form == ServiceForm::kCondensed) {
    Vec condensed;
    if (cache_ != nullptr &&
        cache_->Lookup(request.item, request.mode, &condensed)) {
      response.cache_hit = true;
    } else {
      auto compute = [&] {
        stats_.RecordBackendFetch();
        return provider->Condensed(request.item, request.mode);
      };
      if (coalescer_ != nullptr) {
        // Same key layout as the cache: item in the high bits, mode low.
        const uint64_t key = (static_cast<uint64_t>(request.item) << 2) |
                             static_cast<uint64_t>(request.mode);
        // The flight carries the cache generation snapshotted above, so a
        // joiner from the other side of a hot swap bypasses instead of
        // adopting a value computed against the wrong model.
        const bool leader =
            coalescer_->Fetch(key, cache_generation, compute, &condensed);
        if (leader) {
          cache_->Insert(request.item, request.mode, condensed,
                         cache_generation);
        } else {
          stats_.RecordCoalesced();
        }
      } else {
        condensed = compute();
        if (cache_ != nullptr) {
          cache_->Insert(request.item, request.mode, condensed,
                         cache_generation);
        }
      }
    }
    response.vectors.push_back(std::move(condensed));
  } else {
    response.vectors = provider->Sequence(request.item, request.mode);
  }
  return response;
}

void KnowledgeServer::InvalidateCache() {
  if (cache_ != nullptr) cache_->Invalidate();
}

std::string KnowledgeServer::StatsReport(const NetCounters* net) const {
  return RenderStats(&ServerStats::ToTable, net);
}

std::string KnowledgeServer::StatsJson(const NetCounters* net) const {
  return RenderStats(&ServerStats::StatsJson, net);
}

std::string KnowledgeServer::RenderStats(StatsRenderer render,
                                         const NetCounters* net) const {
  CacheStats cache_stats;
  const CacheStats* cache_ptr = nullptr;
  if (cache_ != nullptr) {
    cache_stats = cache_->Stats();
    cache_ptr = &cache_stats;
  }
  CoalescerStats co_stats;
  const CoalescerStats* co_ptr = nullptr;
  if (coalescer_ != nullptr) {
    co_stats = coalescer_->stats();
    co_ptr = &co_stats;
  }
  return (stats_.*render)(queue_depth(), cache_ptr, net, co_ptr);
}

}  // namespace pkgm::serve
