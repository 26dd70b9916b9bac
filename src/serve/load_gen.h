#ifndef PKGM_SERVE_LOAD_GEN_H_
#define PKGM_SERVE_LOAD_GEN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/request.h"
#include "util/histogram.h"

namespace pkgm::serve {

/// Arrival process shaping the offered load.
enum class ArrivalProcess {
  /// Evenly spaced arrivals at exactly `rate_qps`.
  kUniform,
  /// Memoryless (exponential inter-arrival) — the standard model for
  /// independent user traffic.
  kPoisson,
  /// Square-wave modulated Poisson: 4× the base rate during the on-half of
  /// each 0.25 s period, throttled to 5% during the off-half. Models
  /// flash-sale / diurnal spikes.
  kBurst,
};

const char* ArrivalProcessName(ArrivalProcess arrival);

struct LoadGenOptions {
  /// Offered load, requests/second, across all generator threads. 0 runs
  /// the unpaced closed loop (open_loop must be false): each thread sends
  /// its next batch as soon as its last one has completed, with no lead-in,
  /// so achieved_qps is the server's capacity.
  double rate_qps = 1000.0;
  uint64_t total_requests = 10000;
  /// Generator threads; each owns an even share of total_requests and
  /// draws its slice of the process from a forked seeded Rng, so a run is
  /// replayable for any thread count.
  size_t threads = 2;
  /// Requests per submit. A batch is one arrival (rate_qps still counts
  /// requests), and each request's latency runs from its batch's intended
  /// (open loop) or actual (closed loop) send.
  size_t batch = 1;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Zipf exponent over the item catalog (rank 0 hottest).
  double zipf_s = 0.99;
  uint32_t num_items = 1000;
  /// Tenants round-robin over requests; each tenant's Zipf head is offset
  /// into a distinct slice of the catalog (distinct hot sets).
  uint16_t num_tenants = 1;
  /// Per-request deadline; 0 = none.
  uint32_t deadline_us = 0;
  /// Per-task-kind mix weights, indexed by TaskKind (lookup, recommend,
  /// classify, align). Normalised at run time over their sum; all-lookup
  /// by default. The inference kinds only come back kOk when the target
  /// server has an InferExecutor attached.
  double mix[kMaxTaskKind + 1] = {1.0, 0.0, 0.0, 0.0};
  /// User-id space for kRecommend requests (drawn uniformly).
  uint32_t num_users = 60;
  /// top_k carried on kClassify requests.
  uint32_t top_k = 3;
  uint64_t seed = 42;
  /// Open loop (default): arrivals fire at their scheduled instant no
  /// matter how slow responses are, and latency is measured from the
  /// *intended* send time — queueing delay the server causes is charged to
  /// the server (no coordinated omission). Closed loop: each thread waits
  /// for its batch's responses before the next send and measures from the
  /// actual send — the flawed-but-common methodology, kept for the honesty
  /// check and, unpaced, for measuring capacity.
  bool open_loop = true;
};

/// Everything a run produced, merged across generator threads.
struct LoadGenReport {
  /// Requests sent: total_requests unless the stop flag ended the run.
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t quota_rejected = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t invalid_item = 0;
  uint64_t network_error = 0;
  uint64_t cache_hits = 0;
  double elapsed_s = 0.0;
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  /// End-to-end latency, µs, bucketed. Open loop: completion − intended
  /// send. Closed loop: completion − actual send.
  Histogram latency_us{HistogramMode::kBucketed};
  /// The same latency split by TaskKind (all codes), plus per-kind
  /// completion counts — the per-task tail picture for mixed workloads.
  Histogram task_latency_us[kMaxTaskKind + 1] = {
      Histogram{HistogramMode::kBucketed}, Histogram{HistogramMode::kBucketed},
      Histogram{HistogramMode::kBucketed}, Histogram{HistogramMode::kBucketed}};
  uint64_t task_completed[kMaxTaskKind + 1] = {};
  uint64_t task_ok[kMaxTaskKind + 1] = {};
  /// Time kOk responses spent inside the server (queue + compute), µs —
  /// the portion the serving stack controls, excluding generator
  /// scheduling lateness that the end-to-end number honestly charges.
  /// This is what deadline + quota shedding bound: a request the server
  /// cannot answer inside its deadline is shed, not served late.
  Histogram server_ok_us{HistogramMode::kBucketed};
};

/// Submission seam: the generator hands over batches of up to
/// `LoadGenOptions::batch` requests and a completion callback (index within
/// the batch, response). It binds straight to either SubmitBatchAsync: the
/// in-process KnowledgeServer's, whose callbacks run on its workers, or the
/// socket NetClient's, whose callbacks run on the connection reader threads
/// as replies arrive.
using AsyncSubmitFn =
    std::function<void(std::vector<ServiceRequest>, BatchCallback)>;

/// Drives `submit` with the configured traffic and blocks until every
/// response has arrived; a callback may run on any thread, and each must run
/// exactly once. Deterministic request stream for a given
/// (seed, threads, options); actual timing is as close to the schedule as
/// the host allows. Once `*stop` reads true, each generator thread sends
/// nothing more and returns when its requests in flight have completed.
LoadGenReport RunLoadGen(const LoadGenOptions& options,
                         const AsyncSubmitFn& submit,
                         const std::atomic<bool>* stop = nullptr);

}  // namespace pkgm::serve

#endif  // PKGM_SERVE_LOAD_GEN_H_
