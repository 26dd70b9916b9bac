#include "serve/load_gen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "util/logging.h"
#include "util/rng.h"

namespace pkgm::serve {
namespace {

double MicrosBetween(ServeClock::time_point from, ServeClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

ServeClock::duration SecondsToDuration(double s) {
  return std::chrono::duration_cast<ServeClock::duration>(
      std::chrono::duration<double>(s));
}

/// Completion sink striped across slots to keep worker-thread callbacks
/// off one mutex; merged into the report at the end of the run.
struct Sink {
  std::mutex mu;
  Histogram latency_us{HistogramMode::kBucketed};
  Histogram server_ok_us{HistogramMode::kBucketed};
  Histogram task_latency_us[kMaxTaskKind + 1] = {
      Histogram{HistogramMode::kBucketed}, Histogram{HistogramMode::kBucketed},
      Histogram{HistogramMode::kBucketed}, Histogram{HistogramMode::kBucketed}};
  uint64_t task_completed[kMaxTaskKind + 1] = {};
  uint64_t task_ok[kMaxTaskKind + 1] = {};
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t quota_rejected = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t invalid_item = 0;
  uint64_t network_error = 0;
  uint64_t cache_hits = 0;
};
constexpr size_t kSinks = 16;

/// kBurst's square wave: the on-half's rate multiplier, and the period.
constexpr double kBurstFactor = 4.0;
constexpr double kBurstPeriodS = 0.25;

/// Counts one generator thread's requests in flight. A completion updates
/// the count and notifies while it holds `mu`, so the waiter, which owns
/// the counter, cannot see zero and destroy it under a notify still
/// running.
class InFlight {
 public:
  void Add(uint64_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    count_ += n;
  }
  void Done() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_one();
  }
  /// Blocks until every request added so far has completed.
  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t count_ = 0;
};

void RecordCompletion(Sink* sink, TaskKind task, const ServiceResponse& response,
                      double latency_micros) {
  const uint8_t kind = static_cast<uint8_t>(task);
  std::lock_guard<std::mutex> lock(sink->mu);
  sink->latency_us.Record(latency_micros);
  sink->task_latency_us[kind].Record(latency_micros);
  ++sink->task_completed[kind];
  if (response.code == ResponseCode::kOk) {
    sink->server_ok_us.Record(response.queue_micros + response.compute_micros);
    ++sink->task_ok[kind];
  }
  switch (response.code) {
    case ResponseCode::kOk: ++sink->ok; break;
    case ResponseCode::kRejected: ++sink->rejected; break;
    case ResponseCode::kQuotaExceeded: ++sink->quota_rejected; break;
    case ResponseCode::kDeadlineExceeded: ++sink->deadline_exceeded; break;
    case ResponseCode::kInvalidItem: ++sink->invalid_item; break;
    case ResponseCode::kNetworkError: ++sink->network_error; break;
  }
  if (response.cache_hit) ++sink->cache_hits;
}

/// Draws the next inter-arrival gap (seconds) for one thread's slice of
/// the process. Each of `threads` threads runs an independent process of
/// batch arrivals at `batch_rate` = rate/(threads × batch); superposed they
/// form the configured offered load (exactly for uniform with per-thread
/// phase offsets; by the superposition theorem for Poisson).
double NextGap(const LoadGenOptions& options, double batch_rate,
               double elapsed_s, Rng* rng) {
  switch (options.arrival) {
    case ArrivalProcess::kUniform:
      return 1.0 / batch_rate;
    case ArrivalProcess::kPoisson: {
      double u = rng->UniformDouble();
      if (u < 1e-12) u = 1e-12;
      return -std::log(u) / batch_rate;
    }
    case ArrivalProcess::kBurst: {
      // Square wave: rate × kBurstFactor during the on-half of the period,
      // rate × max(0.05, 2 − kBurstFactor) during the off-half. At 4× the
      // average runs above the configured rate; the point is the spike.
      const double phase = std::fmod(elapsed_s, kBurstPeriodS);
      const bool on = phase < kBurstPeriodS * 0.5;
      const double factor =
          on ? kBurstFactor : std::max(0.05, 2.0 - kBurstFactor);
      double u = rng->UniformDouble();
      if (u < 1e-12) u = 1e-12;
      return -std::log(u) / (batch_rate * factor);
    }
  }
  return 1.0 / batch_rate;
}

/// Draws one request of `tenant`'s traffic: a Zipf item offset into the
/// tenant's slice of the catalog (distinct per-tenant hot sets), a task
/// kind from the cumulative mix, and that kind's operand.
ServiceRequest DrawRequest(const LoadGenOptions& options,
                           const ZipfSampler& zipf, const double* cum_mix,
                           uint16_t tenant, Rng* rng) {
  const uint64_t offset = static_cast<uint64_t>(tenant) *
                          (options.num_items / options.num_tenants);
  ServiceRequest request;
  request.item =
      static_cast<uint32_t>((zipf.Sample(rng) + offset) % options.num_items);
  request.tenant = tenant;
  const double kind_draw = rng->UniformDouble();
  for (uint8_t k = 0; k <= kMaxTaskKind; ++k) {
    if (kind_draw < cum_mix[k]) {
      request.task = static_cast<TaskKind>(k);
      break;
    }
  }
  switch (request.task) {
    case TaskKind::kLookup:
      break;
    case TaskKind::kRecommend:
      request.user = static_cast<uint32_t>(
          rng->Uniform(std::max<uint32_t>(1, options.num_users)));
      break;
    case TaskKind::kClassify:
      request.top_k = options.top_k;
      break;
    case TaskKind::kAlign:
      // Second item of the pair, drawn from the same skewed catalog.
      request.item_b = static_cast<uint32_t>(
          (zipf.Sample(rng) + offset) % options.num_items);
      break;
  }
  return request;
}

}  // namespace

const char* ArrivalProcessName(ArrivalProcess arrival) {
  switch (arrival) {
    case ArrivalProcess::kUniform: return "uniform";
    case ArrivalProcess::kPoisson: return "poisson";
    case ArrivalProcess::kBurst: return "burst";
  }
  return "unknown";
}

LoadGenReport RunLoadGen(const LoadGenOptions& options,
                         const AsyncSubmitFn& submit,
                         const std::atomic<bool>* stop) {
  const bool paced = options.rate_qps > 0.0;
  PKGM_CHECK_GE(options.rate_qps, 0.0);
  PKGM_CHECK(paced || !options.open_loop)
      << "an open loop needs rate_qps > 0";
  PKGM_CHECK_GT(options.total_requests, 0u);
  PKGM_CHECK_GE(options.threads, 1u);
  PKGM_CHECK_GE(options.batch, 1u);
  PKGM_CHECK_GT(options.num_items, 0u);
  PKGM_CHECK_GE(options.num_tenants, 1u);

  const size_t threads =
      std::min<size_t>(options.threads, options.total_requests);
  const double batch_rate = options.rate_qps /
                            static_cast<double>(threads * options.batch);
  const ZipfSampler zipf(options.num_items, options.zipf_s);

  // Normalised cumulative mix for kind drawing; degenerate mixes (all
  // zero/negative) fall back to all-lookup.
  double cum_mix[kMaxTaskKind + 1];
  {
    double total = 0.0;
    for (uint8_t k = 0; k <= kMaxTaskKind; ++k) {
      total += std::max(0.0, options.mix[k]);
    }
    double running = 0.0;
    for (uint8_t k = 0; k <= kMaxTaskKind; ++k) {
      running += total > 0.0 ? std::max(0.0, options.mix[k]) / total
                             : (k == 0 ? 1.0 : 0.0);
      cum_mix[k] = running;
    }
    cum_mix[kMaxTaskKind] = 1.0;  // absorb rounding
  }

  std::vector<Sink> sinks(kSinks);
  std::vector<uint64_t> sent(threads, 0);

  // A paced run starts after a small lead-in so thread 0's first arrival
  // isn't already in the past by the time the last thread has spawned.
  const auto t0 = ServeClock::now() + std::chrono::milliseconds(paced ? 5 : 0);

  Rng root(options.seed);
  std::vector<Rng> thread_rngs;
  thread_rngs.reserve(threads);
  for (size_t t = 0; t < threads; ++t) thread_rngs.push_back(root.Fork());

  std::vector<std::thread> gens;
  gens.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    gens.emplace_back([&, t] {
      Rng rng = thread_rngs[t];
      // This thread's requests in flight; it returns only once they have
      // all completed, so every completion finds it alive.
      InFlight in_flight;
      const uint64_t quota = options.total_requests / threads +
                             (t < options.total_requests % threads ? 1 : 0);
      // Phase-offset the uniform grid so threads interleave evenly.
      double next_s = 0.0;
      if (paced) {
        next_s = options.arrival == ArrivalProcess::kUniform
                     ? static_cast<double>(t * options.batch) /
                           options.rate_qps
                     : NextGap(options, batch_rate, 0.0, &rng);
      }
      uint64_t i = 0;  // this thread's requests sent so far
      for (uint64_t b = 0; i < quota; ++b) {
        const auto intended = t0 + SecondsToDuration(next_s);
        if (paced) std::this_thread::sleep_until(intended);
        if (stop != nullptr && stop->load()) break;

        const size_t n =
            static_cast<size_t>(std::min<uint64_t>(options.batch, quota - i));
        std::vector<ServiceRequest> requests;
        std::vector<TaskKind> tasks;
        requests.reserve(n);
        tasks.reserve(n);
        for (size_t j = 0; j < n; ++j, ++i) {
          const uint16_t tenant = static_cast<uint16_t>(
              (t + i * threads) % options.num_tenants);
          requests.push_back(
              DrawRequest(options, zipf, cum_mix, tenant, &rng));
          tasks.push_back(requests.back().task);
        }
        const auto send_time = ServeClock::now();
        if (options.deadline_us > 0) {
          for (ServiceRequest& request : requests) {
            request.deadline =
                send_time + std::chrono::microseconds(options.deadline_us);
          }
        }
        // Open loop charges the server for any lateness between intended
        // and actual send (the generator itself is only late when the host
        // can't schedule threads, which the offered-vs-achieved gap in the
        // report exposes); closed loop measures from the actual send.
        const auto measure_from = options.open_loop ? intended : send_time;

        Sink* sink = &sinks[(t + b) % kSinks];
        in_flight.Add(n);
        submit(std::move(requests),
               [sink, tasks = std::move(tasks), measure_from, &in_flight](
                   size_t index, ServiceResponse response) {
                 RecordCompletion(
                     sink, tasks[index], response,
                     MicrosBetween(measure_from, ServeClock::now()));
                 in_flight.Done();
               });
        // Closed loop: park this generator thread until the batch's
        // responses land, so a slow response delays every later arrival
        // this thread owns — exactly the coordinated omission being
        // modeled.
        if (!options.open_loop) in_flight.WaitIdle();
        if (paced) next_s += NextGap(options, batch_rate, next_s, &rng);
      }
      in_flight.WaitIdle();
      sent[t] = i;
    });
  }
  for (auto& g : gens) g.join();
  const auto t_end = ServeClock::now();

  LoadGenReport report;
  for (uint64_t n : sent) report.submitted += n;
  report.offered_qps = options.rate_qps;
  report.elapsed_s = std::chrono::duration<double>(t_end - t0).count();
  for (Sink& sink : sinks) {
    std::lock_guard<std::mutex> lock(sink.mu);
    report.latency_us.Merge(sink.latency_us);
    report.server_ok_us.Merge(sink.server_ok_us);
    for (uint8_t k = 0; k <= kMaxTaskKind; ++k) {
      report.task_latency_us[k].Merge(sink.task_latency_us[k]);
      report.task_completed[k] += sink.task_completed[k];
      report.task_ok[k] += sink.task_ok[k];
    }
    report.ok += sink.ok;
    report.rejected += sink.rejected;
    report.quota_rejected += sink.quota_rejected;
    report.deadline_exceeded += sink.deadline_exceeded;
    report.invalid_item += sink.invalid_item;
    report.network_error += sink.network_error;
    report.cache_hits += sink.cache_hits;
  }
  report.completed = report.latency_us.count();
  report.achieved_qps = report.elapsed_s > 0.0
                            ? static_cast<double>(report.completed) /
                                  report.elapsed_s
                            : 0.0;
  return report;
}

}  // namespace pkgm::serve
