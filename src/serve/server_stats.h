#ifndef PKGM_SERVE_SERVER_STATS_H_
#define PKGM_SERVE_SERVER_STATS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "serve/coalescer.h"
#include "serve/request.h"
#include "serve/vector_cache.h"
#include "util/histogram.h"

namespace pkgm::serve {

/// Snapshot of the network front end's counters (src/net/NetServer), folded
/// into ServerStats reports so one table/JSON blob covers the whole serving
/// path: sockets, frames, and the compute behind them.
struct NetCounters {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t connections_active = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  /// Wire-level requests decoded out of kServiceRequests frames.
  uint64_t requests_in = 0;
  /// Malformed frames (bad magic/version/CRC/oversize/garbled payload);
  /// each one closes exactly the offending connection.
  uint64_t protocol_errors = 0;
  /// Slow readers dropped because their outbox exceeded the bound.
  uint64_t backpressure_disconnects = 0;
  /// Connections reaped by the idle timeout.
  uint64_t idle_disconnects = 0;

  /// The event loop the I/O threads run ("epoll").
  std::string io_backend;
  /// epoll_wait calls, summed across I/O threads.
  uint64_t io_wait_calls = 0;
  /// Per-chunk read() and per-flush sendmsg() syscalls.
  uint64_t io_recv_syscalls = 0;
  uint64_t io_send_syscalls = 0;

  /// Frames moved (in + out) per I/O syscall (waits + recvs + sends): how
  /// many frames each wakeup, read and gathered write carries on average
  /// — higher is better.
  double FramesPerSyscall() const {
    const uint64_t syscalls =
        io_wait_calls + io_recv_syscalls + io_send_syscalls;
    return static_cast<double>(frames_in + frames_out) /
           static_cast<double>(syscalls > 0 ? syscalls : 1);
  }

  /// The "net" object of every daemon's kStats snapshot — pkgm_netd's
  /// (ServerStats::StatsJson) and pkgm_psd's (ParamServer::StatsJson) — so
  /// both report one key set.
  std::string ToJson() const;
};

/// Thread-safe metrics for the knowledge server: request counters by
/// outcome, plus per-stage latency histograms (queue wait vs execution).
/// Counters are lock-free atomics; histograms are guarded by one mutex and
/// use the bounded log-linear bucket mode, so memory stays O(1) however
/// long the server runs and tail quantiles (p999/p9999) stay readable.
class ServerStats {
 public:
  ServerStats() = default;

  ServerStats(const ServerStats&) = delete;
  ServerStats& operator=(const ServerStats&) = delete;

  /// `n` requests passed admission control.
  void RecordAccepted(uint64_t n) { accepted_ += n; }
  /// `n` requests were turned away with kRejected (queue saturation).
  void RecordRejected(uint64_t n) { rejected_ += n; }
  /// `n` requests were shed with kQuotaExceeded (per-tenant token bucket).
  void RecordQuotaRejected(uint64_t n) { quota_rejected_ += n; }
  /// One request reached a terminal state on a worker.
  void RecordCompleted(ResponseCode code, double queue_micros,
                       double compute_micros);
  /// The completed request was of `task` kind (traffic mixes lookups with
  /// inference requests; per-task counts make the mix visible in reports).
  void RecordTaskCompleted(TaskKind task) {
    ++task_completed_[static_cast<uint8_t>(task)];
  }
  /// One condensed-vector compute hit the parameter backend (a cache miss
  /// that actually ran provider->Condensed). Coalesced joiners don't count.
  void RecordBackendFetch() { ++backend_fetches_; }
  /// One condensed request joined another's in-flight backend fetch.
  void RecordCoalesced() { ++coalesced_; }

  uint64_t accepted() const { return accepted_.load(); }
  uint64_t rejected() const { return rejected_.load(); }
  uint64_t quota_rejected() const { return quota_rejected_.load(); }
  uint64_t ok() const { return ok_.load(); }
  uint64_t deadline_exceeded() const { return deadline_exceeded_.load(); }
  uint64_t invalid_item() const { return invalid_item_.load(); }
  uint64_t backend_fetches() const { return backend_fetches_.load(); }
  uint64_t coalesced() const { return coalesced_.load(); }
  /// Requests that passed admission but were shed on a worker (e.g. an
  /// inference kind with no model published). Disjoint from rejected(),
  /// which counts admission-time queue saturation.
  uint64_t exec_rejected() const { return exec_rejected_.load(); }
  uint64_t task_completed(TaskKind task) const {
    return task_completed_[static_cast<uint8_t>(task)].load();
  }
  /// Accepted requests that have not yet completed.
  uint64_t in_flight() const {
    return accepted_.load() - ok_.load() - deadline_exceeded_.load() -
           invalid_item_.load() - exec_rejected_.load();
  }

  /// Snapshots of the stage histograms (copies, safe to interrogate).
  Histogram QueueLatency() const;
  Histogram ComputeLatency() const;

  /// Describes the parameter backend serving this run (store dtype, load
  /// mode, generation, file size). Set at server start and again on every
  /// hot-swap, so reports always show which backend answered.
  void SetBackend(std::string description);
  std::string backend() const;

  /// Renders counters, the queue-depth gauge, optional cache counters,
  /// optional network-front-end counters and the per-stage latency
  /// percentiles as two aligned ASCII tables.
  std::string ToTable(uint64_t queue_depth, const CacheStats* cache,
                      const NetCounters* net = nullptr,
                      const CoalescerStats* coalescer = nullptr) const;

  /// Machine-readable counterpart to ToTable: one JSON object with the same
  /// counters/gauges/percentiles, consumed by the load generator, the CI
  /// smoke job and bench artifacts instead of regex-scraping the tables.
  std::string StatsJson(uint64_t queue_depth, const CacheStats* cache,
                        const NetCounters* net = nullptr,
                        const CoalescerStats* coalescer = nullptr) const;

 private:
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> quota_rejected_{0};
  std::atomic<uint64_t> ok_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> invalid_item_{0};
  std::atomic<uint64_t> backend_fetches_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> exec_rejected_{0};
  std::atomic<uint64_t> task_completed_[kMaxTaskKind + 1] = {};

  mutable std::mutex histo_mu_;
  Histogram queue_micros_{HistogramMode::kBucketed};
  Histogram compute_micros_{HistogramMode::kBucketed};

  mutable std::mutex backend_mu_;
  std::string backend_;
};

}  // namespace pkgm::serve

#endif  // PKGM_SERVE_SERVER_STATS_H_
