#include "serve/server_stats.h"

#include <algorithm>
#include <vector>

#include "util/table_printer.h"

namespace pkgm::serve {
namespace {

/// A stage's object: its count, then (when it has samples) its quantiles
/// and mean.
void WriteHistogram(const Histogram& h, JsonWriter* w) {
  w->BeginObject().Field("count", h.count());
  if (h.count() > 0) {
    const std::vector<double> p = h.Percentiles({0.5, 0.95, 0.99, 0.999});
    w->Field("p50_us", p[0])
        .Field("p95_us", p[1])
        .Field("p99_us", p[2])
        .Field("p999_us", p[3])
        .Field("mean_us", h.Mean());
  }
  w->EndObject();
}

}  // namespace

void NetCounters::WriteJson(JsonWriter* w) const {
  w->BeginObject()
      .Field("connections_accepted", connections_accepted)
      .Field("connections_closed", connections_closed)
      .Field("connections_active", connections_active)
      .Field("frames_in", frames_in)
      .Field("frames_out", frames_out)
      .Field("bytes_in", bytes_in)
      .Field("bytes_out", bytes_out)
      .Field("requests_in", requests_in)
      .Field("protocol_errors", protocol_errors)
      .Field("backpressure_disconnects", backpressure_disconnects)
      .Field("idle_disconnects", idle_disconnects)
      .Field("io_backend", io_backend)
      .Field("io_wait_calls", io_wait_calls)
      .Field("io_recv_syscalls", io_recv_syscalls)
      .Field("io_send_syscalls", io_send_syscalls)
      .Field("frames_per_syscall",
             static_cast<double>(frames_in + frames_out) /
                 std::max<uint64_t>(
                     1, io_wait_calls + io_recv_syscalls + io_send_syscalls))
      .EndObject();
}

void ServerStats::RecordCompleted(ResponseCode code, double queue_micros,
                                  double compute_micros) {
  switch (code) {
    case ResponseCode::kOk: ++ok_; break;
    case ResponseCode::kDeadlineExceeded: ++deadline_exceeded_; break;
    case ResponseCode::kInvalidItem: ++invalid_item_; break;
    // Admission-time rejections never reach a worker (Enqueue resolves them
    // directly), so a kRejected here is a post-admission shed, counted
    // apart from rejected().
    case ResponseCode::kRejected: ++exec_rejected_; break;
    case ResponseCode::kQuotaExceeded: break;  // counted at admission
    case ResponseCode::kNetworkError: break;  // client-side only
  }
  std::lock_guard<std::mutex> lock(histo_mu_);
  queue_micros_.Record(queue_micros);
  compute_micros_.Record(compute_micros);
}

void ServerStats::SetBackend(std::string description) {
  std::lock_guard<std::mutex> lock(backend_mu_);
  backend_ = std::move(description);
}

std::string ServerStats::backend() const {
  std::lock_guard<std::mutex> lock(backend_mu_);
  return backend_;
}

void ServerStats::WriteJson(uint64_t queue_depth, const CacheStats* cache,
                            const NetCounters* net,
                            const CoalescerStats* coalescer,
                            JsonWriter* w) const {
  w->BeginObject()
      .Field("backend", backend())
      .Field("accepted", accepted())
      .Field("rejected", rejected())
      .Field("quota_rejected", quota_rejected())
      .Field("ok", ok())
      .Field("deadline_exceeded", deadline_exceeded())
      .Field("invalid_item", invalid_item())
      .Field("exec_rejected", exec_rejected())
      .Field("backend_fetches", backend_fetches())
      .Field("coalesced", coalesced())
      .Field("queue_depth", queue_depth);
  w->Key("tasks").BeginObject();
  for (uint8_t t = 0; t <= kMaxTaskKind; ++t) {
    const TaskKind task = static_cast<TaskKind>(t);
    w->Field(TaskKindName(task), task_completed(task));
  }
  w->EndObject();
  if (cache != nullptr) {
    w->Key("cache")
        .BeginObject()
        .Field("hits", cache->hits)
        .Field("misses", cache->misses)
        .Field("hit_rate", cache->HitRate())
        .Field("evictions", cache->evictions)
        .Field("entries", cache->entries)
        .Field("stale_inserts", cache->stale_inserts)
        .EndObject();
  }
  if (coalescer != nullptr) {
    w->Key("coalescer")
        .BeginObject()
        .Field("leaders", coalescer->leaders)
        .Field("joined", coalescer->joined)
        .Field("bypassed", coalescer->bypassed)
        .EndObject();
  }
  if (net != nullptr) {
    w->Key("net");
    net->WriteJson(w);
  }
  Histogram queue, execute;
  {
    std::lock_guard<std::mutex> lock(histo_mu_);
    queue = queue_micros_;
    execute = compute_micros_;
  }
  w->Key("latency").BeginObject().Key("queue");
  WriteHistogram(queue, w);
  w->Key("execute");
  WriteHistogram(execute, w);
  w->EndObject().EndObject();
}

std::string ServerStats::ToTable(const JsonWriter& doc) {
  TablePrinter table({"counter", "value"});
  std::string object;  // the path of the object holding the last row
  for (const JsonWriter::Scalar& scalar : doc.scalars()) {
    const size_t dot = scalar.path.rfind('.');
    std::string parent =
        dot == std::string::npos ? "" : scalar.path.substr(0, dot);
    // A separator opens each object's rows.
    if (parent != object) table.AddSeparator();
    object = std::move(parent);
    table.AddRow({scalar.path, scalar.text});
  }
  return table.ToString();
}

}  // namespace pkgm::serve
