#include "serve/server_stats.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm::serve {
namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", static_cast<unsigned char>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// 0.5 → "p50", 0.99 → "p99", 0.999 → "p999", 0.9999 → "p9999".
std::string QuantileLabel(double q) {
  std::string digits = StrFormat("%g", q * 100.0);
  digits.erase(std::remove(digits.begin(), digits.end(), '.'), digits.end());
  return "p" + digits;
}

std::string HistogramJson(const Histogram& h,
                          const std::vector<double>& quantiles) {
  if (h.count() == 0) return "{\"count\":0}";
  std::string json =
      StrFormat("{\"count\":%llu", static_cast<unsigned long long>(h.count()));
  std::vector<double> values = h.Percentiles(quantiles);
  for (size_t i = 0; i < quantiles.size(); ++i) {
    json += StrFormat(",\"%s_us\":%.2f", QuantileLabel(quantiles[i]).c_str(),
                      values[i]);
  }
  json += StrFormat(",\"mean_us\":%.2f}", h.Mean());
  return json;
}

}  // namespace

std::string NetCounters::ToJson() const {
  auto u64 = [](uint64_t v) {
    return std::to_string(static_cast<unsigned long long>(v));
  };
  std::string json = "{";
  json += "\"connections_accepted\":" + u64(connections_accepted);
  json += ",\"connections_closed\":" + u64(connections_closed);
  json += ",\"connections_active\":" + u64(connections_active);
  json += ",\"frames_in\":" + u64(frames_in);
  json += ",\"frames_out\":" + u64(frames_out);
  json += ",\"bytes_in\":" + u64(bytes_in);
  json += ",\"bytes_out\":" + u64(bytes_out);
  json += ",\"requests_in\":" + u64(requests_in);
  json += ",\"protocol_errors\":" + u64(protocol_errors);
  json += ",\"backpressure_disconnects\":" + u64(backpressure_disconnects);
  json += ",\"idle_disconnects\":" + u64(idle_disconnects);
  json += ",\"io_backend\":\"" + JsonEscape(io_backend) + "\"";
  json += ",\"io_wait_calls\":" + u64(io_wait_calls);
  json += ",\"io_recv_syscalls\":" + u64(io_recv_syscalls);
  json += ",\"io_send_syscalls\":" + u64(io_send_syscalls);
  json += ",\"frames_per_syscall\":" + StrFormat("%.3f", FramesPerSyscall());
  json += "}";
  return json;
}

void ServerStats::RecordCompleted(ResponseCode code, double queue_micros,
                                  double compute_micros) {
  switch (code) {
    case ResponseCode::kOk: ++ok_; break;
    case ResponseCode::kDeadlineExceeded: ++deadline_exceeded_; break;
    case ResponseCode::kInvalidItem: ++invalid_item_; break;
    // Admission-time rejections never reach a worker (Enqueue resolves them
    // directly), so a kRejected here is a post-admission shed and must be
    // counted or in_flight() drifts.
    case ResponseCode::kRejected: ++exec_rejected_; break;
    case ResponseCode::kQuotaExceeded: break;  // counted at admission
    case ResponseCode::kNetworkError: break;  // client-side only
  }
  std::lock_guard<std::mutex> lock(histo_mu_);
  queue_micros_.Record(queue_micros);
  compute_micros_.Record(compute_micros);
}

Histogram ServerStats::QueueLatency() const {
  std::lock_guard<std::mutex> lock(histo_mu_);
  return queue_micros_;
}

Histogram ServerStats::ComputeLatency() const {
  std::lock_guard<std::mutex> lock(histo_mu_);
  return compute_micros_;
}

void ServerStats::SetQuantiles(std::vector<double> quantiles) {
  PKGM_CHECK(!quantiles.empty());
  for (size_t i = 0; i < quantiles.size(); ++i) {
    PKGM_CHECK_GT(quantiles[i], 0.0);
    PKGM_CHECK_LE(quantiles[i], 1.0);
    if (i > 0) {
      PKGM_CHECK_GT(quantiles[i], quantiles[i - 1]);
    }
  }
  quantiles_ = std::move(quantiles);
}

void ServerStats::SetBackend(std::string description) {
  std::lock_guard<std::mutex> lock(backend_mu_);
  backend_ = std::move(description);
}

std::string ServerStats::backend() const {
  std::lock_guard<std::mutex> lock(backend_mu_);
  return backend_;
}

std::string ServerStats::ToTable(uint64_t queue_depth, const CacheStats* cache,
                                 const NetCounters* net,
                                 const CoalescerStats* coalescer) const {
  TablePrinter counters({"counter", "value"});
  {
    std::lock_guard<std::mutex> lock(backend_mu_);
    if (!backend_.empty()) counters.AddRow({"backend", backend_});
  }
  counters.AddRow({"requests accepted", std::to_string(accepted())});
  counters.AddRow({"requests rejected", std::to_string(rejected())});
  counters.AddRow({"quota rejected", std::to_string(quota_rejected())});
  counters.AddRow({"responses ok", std::to_string(ok())});
  counters.AddRow({"deadline exceeded", std::to_string(deadline_exceeded())});
  counters.AddRow({"invalid item", std::to_string(invalid_item())});
  counters.AddRow({"rejected at execute", std::to_string(exec_rejected())});
  counters.AddRow({"backend fetches", std::to_string(backend_fetches())});
  counters.AddRow({"coalesced requests", std::to_string(coalesced())});
  counters.AddRow({"queue depth (requests)", std::to_string(queue_depth)});
  for (uint8_t t = 0; t <= kMaxTaskKind; ++t) {
    const TaskKind task = static_cast<TaskKind>(t);
    counters.AddRow({StrFormat("completed %s", TaskKindName(task)),
                     std::to_string(task_completed(task))});
  }
  if (cache != nullptr) {
    counters.AddSeparator();
    counters.AddRow({"cache hits", std::to_string(cache->hits)});
    counters.AddRow({"cache misses", std::to_string(cache->misses)});
    counters.AddRow({"cache hit rate",
                     StrFormat("%.1f%%", 100.0 * cache->HitRate())});
    counters.AddRow({"cache evictions", std::to_string(cache->evictions)});
    counters.AddRow({"cache entries", std::to_string(cache->entries)});
    counters.AddRow({"cache stale inserts dropped",
                     std::to_string(cache->stale_inserts)});
  }
  if (coalescer != nullptr) {
    counters.AddSeparator();
    counters.AddRow({"coalesce leaders", std::to_string(coalescer->leaders)});
    counters.AddRow({"coalesce joined", std::to_string(coalescer->joined)});
    counters.AddRow(
        {"coalesce gen bypassed", std::to_string(coalescer->bypassed)});
  }
  if (net != nullptr) {
    counters.AddSeparator();
    counters.AddRow({"net connections accepted",
                     std::to_string(net->connections_accepted)});
    counters.AddRow({"net connections active",
                     std::to_string(net->connections_active)});
    counters.AddRow({"net frames in", std::to_string(net->frames_in)});
    counters.AddRow({"net frames out", std::to_string(net->frames_out)});
    counters.AddRow({"net bytes in", std::to_string(net->bytes_in)});
    counters.AddRow({"net bytes out", std::to_string(net->bytes_out)});
    counters.AddRow({"net requests decoded", std::to_string(net->requests_in)});
    counters.AddRow({"net protocol errors",
                     std::to_string(net->protocol_errors)});
    counters.AddRow({"net backpressure disconnects",
                     std::to_string(net->backpressure_disconnects)});
    counters.AddRow({"net idle disconnects",
                     std::to_string(net->idle_disconnects)});
    counters.AddRow({"net io backend", net->io_backend.empty()
                                           ? std::string("-")
                                           : net->io_backend});
    counters.AddRow({"net io wait calls", std::to_string(net->io_wait_calls)});
    counters.AddRow(
        {"net io recv syscalls", std::to_string(net->io_recv_syscalls)});
    counters.AddRow(
        {"net io send syscalls", std::to_string(net->io_send_syscalls)});
    counters.AddRow(
        {"net frames per syscall", StrFormat("%.2f", net->FramesPerSyscall())});
  }

  std::vector<std::string> headers = {"stage", "count"};
  for (double q : quantiles_) headers.push_back(QuantileLabel(q) + " us");
  headers.push_back("mean us");
  TablePrinter latency(headers);
  auto add = [this, &latency](const char* stage, const Histogram& h) {
    std::vector<std::string> row = {stage, std::to_string(h.count())};
    if (h.count() == 0) {
      for (size_t i = 0; i < quantiles_.size() + 1; ++i) row.push_back("-");
    } else {
      for (double v : h.Percentiles(quantiles_)) {
        row.push_back(StrFormat("%.2f", v));
      }
      row.push_back(StrFormat("%.2f", h.Mean()));
    }
    latency.AddRow(row);
  };
  {
    std::lock_guard<std::mutex> lock(histo_mu_);
    add("queue wait", queue_micros_);
    add("execute", compute_micros_);
  }
  return counters.ToString() + "\n" + latency.ToString();
}

std::string ServerStats::StatsJson(uint64_t queue_depth,
                                   const CacheStats* cache,
                                   const NetCounters* net,
                                   const CoalescerStats* coalescer) const {
  auto u64 = [](uint64_t v) {
    return std::to_string(static_cast<unsigned long long>(v));
  };
  std::string json = "{";
  json += "\"backend\":\"" + JsonEscape(backend()) + "\"";
  json += ",\"accepted\":" + u64(accepted());
  json += ",\"rejected\":" + u64(rejected());
  json += ",\"quota_rejected\":" + u64(quota_rejected());
  json += ",\"ok\":" + u64(ok());
  json += ",\"deadline_exceeded\":" + u64(deadline_exceeded());
  json += ",\"invalid_item\":" + u64(invalid_item());
  json += ",\"exec_rejected\":" + u64(exec_rejected());
  json += ",\"backend_fetches\":" + u64(backend_fetches());
  json += ",\"coalesced\":" + u64(coalesced());
  json += ",\"queue_depth\":" + u64(queue_depth);
  json += ",\"tasks\":{";
  for (uint8_t t = 0; t <= kMaxTaskKind; ++t) {
    const TaskKind task = static_cast<TaskKind>(t);
    if (t > 0) json += ",";
    json += StrFormat("\"%s\":", TaskKindName(task)) + u64(task_completed(task));
  }
  json += "}";
  if (cache != nullptr) {
    json += StrFormat(
        ",\"cache\":{\"hits\":%llu,\"misses\":%llu,\"hit_rate\":%.4f,"
        "\"evictions\":%llu,\"entries\":%llu,\"stale_inserts\":%llu}",
        static_cast<unsigned long long>(cache->hits),
        static_cast<unsigned long long>(cache->misses), cache->HitRate(),
        static_cast<unsigned long long>(cache->evictions),
        static_cast<unsigned long long>(cache->entries),
        static_cast<unsigned long long>(cache->stale_inserts));
  }
  if (coalescer != nullptr) {
    json += StrFormat(
        ",\"coalescer\":{\"leaders\":%llu,\"joined\":%llu,\"bypassed\":%llu}",
        static_cast<unsigned long long>(coalescer->leaders),
        static_cast<unsigned long long>(coalescer->joined),
        static_cast<unsigned long long>(coalescer->bypassed));
  }
  if (net != nullptr) json += ",\"net\":" + net->ToJson();
  json += ",\"latency\":{\"queue\":" + HistogramJson(QueueLatency(), quantiles_) +
          ",\"execute\":" + HistogramJson(ComputeLatency(), quantiles_) + "}";
  json += "}";
  return json;
}

}  // namespace pkgm::serve
