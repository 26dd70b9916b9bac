// Tail-latency regression gate for the serving subsystem: measures p999
// under honest open-loop load and asserts the three properties this stack
// is engineered for —
//
//   1. hot-key coalescing shields the parameter backend: a thundering herd
//      on one item costs one backend fetch, not one per concurrent miss;
//   2. per-tenant quotas + deadlines keep p999 inside the SLO even when
//      the offered load exceeds what the server admits;
//   3. open-loop measurement is honest: at the same offered rate, latency
//      measured from the *intended* send time (open loop) is never lower
//      than the closed-loop number that coordinated omission produces.
//
// It also reports, ungated, the same open-loop load over a loopback
// NetServer/NetClient pair: latency plus the epoll loop's syscalls per
// served frame.
//
//   bench_tail_latency [--smoke] [--json PATH]
//
//   --smoke shrinks request volumes for CI; the assertions run in both
//   modes (this bench is a gate, not just a report). --json writes the
//   measured numbers as a machine-readable artifact, with the server's own
//   StatsJson() blob embedded so stage-level p999s land in CI artifacts.
//
// Full mode additionally sweeps offered load through saturation
// ({0.5, 0.8, 1.0, 1.2} x measured capacity) to locate the knee.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/embedding_source.h"
#include "core/service.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/serving_handler.h"
#include "serve/knowledge_server.h"
#include "serve/load_gen.h"
#include "tasks/pipeline.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

/// EmbeddingSource decorator that sleeps on every entity-row access,
/// modeling an expensive parameter backend (page fault into a cold mmap
/// region, or a remote parameter-server round trip). Condensed() touches
/// the item's entity row exactly once, so the delay is per backend fetch —
/// the cost hot-key coalescing exists to deduplicate.
class ThrottledSource : public core::EmbeddingSource {
 public:
  ThrottledSource(const core::EmbeddingSource* inner,
                  std::chrono::microseconds delay)
      : inner_(inner), delay_(delay) {}

  uint32_t num_entities() const override { return inner_->num_entities(); }
  uint32_t num_relations() const override { return inner_->num_relations(); }
  uint32_t dim() const override { return inner_->dim(); }
  core::TripleScorerKind scorer() const override { return inner_->scorer(); }
  bool has_relation_module() const override {
    return inner_->has_relation_module();
  }

  const float* EntityRow(uint32_t e, float* scratch) const override {
    std::this_thread::sleep_for(delay_);
    return inner_->EntityRow(e, scratch);
  }
  const float* RelationRow(uint32_t r, float* scratch) const override {
    return inner_->RelationRow(r, scratch);
  }
  const float* TransferRow(uint32_t r, float* scratch) const override {
    return inner_->TransferRow(r, scratch);
  }
  const float* HyperplaneRow(uint32_t r, float* scratch) const override {
    return inner_->HyperplaneRow(r, scratch);
  }

 private:
  const core::EmbeddingSource* inner_;
  std::chrono::microseconds delay_;
};

/// Rebuilds a provider with the same item -> (entity, key relations)
/// mapping as `ref` but reading embeddings through `source`.
core::ServiceVectorProvider CloneProviderOver(
    const core::EmbeddingSource* source,
    const core::ServiceVectorProvider& ref) {
  std::vector<kg::EntityId> items;
  std::vector<std::vector<kg::RelationId>> keys;
  items.reserve(ref.num_items());
  keys.reserve(ref.num_items());
  for (uint32_t i = 0; i < ref.num_items(); ++i) {
    items.push_back(ref.item_entity(i));
    keys.push_back(ref.key_relations(i));
  }
  return core::ServiceVectorProvider(source, std::move(items),
                                     std::move(keys));
}

serve::AsyncSubmitFn InProcess(serve::KnowledgeServer* server) {
  return std::bind_front(&serve::KnowledgeServer::SubmitBatchAsync, server);
}

// ---------------------------------------------------------------------------
// Phase 1: capacity. Closed-loop, unpaced, batched — the server's maximum
// sustainable throughput, used to scale every later phase's offered rate so
// the gate self-calibrates to the host (and to sanitizer overhead in CI).

double MeasureCapacity(const core::ServiceVectorProvider* provider,
                       uint32_t requests) {
  serve::KnowledgeServerOptions sopt;
  sopt.num_workers = 4;
  sopt.enable_cache = true;
  serve::KnowledgeServer server(provider, sopt);
  server.Start();

  serve::LoadGenOptions lopt;
  lopt.rate_qps = 0.0;
  lopt.open_loop = false;
  lopt.total_requests = requests;
  lopt.threads = 4;
  lopt.batch = 32;
  lopt.num_items = provider->num_items();
  lopt.seed = 100;
  const double capacity =
      serve::RunLoadGen(lopt, InProcess(&server)).achieved_qps;
  server.Stop();
  return capacity;
}

// ---------------------------------------------------------------------------
// Phase 2: thundering herd vs coalescing. Every arrival in an epoch wants
// the item that just went on sale, and each epoch starts with the cache
// invalidated (a model refresh). Without coalescing each concurrently-
// executing miss pays its own backend fetch; with it one leader fetches
// while the rest join the flight.

struct HerdResult {
  uint64_t backend_fetches = 0;
  uint64_t leaders = 0;
  uint64_t joined = 0;
  double elapsed_s = 0.0;
};

HerdResult RunHerd(const core::ServiceVectorProvider* slow_provider,
                   bool coalesce, uint32_t epochs, uint32_t herd_size) {
  serve::KnowledgeServerOptions sopt;
  sopt.num_workers = 4;
  sopt.enable_cache = true;
  sopt.enable_coalescing = coalesce;
  serve::KnowledgeServer server(slow_provider, sopt);
  server.Start();

  Stopwatch sw;
  std::vector<std::future<serve::ServiceResponse>> futures;
  futures.reserve(herd_size);
  for (uint32_t epoch = 0; epoch < epochs; ++epoch) {
    server.InvalidateCache();  // the model refresh that cold-starts the key
    const uint32_t item = epoch % slow_provider->num_items();
    futures.clear();
    for (uint32_t i = 0; i < herd_size; ++i) {
      serve::ServiceRequest request;
      request.item = item;
      futures.push_back(server.Submit(request));
    }
    for (auto& future : futures) {
      PKGM_CHECK(future.get().code == serve::ResponseCode::kOk);
    }
  }

  HerdResult result;
  result.backend_fetches = server.stats().backend_fetches();
  if (server.coalescer() != nullptr) {
    const serve::CoalescerStats cs = server.coalescer()->stats();
    result.leaders = cs.leaders;
    result.joined = cs.joined;
  }
  result.elapsed_s = sw.ElapsedSeconds();
  server.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// Phase: network I/O over loopback. The same open-loop load runs through a
// real NetServer/NetClient pair; besides latency it reports syscalls per
// served frame — waits + per-chunk recvs + sends.

struct NetIoLeg {
  serve::LoadGenReport report;
  serve::NetCounters net;
  /// (io_wait_calls + io_recv_syscalls + io_send_syscalls) per frame moved.
  double syscalls_per_frame = 0.0;
};

NetIoLeg RunNetIoLeg(const core::ServiceVectorProvider* provider,
                     double offered_qps, uint64_t requests) {
  serve::KnowledgeServerOptions sopt;
  sopt.num_workers = 4;
  sopt.enable_cache = true;
  sopt.enable_coalescing = true;
  serve::KnowledgeServer server(provider, sopt);
  server.Start();

  net::NetServerOptions nopt;
  // One event-loop thread: the measured quantity is syscalls per frame on
  // one core under fan-in, so concentrate the fan-in instead of diluting
  // events across loops that then mostly sleep.
  nopt.num_io_threads = 1;
  net::ServingHandler serving(&server);
  net::NetServer net_server(&serving, nopt);
  PKGM_CHECK_OK(net_server.Start());

  net::NetClientOptions copt;
  // Enough connections that the event-loop thread multiplexes many: the
  // fan-in shape where one epoll_wait can return several ready sockets.
  copt.num_connections = 16;
  auto client = net::NetClient::Connect("127.0.0.1", net_server.port(), copt);
  PKGM_CHECK(client.ok());

  NetIoLeg leg;
  serve::LoadGenOptions lopt;
  lopt.rate_qps = offered_qps;
  lopt.total_requests = requests;
  lopt.threads = 8;
  lopt.arrival = serve::ArrivalProcess::kPoisson;
  lopt.num_items = provider->num_items();
  lopt.seed = 23;
  // Returns once every frame is answered: each completion runs on a
  // connection's reader thread as its reply arrives.
  leg.report = serve::RunLoadGen(
      lopt, std::bind_front(&net::NetClient::SubmitBatchAsync,
                            client.value().get()));

  PKGM_CHECK_EQ(client.value()->network_errors(), 0u);
  leg.net = net_server.net_counters();
  const uint64_t frames = leg.net.frames_in + leg.net.frames_out;
  const uint64_t syscalls = leg.net.io_wait_calls + leg.net.io_recv_syscalls +
                            leg.net.io_send_syscalls;
  leg.syscalls_per_frame = static_cast<double>(syscalls) /
                           static_cast<double>(frames > 0 ? frames : 1);

  client.value().reset();
  net_server.Stop();
  server.Stop();
  return leg;
}

// ---------------------------------------------------------------------------
// JSON helpers (the artifact is flat enough for fprintf).

void JsonLoadGenFields(std::FILE* f, const serve::LoadGenReport& r) {
  std::fprintf(
      f,
      "\"offered_qps\":%.1f,\"achieved_qps\":%.1f,\"submitted\":%llu,"
      "\"ok\":%llu,\"rejected\":%llu,\"quota_rejected\":%llu,"
      "\"deadline_exceeded\":%llu,\"p50_us\":%.1f,\"p99_us\":%.1f,"
      "\"p999_us\":%.1f,\"server_ok_p999_us\":%.1f",
      r.offered_qps, r.achieved_qps,
      static_cast<unsigned long long>(r.submitted),
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.rejected),
      static_cast<unsigned long long>(r.quota_rejected),
      static_cast<unsigned long long>(r.deadline_exceeded),
      r.latency_us.Percentile(0.5), r.latency_us.Percentile(0.99),
      r.latency_us.Percentile(0.999), r.server_ok_us.Percentile(0.999));
}

void PrintLoadGenRow(TablePrinter* table, const std::string& name,
                     const serve::LoadGenReport& r) {
  table->AddRow({name, StrFormat("%.0f", r.offered_qps),
                 StrFormat("%.0f", r.achieved_qps),
                 StrFormat("%.0f", r.latency_us.Percentile(0.5)),
                 StrFormat("%.0f", r.latency_us.Percentile(0.99)),
                 StrFormat("%.0f", r.latency_us.Percentile(0.999)),
                 StrFormat("%.0f", r.server_ok_us.Percentile(0.999)),
                 WithThousandsSeparators(r.quota_rejected),
                 WithThousandsSeparators(r.deadline_exceeded)});
}

void Run(bool smoke, const std::string& json_path) {
  bench::PrintHeader("Tail latency: coalescing, quotas, and honest load");

  tasks::PipelineOptions opt = bench::BenchPipelineOptions();
  opt.pkg.num_categories = 8;
  opt.pkg.items_per_category = 125;  // 1000 items: serving, not quality
  opt.pretrain_epochs = 3;
  std::printf("building pipeline (short pre-train; latency only) ...\n");
  tasks::PretrainedPkgm p = tasks::BuildAndPretrain(opt);
  const core::ServiceVectorProvider* provider = p.services.get();
  const uint32_t num_items = provider->num_items();

  // ---- Phase 1: capacity.
  const uint32_t capacity_requests = smoke ? 24000 : 120000;
  const double capacity = MeasureCapacity(provider, capacity_requests);
  std::printf("closed-loop capacity: %.0f requests/s (%u items, %s mode)\n\n",
              capacity, num_items, smoke ? "smoke" : "full");

  // ---- Phase 2: herd.
  ThrottledSource slow_source(p.services->source(),
                              std::chrono::microseconds(500));
  core::ServiceVectorProvider slow_provider =
      CloneProviderOver(&slow_source, *provider);
  const uint32_t herd_epochs = smoke ? 40 : 150;
  const uint32_t herd_size = 64;
  const HerdResult herd_off =
      RunHerd(&slow_provider, /*coalesce=*/false, herd_epochs, herd_size);
  const HerdResult herd_on =
      RunHerd(&slow_provider, /*coalesce=*/true, herd_epochs, herd_size);
  const double fetch_ratio =
      static_cast<double>(herd_on.backend_fetches) /
      static_cast<double>(herd_off.backend_fetches);
  {
    TablePrinter table({"coalescing", "backend fetches", "leaders", "joined",
                        "wall s"});
    table.AddRow({"off", WithThousandsSeparators(herd_off.backend_fetches),
                  "-", "-", StrFormat("%.2f", herd_off.elapsed_s)});
    table.AddRow({"on", WithThousandsSeparators(herd_on.backend_fetches),
                  WithThousandsSeparators(herd_on.leaders),
                  WithThousandsSeparators(herd_on.joined),
                  StrFormat("%.2f", herd_on.elapsed_s)});
    std::printf(
        "thundering herd (%u epochs x %u requests on one cold key, 500us "
        "backend):\n%s"
        "coalesced fetches / uncoalesced fetches: %.2f\n\n",
        herd_epochs, herd_size, table.ToString().c_str(), fetch_ratio);
  }
  // The gate: one flight per (key, invalidation) means the coalesced run
  // must do materially fewer backend fetches than the herd of misses.
  PKGM_CHECK_LT(fetch_ratio, 0.8);
  PKGM_CHECK_GT(herd_on.joined, 0u);

  // ---- Phase 3: SLO under overload with quotas + deadlines.
  const double slo_us = 50000.0;
  serve::LoadGenReport slo_report;
  std::string slo_server_json;
  {
    serve::KnowledgeServerOptions sopt;
    sopt.num_workers = 4;
    sopt.enable_cache = true;
    sopt.enable_coalescing = true;
    const double offered = std::min(0.3 * capacity, smoke ? 4000.0 : 8000.0);
    const uint16_t tenants = 4;
    // Each tenant offers offered/tenants; quotas admit half of that, so the
    // run sheds aggressively while the admitted load stays comfortable.
    sopt.tenant_rate = offered / (tenants * 2.0);
    sopt.tenant_burst = 50.0;
    serve::KnowledgeServer server(provider, sopt);
    server.Start();

    serve::LoadGenOptions lopt;
    lopt.rate_qps = offered;
    lopt.total_requests = static_cast<uint64_t>(offered * (smoke ? 1.5 : 4.0));
    lopt.threads = 4;
    lopt.arrival = serve::ArrivalProcess::kPoisson;
    lopt.num_items = num_items;
    lopt.num_tenants = tenants;
    lopt.deadline_us = static_cast<uint32_t>(slo_us);
    lopt.seed = 2021;
    slo_report = serve::RunLoadGen(lopt, InProcess(&server));
    slo_server_json = server.StatsJson();
    server.Stop();
  }
  // ---- Phase 4: open-loop vs closed-loop honesty at one offered rate.
  serve::LoadGenReport open_report;
  serve::LoadGenReport closed_report;
  {
    serve::KnowledgeServerOptions sopt;
    sopt.num_workers = 4;
    sopt.enable_cache = true;
    sopt.enable_coalescing = true;
    serve::KnowledgeServer server(provider, sopt);
    server.Start();

    serve::LoadGenOptions lopt;
    lopt.rate_qps = std::min(0.5 * capacity, smoke ? 5000.0 : 10000.0);
    lopt.total_requests =
        static_cast<uint64_t>(lopt.rate_qps * (smoke ? 1.0 : 2.0));
    lopt.threads = 4;
    lopt.arrival = serve::ArrivalProcess::kPoisson;
    lopt.num_items = num_items;
    lopt.seed = 7;
    lopt.open_loop = false;  // run the flawed methodology first (warms cache)
    closed_report = serve::RunLoadGen(lopt, InProcess(&server));
    lopt.open_loop = true;
    open_report = serve::RunLoadGen(lopt, InProcess(&server));
    server.Stop();
  }

  {
    TablePrinter table({"phase", "offered/s", "achieved/s", "p50 us",
                        "p99 us", "p999 us", "srv ok p999", "quota shed",
                        "deadline"});
    PrintLoadGenRow(&table, "slo (quotas + deadline)", slo_report);
    PrintLoadGenRow(&table, "honesty, closed loop", closed_report);
    PrintLoadGenRow(&table, "honesty, open loop", open_report);
    std::printf("open-loop load phases:\n%s\n", table.ToString().c_str());
  }

  const double open_p999 = open_report.latency_us.Percentile(0.999);
  const double closed_p999 = closed_report.latency_us.Percentile(0.999);
  const double slo_server_p999 = slo_report.server_ok_us.Percentile(0.999);
  std::printf(
      "p999: slo-phase served %.0f us inside the server (SLO %.0f us, "
      "client-observed %.0f us) | open %.0f us vs closed %.0f us at the "
      "same offered rate\n\n",
      slo_server_p999, slo_us, slo_report.latency_us.Percentile(0.999),
      open_p999, closed_p999);

  // The gates. The SLO is asserted on the server-side (queue + compute)
  // p999 of served requests — the quantity deadline + quota shedding
  // bound: anything the server could not answer inside its deadline was
  // shed, not served late. The client-observed open-loop p999 is reported
  // but not gated; on a small CI host it is dominated by generator
  // scheduling lateness that open-loop measurement honestly charges. The
  // honesty gate: at the same offered rate the open-loop p999 is never
  // below the closed-loop number (coordinated omission can only hide
  // latency, not add it).
  PKGM_CHECK_LE(slo_server_p999, slo_us);
  PKGM_CHECK_GT(slo_report.quota_rejected, 0u);
  PKGM_CHECK_GT(slo_report.ok, 0u);
  PKGM_CHECK_GE(open_p999, 0.95 * closed_p999);

  // ---- Phase 5: the same open-loop load over loopback sockets (reported,
  // not gated). Below capacity, so the achieved rate tracks the offered one.
  const double net_offered = std::min(0.6 * capacity, smoke ? 8000.0 : 11000.0);
  const uint64_t net_requests =
      static_cast<uint64_t>(net_offered * (smoke ? 2.5 : 3.0));
  const NetIoLeg net_leg = RunNetIoLeg(provider, net_offered, net_requests);
  {
    TablePrinter table({"loop", "offered/s", "achieved/s", "p999 us",
                        "frames", "waits", "recv sys", "send sys",
                        "sys/frame"});
    table.AddRow(
        {net_leg.net.io_backend, StrFormat("%.0f", net_leg.report.offered_qps),
         StrFormat("%.0f", net_leg.report.achieved_qps),
         StrFormat("%.0f", net_leg.report.latency_us.Percentile(0.999)),
         WithThousandsSeparators(net_leg.net.frames_in +
                                 net_leg.net.frames_out),
         WithThousandsSeparators(net_leg.net.io_wait_calls),
         WithThousandsSeparators(net_leg.net.io_recv_syscalls),
         WithThousandsSeparators(net_leg.net.io_send_syscalls),
         StrFormat("%.3f", net_leg.syscalls_per_frame)});
    std::printf("net i/o over loopback (%llu requests at %.0f/s):\n%s\n",
                static_cast<unsigned long long>(net_requests), net_offered,
                table.ToString().c_str());
  }

  // ---- Phase 6 (full mode): sweep offered load through saturation.
  std::vector<serve::LoadGenReport> sweep;
  if (!smoke) {
    serve::KnowledgeServerOptions sopt;
    sopt.num_workers = 4;
    sopt.enable_cache = true;
    sopt.enable_coalescing = true;
    serve::KnowledgeServer server(provider, sopt);
    server.Start();
    TablePrinter table({"phase", "offered/s", "achieved/s", "p50 us",
                        "p99 us", "p999 us", "srv ok p999", "quota shed",
                        "deadline"});
    for (double frac : {0.5, 0.8, 1.0, 1.2}) {
      serve::LoadGenOptions lopt;
      lopt.rate_qps = std::min(frac * capacity, 25000.0);
      lopt.total_requests = static_cast<uint64_t>(lopt.rate_qps * 2.0);
      lopt.threads = 8;
      lopt.arrival = serve::ArrivalProcess::kPoisson;
      lopt.num_items = num_items;
      lopt.deadline_us = 200000;
      lopt.seed = 11;
      sweep.push_back(serve::RunLoadGen(lopt, InProcess(&server)));
      PrintLoadGenRow(&table, StrFormat("sweep %.1fx capacity", frac),
                      sweep.back());
    }
    std::printf("offered-load sweep:\n%s\n", table.ToString().c_str());
    server.Stop();
  }

  std::printf("tail-latency gate passed: coalescing ratio %.2f < 0.8, "
              "p999 inside SLO with shedding, open >= closed p999.\n",
              fetch_ratio);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    PKGM_CHECK(f != nullptr);
    std::fprintf(f, "{\"smoke\":%s,\"capacity_qps\":%.1f,",
                 smoke ? "true" : "false", capacity);
    std::fprintf(
        f,
        "\"coalescing\":{\"herd_epochs\":%u,\"herd_size\":%u,"
        "\"backend_fetches_off\":%llu,\"backend_fetches_on\":%llu,"
        "\"fetch_ratio\":%.3f,\"leaders\":%llu,\"joined\":%llu},",
        herd_epochs, herd_size,
        static_cast<unsigned long long>(herd_off.backend_fetches),
        static_cast<unsigned long long>(herd_on.backend_fetches), fetch_ratio,
        static_cast<unsigned long long>(herd_on.leaders),
        static_cast<unsigned long long>(herd_on.joined));
    std::fprintf(f, "\"slo\":{\"slo_us\":%.0f,", slo_us);
    JsonLoadGenFields(f, slo_report);
    std::fprintf(f, ",\"server\":%s},", slo_server_json.c_str());
    std::fprintf(f, "\"honesty\":{\"open\":{");
    JsonLoadGenFields(f, open_report);
    std::fprintf(f, "},\"closed\":{");
    JsonLoadGenFields(f, closed_report);
    std::fprintf(f, "}},\"net_io\":{");
    JsonLoadGenFields(f, net_leg.report);
    std::fprintf(
        f,
        ",\"io_backend\":\"%s\",\"frames\":%llu,\"io_wait_calls\":%llu,"
        "\"io_recv_syscalls\":%llu,\"io_send_syscalls\":%llu,"
        "\"syscalls_per_frame\":%.4f",
        net_leg.net.io_backend.c_str(),
        static_cast<unsigned long long>(net_leg.net.frames_in +
                                        net_leg.net.frames_out),
        static_cast<unsigned long long>(net_leg.net.io_wait_calls),
        static_cast<unsigned long long>(net_leg.net.io_recv_syscalls),
        static_cast<unsigned long long>(net_leg.net.io_send_syscalls),
        net_leg.syscalls_per_frame);
    std::fprintf(f, "},\"sweep\":[");
    for (size_t i = 0; i < sweep.size(); ++i) {
      std::fprintf(f, "%s{", i == 0 ? "" : ",");
      JsonLoadGenFields(f, sweep[i]);
      std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("json artifact written to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_tail_latency [--smoke] [--json PATH]\n");
      return 2;
    }
  }
  pkgm::Run(smoke, json_path);
  return 0;
}
