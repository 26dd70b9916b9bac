// Online-serving throughput study for the serving subsystem (src/serve/):
// how much does request batching amortize queue/wake-up overhead, and how
// much does the sharded condensed-vector cache buy on Zipf-skewed traffic?
// Each server row is serve::RunLoadGen's unpaced closed loop from one
// thread, in process. The socket path is measured by perfbench's
// serve_mixed, bench_infer_serving and bench_tail_latency's net leg.
//
//   bench_serve_throughput [--smoke] [--json PATH]
//
//   --smoke shrinks the request volume for CI; --json writes the measured
//   numbers as a machine-readable artifact.

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "bench/bench_common.h"
#include "serve/knowledge_server.h"
#include "serve/load_gen.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

constexpr double kZipfSkew = 1.1;

/// Runs `requests` condensed kAll lookups through `server` in batches of
/// `batch` from one unpaced closed-loop generator thread; every request
/// must be answered.
serve::LoadGenReport RunClosedLoop(serve::KnowledgeServer* server,
                                   uint32_t num_items, uint32_t batch,
                                   uint64_t seed, uint32_t requests) {
  serve::LoadGenOptions lopt;
  lopt.rate_qps = 0.0;
  lopt.open_loop = false;
  lopt.total_requests = requests;
  lopt.threads = 1;
  lopt.batch = batch;
  lopt.zipf_s = kZipfSkew;
  lopt.num_items = num_items;
  lopt.seed = seed;
  const serve::LoadGenReport report = serve::RunLoadGen(
      lopt, std::bind_front(&serve::KnowledgeServer::SubmitBatchAsync, server));
  PKGM_CHECK_EQ(report.ok, requests);
  return report;
}

void Run(uint32_t requests, const std::string& json_path) {
  bench::PrintHeader("Serving throughput: batching and the cache");

  tasks::PipelineOptions opt = bench::BenchPipelineOptions();
  opt.pretrain_epochs = 5;  // serving throughput does not depend on quality
  std::printf("building pipeline (short pre-train; throughput only) ...\n");
  tasks::PretrainedPkgm p = tasks::BuildAndPretrain(opt);
  const uint32_t num_items = p.services->num_items();
  std::printf("%u items, condensed dim %u, zipf %.2f, %s requests/config\n\n",
              num_items, p.services->CondensedDim(core::ServiceMode::kAll),
              kZipfSkew, WithThousandsSeparators(requests).c_str());

  JsonWriter json;
  json.BeginObject()
      .Field("requests_per_config", requests)
      .Key("rows")
      .BeginArray();

  // Baseline: single-item, uncached, computed on the caller's thread — the
  // pre-serving-PR story (ServiceVectorProvider called in-process).
  double direct_rps = 0.0;
  {
    ZipfSampler zipf(num_items, kZipfSkew);
    Rng rng(7);
    Stopwatch sw;
    uint64_t sink = 0;
    for (uint32_t i = 0; i < requests; ++i) {
      const uint32_t item = static_cast<uint32_t>(zipf.Sample(&rng));
      sink += p.services->Condensed(item, core::ServiceMode::kAll).size();
    }
    direct_rps = requests / sw.ElapsedSeconds();
    (void)sink;
  }
  json.BeginObject()
      .Field("section", "direct")
      .Field("config", "provider call")
      .Field("rps", direct_rps)
      .Field("p50_us", 0.0)
      .Field("p99_us", 0.0)
      .EndObject();

  struct Config {
    const char* name;
    bool cache;
    uint32_t batch;
  };
  const Config configs[] = {
      {"server, uncached, batch=1", false, 1},
      {"server, uncached, batch=32", false, 32},
      {"server, cached, batch=1", true, 1},
      {"server, cached, batch=32", true, 32},
  };

  TablePrinter table(
      {"config", "requests/s", "vs direct", "cache hit rate"});
  table.AddRow({"direct provider call (single item, uncached)",
                StrFormat("%.0f", direct_rps), "1.00x", "-"});
  double cached_batched_rps = 0.0;
  for (const Config& config : configs) {
    serve::KnowledgeServerOptions sopt;
    sopt.num_workers = 2;
    sopt.enable_cache = config.cache;
    serve::KnowledgeServer server(p.services.get(), sopt);
    server.Start();
    if (config.cache) {
      // Warm pass so the steady-state (not cold-start) regime is measured.
      RunClosedLoop(&server, num_items, config.batch, /*seed=*/11, requests);
    }
    const serve::LoadGenReport r =
        RunClosedLoop(&server, num_items, config.batch, /*seed=*/13, requests);
    std::string hit_rate = "-";
    if (config.cache) {
      hit_rate = StrFormat("%.1f%%", 100.0 * server.cache()->Stats().HitRate());
      if (config.batch == 32) cached_batched_rps = r.achieved_qps;
    }
    server.Stop();
    table.AddRow({config.name, StrFormat("%.0f", r.achieved_qps),
                  StrFormat("%.2fx", r.achieved_qps / direct_rps), hit_rate});
    json.BeginObject()
        .Field("section", "in_process")
        .Field("config", config.name)
        .Field("rps", r.achieved_qps)
        .Field("p50_us", r.latency_us.Percentile(0.5))
        .Field("p99_us", r.latency_us.Percentile(0.99))
        .EndObject();
  }
  std::printf("%s\n", table.ToString().c_str());

  std::printf(
      "batching amortizes the queue handoff; the cache converts the Zipf\n"
      "head into O(dim) copies instead of O(k·dim^2) transfer-matrix math.\n"
      "cached+batched vs direct uncached: %.2fx\n",
      cached_batched_rps / direct_rps);

  json.EndArray().EndObject();
  if (!json_path.empty()) {
    PKGM_CHECK_OK(WriteJsonFile(json_path, json.str()));
    std::printf("json artifact written to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  uint32_t requests = 30000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      requests = 6000;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_serve_throughput [--smoke] "
                           "[--json PATH]\n");
      return 2;
    }
  }
  pkgm::Run(requests, json_path);
  return 0;
}
