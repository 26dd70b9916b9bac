// Inference-serving benchmark for the downstream subsystem (src/infer/):
// recommend / classify / align forwards executed server-side behind the
// KnowledgeServer, driven by the open-loop generator at a fixed request
// mix. Measures per-task p50/p999 and aggregate throughput, in-process and
// over the loopback socket, and runs a per-task weight hot swap under
// load — all of which must stay shed-free and protocol-clean.
//
//   bench_infer_serving [--smoke] [--json PATH]
//
//   --smoke shrinks the request volume for CI and drives both legs closed
//   loop (each generator thread waits for its response), so the all-ok and
//   hot-swap checks hold on any host speed, sanitizer builds included;
//   --json writes the measured numbers as a machine-readable artifact.

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "infer/engine.h"
#include "infer/pipeline.h"
#include "infer/registry.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/serving_handler.h"
#include "serve/knowledge_server.h"
#include "serve/load_gen.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

// Fixed request mix: the lookup-heavy profile of a front end that fetches
// vectors for most traffic and runs model forwards for the rest.
constexpr double kMixLookup = 0.4;
constexpr double kMixRecommend = 0.2;
constexpr double kMixClassify = 0.2;
constexpr double kMixAlign = 0.2;

/// Serving-scale pipeline (same as pkgm_netd): vectors and models only
/// need to exist, not be accurate.
tasks::PipelineOptions InferBenchPipelineOptions() {
  tasks::PipelineOptions opt;
  opt.pkg.seed = 2021;
  opt.pkg.num_categories = 8;
  opt.pkg.items_per_category = 125;
  opt.dim = 32;
  opt.pretrain_epochs = 3;
  opt.service_k = 10;
  opt.seed = 2021;
  return opt;
}

serve::LoadGenOptions MixOptions(uint32_t num_items, uint32_t num_users,
                                 uint64_t requests, double rate, bool open_loop,
                                 uint64_t seed) {
  serve::LoadGenOptions lopt;
  lopt.rate_qps = rate;
  lopt.open_loop = open_loop;
  lopt.total_requests = requests;
  lopt.threads = 2;
  lopt.num_items = num_items;
  lopt.mix[0] = kMixLookup;
  lopt.mix[1] = kMixRecommend;
  lopt.mix[2] = kMixClassify;
  lopt.mix[3] = kMixAlign;
  lopt.num_users = num_users;
  lopt.top_k = 3;
  lopt.seed = seed;
  return lopt;
}

struct JsonRow {
  std::string section;
  std::string task;
  uint64_t completed = 0;
  double p50_us = 0.0;
  double p999_us = 0.0;
};

void PrintMixReport(const char* title, const serve::LoadGenReport& report,
                    const char* section, std::vector<JsonRow>* json_rows) {
  TablePrinter table(
      {"task", "completed", "ok", "p50 us", "p99 us", "p999 us"});
  for (uint8_t k = 0; k <= serve::kMaxTaskKind; ++k) {
    if (report.task_completed[k] == 0) continue;
    const Histogram& h = report.task_latency_us[k];
    const char* task =
        serve::TaskKindName(static_cast<serve::TaskKind>(k));
    table.AddRow({task, std::to_string(report.task_completed[k]),
                  std::to_string(report.task_ok[k]),
                  StrFormat("%.1f", h.Percentile(0.5)),
                  StrFormat("%.1f", h.Percentile(0.99)),
                  StrFormat("%.1f", h.Percentile(0.999))});
    json_rows->push_back({section, task, report.task_completed[k],
                          h.Percentile(0.5), h.Percentile(0.999)});
  }
  std::printf("%s: offered %.0f qps, achieved %.0f qps, %s ok\n%s\n", title,
              report.offered_qps, report.achieved_qps,
              WithThousandsSeparators(report.ok).c_str(),
              table.ToString().c_str());
  // The acceptance bar for the subsystem: every request answered kOk —
  // nothing shed at execute, nothing invalid, nothing lost.
  PKGM_CHECK_EQ(report.ok, report.completed);
  for (uint8_t k = 0; k <= serve::kMaxTaskKind; ++k) {
    PKGM_CHECK_GT(report.task_completed[k], 0u)
        << "mix produced no " << serve::TaskKindName(static_cast<serve::TaskKind>(k))
        << " traffic";
  }
}

void Run(uint64_t requests, double rate, bool open_loop,
         const std::string& json_path) {
  bench::PrintHeader("Inference serving: per-task tails at a fixed mix");

  std::printf("building pipeline + downstream models ...\n");
  Stopwatch setup;
  tasks::PretrainedPkgm p = tasks::BuildAndPretrain(InferBenchPipelineOptions());
  infer::InferPipelineOptions iopt;
  iopt.seed = 2121;
  infer::InferBundle bundle = infer::TrainInferModels(p, iopt);
  const uint32_t num_items = p.services->num_items();
  const uint32_t num_users = bundle.num_users;
  infer::InferModelRegistry models;
  models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  infer::InferenceEngine engine(&models, p.services.get(),
                                std::move(bundle.titles));
  std::printf("ready in %.1fs: %u items, %u users, %u classes\n",
              setup.ElapsedSeconds(), num_items, num_users,
              bundle.num_classes);
  std::printf("mix: lookup %.0f%% / recommend %.0f%% / classify %.0f%% / "
              "align %.0f%%, %s requests/leg at %.0f qps, %s loop\n\n",
              100 * kMixLookup, 100 * kMixRecommend, 100 * kMixClassify,
              100 * kMixAlign, WithThousandsSeparators(requests).c_str(),
              rate, open_loop ? "open" : "closed");

  std::vector<JsonRow> json_rows;

  serve::KnowledgeServerOptions sopt;
  sopt.num_workers = 2;
  serve::KnowledgeServer server(p.services.get(), sopt);
  server.AttachInferExecutor(&engine);
  server.Start();

  // ---- Leg 1: in-process submission.
  {
    const serve::LoadGenReport report = serve::RunLoadGen(
        MixOptions(num_items, num_users, requests, rate, open_loop,
                   /*seed=*/31),
        std::bind_front(&serve::KnowledgeServer::SubmitBatchAsync, &server));
    PrintMixReport("in-process", report, "in_process", &json_rows);
  }

  // ---- Leg 2: the same mix through the loopback socket, with one weight
  // hot swap per task mid-run (reloading identical weights is enough: the
  // drill is the pointer swap under live inference traffic).
  {
    net::ServingHandler serving(&server);
    net::NetServer net(&serving);
    Status started = net.Start();
    PKGM_CHECK(started.ok());
    net::NetClientOptions copt;
    copt.num_connections = 2;
    auto client = net::NetClient::Connect("127.0.0.1", net.port(), copt);
    PKGM_CHECK(client.ok());

    std::thread swapper([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      infer::InferPipelineOptions swap_opt;
      swap_opt.seed = 2121;
      infer::InferBundle fresh = infer::TrainInferModels(p, swap_opt);
      models.PublishRecommender(std::move(fresh.recommender), fresh.variant);
      models.PublishClassifier(std::move(fresh.classifier), fresh.variant);
      models.PublishAligner(std::move(fresh.aligner), fresh.variant);
    });
    const serve::LoadGenReport report = serve::RunLoadGen(
        MixOptions(num_items, num_users, requests, rate, open_loop,
                   /*seed=*/37),
        std::bind_front(&net::NetClient::SubmitBatchAsync,
                        client.value().get()));
    swapper.join();
    PrintMixReport("loopback socket (+hot swap)", report, "loopback",
                   &json_rows);

    const uint64_t protocol_errors = net.net_counters().protocol_errors;
    client.value().reset();
    net.Stop();
    PKGM_CHECK_EQ(protocol_errors, 0u);
    PKGM_CHECK_GE(models.recommender()->generation, 2u);
  }

  const uint64_t exec_rejected = server.stats().exec_rejected();
  server.Stop();
  PKGM_CHECK_EQ(exec_rejected, 0u);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    PKGM_CHECK(f != nullptr);
    std::fprintf(f,
                 "{\"requests_per_leg\":%llu,\"rate_qps\":%.0f,"
                 "\"open_loop\":%s,"
                 "\"mix\":{\"lookup\":%.2f,\"recommend\":%.2f,"
                 "\"classify\":%.2f,\"align\":%.2f},\"rows\":[",
                 static_cast<unsigned long long>(requests), rate,
                 open_loop ? "true" : "false", kMixLookup,
                 kMixRecommend, kMixClassify, kMixAlign);
    for (size_t i = 0; i < json_rows.size(); ++i) {
      const JsonRow& row = json_rows[i];
      std::fprintf(f,
                   "%s{\"section\":\"%s\",\"task\":\"%s\","
                   "\"completed\":%llu,\"p50_us\":%.2f,\"p999_us\":%.2f}",
                   i == 0 ? "" : ",", row.section.c_str(), row.task.c_str(),
                   static_cast<unsigned long long>(row.completed), row.p50_us,
                   row.p999_us);
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("json artifact written to %s\n", json_path.c_str());
  }
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  uint64_t requests = 20000;
  double rate = 4000.0;
  bool open_loop = true;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      requests = 3000;
      rate = 1500.0;
      open_loop = false;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_infer_serving [--smoke] [--json PATH]\n");
      return 2;
    }
  }
  pkgm::Run(requests, rate, open_loop, json_path);
  return 0;
}
