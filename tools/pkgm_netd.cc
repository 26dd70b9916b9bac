// pkgm_netd — the network serving daemon: pre-trains PKGM on the same
// synthetic product KG pkgm_serve uses, stands up a KnowledgeServer, and
// exposes it over TCP via the PKGM wire protocol (src/net/). Remote
// clients (pkgm_serve --connect, or anything linking NetClient) then drive
// it across the socket.
//
//   pkgm_netd [--port N] [--bind ADDR] [--io-threads N] [--workers N]
//             [--cache 0|1] [--queue-capacity N] [--seed N]
//             [--store path.pkgs] [--store-dtype fp32|int8]
//             [--idle-timeout-ms N] [--max-outbox-mb N] [--reuseport 0|1]
//             [--port-file PATH] [--run-seconds N] [--stats-json PATH]
//             [--infer 0|1]
//
//   --port 0 (default) binds an ephemeral port; --port-file writes the
//   bound port for scripted callers. --run-seconds 0 (default) serves
//   until SIGINT/SIGTERM. Either way shutdown is a graceful drain: the
//   listener closes, accepted requests complete and flush, then the final
//   StatsReport prints (and --stats-json writes the JSON snapshot).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "infer/engine.h"
#include "infer/pipeline.h"
#include "infer/registry.h"
#include "net/net_server.h"
#include "net/serving_handler.h"
#include "serve/knowledge_server.h"
#include "store/model_registry.h"
#include "daemon_common.h"
#include "serve_common.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pkgm {
namespace {

struct NetdFlags {
  uint16_t port = 0;  // ephemeral by default
  std::string bind = "127.0.0.1";
  int io_threads = 2;
  int workers = 2;
  bool cache = true;
  size_t queue_capacity = 256;
  uint64_t seed = 2021;
  std::string store_path;
  store::StoreDtype store_dtype = store::StoreDtype::kFloat32;
  int idle_timeout_ms = 0;
  int max_outbox_mb = 8;
  bool reuseport = false;
  std::string port_file;
  int run_seconds = 0;  // 0 = until signal
  std::string stats_json_path;
  /// Train + serve the three downstream-inference tasks.
  bool infer = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: pkgm_netd [--port N] [--bind ADDR] [--io-threads N]\n"
               "                 [--workers N] [--cache 0|1] "
               "[--queue-capacity N]\n"
               "                 [--seed N] [--store path.pkgs] "
               "[--store-dtype fp32|int8]\n"
               "                 [--idle-timeout-ms N] [--max-outbox-mb N]\n"
               "                 [--reuseport 0|1] [--port-file PATH]\n"
               "                 [--run-seconds N] [--stats-json PATH]\n"
               "                 [--infer 0|1]\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, NetdFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--port") == 0 && (v = next())) {
      flags->port = static_cast<uint16_t>(std::atoi(v));
    } else if (std::strcmp(arg, "--bind") == 0 && (v = next())) {
      flags->bind = v;
    } else if (std::strcmp(arg, "--io-threads") == 0 && (v = next())) {
      flags->io_threads = std::atoi(v);
    } else if (std::strcmp(arg, "--workers") == 0 && (v = next())) {
      flags->workers = std::atoi(v);
    } else if (std::strcmp(arg, "--cache") == 0 && (v = next())) {
      flags->cache = std::atoi(v) != 0;
    } else if (std::strcmp(arg, "--queue-capacity") == 0 && (v = next())) {
      flags->queue_capacity = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--seed") == 0 && (v = next())) {
      flags->seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--store") == 0 && (v = next())) {
      flags->store_path = v;
    } else if (std::strcmp(arg, "--store-dtype") == 0 && (v = next())) {
      if (std::strcmp(v, "int8") == 0) {
        flags->store_dtype = store::StoreDtype::kInt8;
      } else if (std::strcmp(v, "fp32") == 0) {
        flags->store_dtype = store::StoreDtype::kFloat32;
      } else {
        std::fprintf(stderr, "--store-dtype must be fp32 or int8\n");
        return false;
      }
    } else if (std::strcmp(arg, "--idle-timeout-ms") == 0 && (v = next())) {
      flags->idle_timeout_ms = std::atoi(v);
    } else if (std::strcmp(arg, "--max-outbox-mb") == 0 && (v = next())) {
      flags->max_outbox_mb = std::atoi(v);
    } else if (std::strcmp(arg, "--reuseport") == 0 && (v = next())) {
      flags->reuseport = std::atoi(v) != 0;
    } else if (std::strcmp(arg, "--port-file") == 0 && (v = next())) {
      flags->port_file = v;
    } else if (std::strcmp(arg, "--run-seconds") == 0 && (v = next())) {
      flags->run_seconds = std::atoi(v);
    } else if (std::strcmp(arg, "--stats-json") == 0 && (v = next())) {
      flags->stats_json_path = v;
    } else if (std::strcmp(arg, "--infer") == 0 && (v = next())) {
      flags->infer = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg);
      return false;
    }
  }
  if (flags->io_threads < 1 || flags->workers < 1) {
    std::fprintf(stderr, "--io-threads/--workers must be >= 1\n");
    return false;
  }
  return true;
}

int Run(const NetdFlags& flags) {
  std::printf("pkgm_netd: pre-training a synthetic PKG (short run) ...\n");
  Stopwatch setup;
  tasks::PretrainedPkgm p =
      tasks::BuildAndPretrain(tool::ServePipelineOptions(flags.seed));
  std::printf("ready in %.1fs: %u items, dim %u\n", setup.ElapsedSeconds(),
              p.services->num_items(), p.model->dim());

  serve::KnowledgeServerOptions sopt;
  sopt.num_workers = static_cast<size_t>(flags.workers);
  sopt.queue_capacity = flags.queue_capacity;
  sopt.enable_cache = flags.cache;

  store::ModelRegistry registry;
  std::unique_ptr<serve::KnowledgeServer> server;
  if (!flags.store_path.empty()) {
    auto gen = tool::ExportGeneration(*p.model, *p.services, flags.store_path,
                                      flags.store_dtype, /*generation=*/1);
    if (gen == nullptr) return 1;
    registry.Publish(gen->source, gen->provider, gen->info);
    std::printf("serving from %s store %s (%s bytes, mmap)\n",
                store::StoreDtypeName(flags.store_dtype),
                flags.store_path.c_str(),
                WithThousandsSeparators(gen->info.file_bytes).c_str());
    server = std::make_unique<serve::KnowledgeServer>(&registry, sopt);
  } else {
    server = std::make_unique<serve::KnowledgeServer>(p.services.get(), sopt);
  }

  // The inference backend (recommend / classify / align). Must outlive
  // the KnowledgeServer's workers; server->Stop() below joins them before
  // these locals die.
  infer::InferModelRegistry infer_models;
  std::unique_ptr<infer::InferenceEngine> engine;
  if (flags.infer) {
    std::printf("pkgm_netd: training downstream models "
                "(recommend/classify/align) ...\n");
    Stopwatch infer_setup;
    infer::InferPipelineOptions iopt;
    iopt.seed = flags.seed + 100;
    infer::InferBundle bundle = infer::TrainInferModels(p, iopt);
    const uint32_t num_users = bundle.num_users;
    const uint32_t num_classes = bundle.num_classes;
    infer_models.PublishRecommender(std::move(bundle.recommender),
                                    bundle.variant);
    infer_models.PublishClassifier(std::move(bundle.classifier),
                                   bundle.variant);
    infer_models.PublishAligner(std::move(bundle.aligner), bundle.variant);
    if (!flags.store_path.empty()) {
      engine = std::make_unique<infer::InferenceEngine>(
          &infer_models, &registry, std::move(bundle.titles));
    } else {
      engine = std::make_unique<infer::InferenceEngine>(
          &infer_models, p.services.get(), std::move(bundle.titles));
    }
    server->AttachInferExecutor(engine.get());
    std::printf("inference ready in %.1fs: %u users, %u classes\n",
                infer_setup.ElapsedSeconds(), num_users, num_classes);
  }
  server->Start();

  net::NetServerOptions nopt;
  nopt.bind_address = flags.bind;
  nopt.port = flags.port;
  nopt.num_io_threads = static_cast<size_t>(flags.io_threads);
  nopt.idle_timeout_ms = flags.idle_timeout_ms;
  nopt.max_outbox_bytes = static_cast<size_t>(flags.max_outbox_mb) << 20;
  nopt.reuseport = flags.reuseport;
  net::ServingHandler serving(server.get());
  net::NetServer net_server(&serving, nopt);
  Status started = net_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "pkgm_netd: %s\n", started.ToString().c_str());
    server->Stop();
    return 1;
  }
  std::printf("listening on %s:%u (%d io threads, %d workers, %s i/o)\n",
              flags.bind.c_str(), net_server.port(), flags.io_threads,
              flags.workers, net_server.net_counters().io_backend.c_str());
  std::fflush(stdout);

  tool::InstallShutdownHandlers();
  if (!flags.port_file.empty() &&
      !tool::WritePortFile(flags.port_file, net_server.port(), "pkgm_netd")) {
    net_server.Stop();
    server->Stop();
    return 1;
  }
  tool::WaitForShutdown(flags.run_seconds, "pkgm_netd");

  net_server.Stop();  // graceful: in-flight requests complete and flush
  const std::string stats_json = net_server.StatsJson();
  const std::string stats_report =
      serving.StatsReport(net_server.net_counters());
  server->Stop();

  std::printf("final stats:\n%s\n", stats_report.c_str());
  if (!flags.stats_json_path.empty()) {
    const Status written = WriteJsonFile(flags.stats_json_path, stats_json);
    if (!written.ok()) {
      std::fprintf(stderr, "pkgm_netd: %s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("stats json written to %s\n", flags.stats_json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  pkgm::NetdFlags flags;
  if (!pkgm::ParseFlags(argc, argv, &flags)) return pkgm::Usage();
  return pkgm::Run(flags);
}
