// pkgm_serve — stands up the online knowledge-serving subsystem end to end:
// pre-trains PKGM on a synthetic product KG, starts a KnowledgeServer, and
// drives it with serve::RunLoadGen's multi-threaded synthetic traffic over
// a Zipf-skewed item distribution (head items dominate, as in real
// e-commerce traffic), then prints a latency/throughput/cache report.
//
//   pkgm_serve [--rate N] [--arrival poisson|uniform|burst] [--closed-loop]
//              [--tenants N] [--tenant-rate R] [--tenant-burst N]
//              [--coalesce 0|1]
//              [--duration-requests N] [--threads N] [--workers N]
//              [--batch N] [--cache 0|1] [--zipf S] [--deadline-us N]
//              [--queue-capacity N] [--seed N]
//              [--store path.pkgs] [--store-dtype fp32|int8]
//              [--hot-swaps N] [--swap-interval-ms N]
//              [--connect host:port] [--connections N] [--items N]
//              [--stats-json PATH] [--workload lookup|mixed]
//              [--mix-recommend R] [--mix-classify R] [--mix-align R]
//              [--num-users N] [--top-k N]
//
//   Every mode sends batches of --batch requests (default 1) from --threads
//   generator threads. Without --rate the loop is closed and unpaced: each
//   thread sends its next batch as soon as its last one has completed, so
//   the achieved rate is the server's capacity.
//
//   --rate R runs the *open loop*: batches fire at their scheduled arrival
//   instants (R requests/s; Poisson by default, --arrival picks the
//   process) regardless of how slow responses are, and latency is measured
//   from the intended send time — so server-induced queueing can't hide
//   behind coordinated omission. --closed-loop keeps the --rate schedule but
//   waits for each batch's responses before the next send and measures
//   from the actual send (the dishonest baseline, for comparison).
//   --tenants spreads traffic over N tenant ids with distinct Zipf hot
//   sets; --tenant-rate/--tenant-burst arm per-tenant token-bucket quotas
//   in the in-process server. Runs are seeded and replayable.
//
//   --store exports the pre-trained model to a .pkgs embedding store,
//   memory-maps it, and serves from the mapping through a ModelRegistry
//   instead of the in-heap model. --hot-swaps N additionally exports and
//   publishes N fresh store generations (alternating fp32/int8) while
//   traffic is in flight — the zero-downtime model-refresh drill; the run
//   reports any swap-attributable failures (there must be none).
//
//   --connect host:port skips the local pipeline entirely and drives a
//   remote pkgm_netd over the wire protocol instead, through the same
//   generator (--connections pools client sockets; --items must match the
//   daemon's item space, default 1000). --stats-json writes the server's
//   JSON stats snapshot — fetched over the socket in connect mode — to PATH
//   at the end of the run.
//
//   --workload mixed draws each request's task kind from the configured
//   per-type shares — recommend/classify/align inference requests
//   interleaved with lookups; lookup takes whatever share the three --mix-*
//   flags leave. In-process mode trains the three downstream models and
//   attaches the inference engine; in connect mode the remote daemon must
//   run with --infer 1. The report adds a per-task completed/p50/p999
//   table.
//
//   The exit code is 1 when any request comes back kInvalidItem or, in
//   connect mode, with a network error. SIGINT/SIGTERM stop traffic early
//   and still print the final report.

#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "infer/engine.h"
#include "infer/pipeline.h"
#include "infer/registry.h"
#include "net/net_client.h"
#include "net/socket_util.h"
#include "serve/knowledge_server.h"
#include "serve/load_gen.h"
#include "serve_common.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "store/model_registry.h"
#include "tasks/pipeline.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

std::atomic<int> g_signal{0};
std::atomic<bool> g_stop{false};  // RunLoadGen's stop flag

void HandleSignal(int signum) {
  g_signal.store(signum);
  g_stop.store(true);
}

struct ServeFlags {
  double rate = 0.0;                 // > 0 = offered rate; 0 = unpaced
  std::string arrival = "poisson";   // paced arrival process
  int tenants = 1;                   // tenant ids in generated traffic
  double tenant_rate = 0.0;          // server-side quota refill, tokens/s
  double tenant_burst = 0.0;         // server-side bucket size; 0 = off
  bool coalesce = true;              // hot-key request coalescing
  bool closed_loop = false;          // --rate mode: wait per batch
  uint64_t duration_requests = 50000;
  int threads = 4;                   // client threads
  int workers = 2;                   // server worker threads
  int batch = 1;                     // requests per submit
  bool cache = true;
  double zipf = 1.1;                 // item-popularity skew
  int64_t deadline_us = 0;           // 0 = no deadline
  size_t queue_capacity = 256;
  uint64_t seed = 2021;
  std::string store_path;            // empty = serve the in-heap model
  store::StoreDtype store_dtype = store::StoreDtype::kFloat32;
  int hot_swaps = 0;                 // store generations published mid-run
  int swap_interval_ms = 20;
  std::string connect;               // host:port; empty = in-process server
  size_t connections = 1;            // client socket pool (connect mode)
  uint32_t items = 1000;             // item-space size in connect mode
  std::string stats_json_path;       // write server stats JSON here at end
  std::string workload = "lookup";   // lookup | mixed
  double mix_recommend = -1.0;       // mixed: per-kind shares; < 0 = default
  double mix_classify = -1.0;
  double mix_align = -1.0;
  uint32_t num_users = 60;           // recommend user-id space
  uint32_t top_k = 3;                // classify top-k
};

int Usage() {
  std::fprintf(stderr,
               "usage: pkgm_serve [--rate N] "
               "[--arrival poisson|uniform|burst] [--closed-loop]\n"
               "                  [--tenants N] [--tenant-rate R] "
               "[--tenant-burst N]\n"
               "                  [--coalesce 0|1]\n"
               "                  [--duration-requests N] "
               "[--threads N]\n"
               "                  [--workers N] [--batch N] [--cache 0|1] "
               "[--zipf S]\n"
               "                  [--deadline-us N] [--queue-capacity N] "
               "[--seed N]\n"
               "                  [--store path.pkgs] "
               "[--store-dtype fp32|int8]\n"
               "                  [--hot-swaps N] [--swap-interval-ms N]\n"
               "                  [--connect host:port] [--connections N]\n"
               "                  [--items N] [--stats-json PATH]\n"
               "                  [--workload lookup|mixed] "
               "[--mix-recommend R]\n"
               "                  [--mix-classify R] [--mix-align R]\n"
               "                  [--num-users N] [--top-k N]\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, ServeFlags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--rate") == 0 && (v = next())) {
      flags->rate = std::atof(v);
    } else if (std::strcmp(arg, "--arrival") == 0 && (v = next())) {
      flags->arrival = v;
    } else if (std::strcmp(arg, "--tenants") == 0 && (v = next())) {
      flags->tenants = std::atoi(v);
    } else if (std::strcmp(arg, "--tenant-rate") == 0 && (v = next())) {
      flags->tenant_rate = std::atof(v);
    } else if (std::strcmp(arg, "--tenant-burst") == 0 && (v = next())) {
      flags->tenant_burst = std::atof(v);
    } else if (std::strcmp(arg, "--coalesce") == 0 && (v = next())) {
      flags->coalesce = std::atoi(v) != 0;
    } else if (std::strcmp(arg, "--closed-loop") == 0) {
      flags->closed_loop = true;
    } else if (std::strcmp(arg, "--duration-requests") == 0 && (v = next())) {
      flags->duration_requests = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--threads") == 0 && (v = next())) {
      flags->threads = std::atoi(v);
    } else if (std::strcmp(arg, "--workers") == 0 && (v = next())) {
      flags->workers = std::atoi(v);
    } else if (std::strcmp(arg, "--batch") == 0 && (v = next())) {
      flags->batch = std::atoi(v);
    } else if (std::strcmp(arg, "--cache") == 0 && (v = next())) {
      flags->cache = std::atoi(v) != 0;
    } else if (std::strcmp(arg, "--zipf") == 0 && (v = next())) {
      flags->zipf = std::atof(v);
    } else if (std::strcmp(arg, "--deadline-us") == 0 && (v = next())) {
      flags->deadline_us = std::atoll(v);
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
    } else if (std::strcmp(arg, "--hot-swaps") == 0 && (v = next())) {
      flags->hot_swaps = std::atoi(v);
    } else if (std::strcmp(arg, "--swap-interval-ms") == 0 && (v = next())) {
      flags->swap_interval_ms = std::atoi(v);
    } else if (std::strcmp(arg, "--connect") == 0 && (v = next())) {
      flags->connect = v;
    } else if (std::strcmp(arg, "--connections") == 0 && (v = next())) {
      flags->connections = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--items") == 0 && (v = next())) {
      flags->items = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--stats-json") == 0 && (v = next())) {
      flags->stats_json_path = v;
    } else if (std::strcmp(arg, "--workload") == 0 && (v = next())) {
      flags->workload = v;
    } else if (std::strcmp(arg, "--mix-recommend") == 0 && (v = next())) {
      flags->mix_recommend = std::atof(v);
    } else if (std::strcmp(arg, "--mix-classify") == 0 && (v = next())) {
      flags->mix_classify = std::atof(v);
    } else if (std::strcmp(arg, "--mix-align") == 0 && (v = next())) {
      flags->mix_align = std::atof(v);
    } else if (std::strcmp(arg, "--num-users") == 0 && (v = next())) {
      flags->num_users = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--top-k") == 0 && (v = next())) {
      flags->top_k = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg);
      return false;
    }
  }
  if (flags->threads < 1 || flags->workers < 1 || flags->batch < 1) {
    std::fprintf(stderr, "--threads/--workers/--batch must be >= 1\n");
    return false;
  }
  if (flags->rate < 0.0) {
    std::fprintf(stderr, "--rate must be >= 0\n");
    return false;
  }
  if (flags->arrival != "poisson" && flags->arrival != "uniform" &&
      flags->arrival != "burst") {
    std::fprintf(stderr, "--arrival must be poisson, uniform or burst\n");
    return false;
  }
  if (flags->tenants < 1 || flags->tenants > 65535) {
    std::fprintf(stderr, "--tenants must be in [1, 65535]\n");
    return false;
  }
  if (flags->closed_loop && flags->rate <= 0.0) {
    std::fprintf(stderr, "--closed-loop needs --rate (the offered load)\n");
    return false;
  }
  if (flags->hot_swaps > 0 && flags->store_path.empty()) {
    std::fprintf(stderr, "--hot-swaps requires --store\n");
    return false;
  }
  if (!flags->connect.empty() &&
      (!flags->store_path.empty() || flags->hot_swaps > 0)) {
    std::fprintf(stderr,
                 "--connect drives a remote daemon; --store/--hot-swaps "
                 "belong to the in-process mode\n");
    return false;
  }
  if (flags->connections < 1 || flags->items < 1) {
    std::fprintf(stderr, "--connections/--items must be >= 1\n");
    return false;
  }
  if (flags->workload != "lookup" && flags->workload != "mixed") {
    std::fprintf(stderr, "--workload must be lookup or mixed\n");
    return false;
  }
  if (flags->workload == "mixed") {
    // Unset shares default to 0.2 each; lookup takes the remainder.
    if (flags->mix_recommend < 0.0) flags->mix_recommend = 0.2;
    if (flags->mix_classify < 0.0) flags->mix_classify = 0.2;
    if (flags->mix_align < 0.0) flags->mix_align = 0.2;
    const double inference_share =
        flags->mix_recommend + flags->mix_classify + flags->mix_align;
    if (flags->mix_recommend > 1.0 || flags->mix_classify > 1.0 ||
        flags->mix_align > 1.0 || inference_share > 1.0) {
      std::fprintf(stderr,
                   "--mix-recommend/--mix-classify/--mix-align must each be "
                   "in [0, 1] and sum to <= 1 (lookup gets the rest)\n");
      return false;
    }
    if (flags->num_users < 1) {
      std::fprintf(stderr, "--num-users must be >= 1\n");
      return false;
    }
  } else if (flags->mix_recommend >= 0.0 || flags->mix_classify >= 0.0 ||
             flags->mix_align >= 0.0) {
    std::fprintf(stderr, "--mix-* flags need --workload mixed\n");
    return false;
  }
  return true;
}

/// Minimal field extraction from the server's flat StatsJson blob — enough
/// for the end-of-run I/O summary in connect mode without a JSON parser.
std::string JsonStringField(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const size_t start = at + needle.size();
  const size_t end = json.find('"', start);
  return end == std::string::npos ? "" : json.substr(start, end - start);
}

uint64_t JsonU64Field(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

int Run(const ServeFlags& flags) {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  // In-process mode stands up the whole pipeline + server; connect mode
  // only needs a client — the generator drives either through `submit`.
  tasks::PretrainedPkgm p;
  store::ModelRegistry registry;
  // Inference backend for --workload mixed in-process mode; declared before
  // `server` so the engine outlives the workers it serves.
  infer::InferModelRegistry infer_models;
  std::unique_ptr<infer::InferenceEngine> engine;
  uint32_t num_users = flags.num_users;
  std::unique_ptr<serve::KnowledgeServer> server;
  std::unique_ptr<net::NetClient> client;
  serve::AsyncSubmitFn submit;
  uint32_t num_items = flags.items;

  if (!flags.connect.empty()) {
    std::string host;
    uint16_t port = 0;
    Status parsed = net::ParseHostPort(flags.connect, &host, &port);
    if (!parsed.ok()) {
      std::fprintf(stderr, "--connect: %s\n", parsed.ToString().c_str());
      return 1;
    }
    net::NetClientOptions copt;
    copt.num_connections = flags.connections;
    auto connected = net::NetClient::Connect(host, port, copt);
    if (!connected.ok()) {
      std::fprintf(stderr, "connect to %s failed: %s\n",
                   flags.connect.c_str(),
                   connected.status().ToString().c_str());
      return 1;
    }
    client = std::move(connected.value());
    std::printf("pkgm_serve: driving %s over %zu connection(s), "
                "%u-item space\n\n",
                flags.connect.c_str(), flags.connections, num_items);
    submit =
        std::bind_front(&net::NetClient::SubmitBatchAsync, client.get());
  } else {
    std::printf("pkgm_serve: pre-training a synthetic PKG (short run) ...\n");
    Stopwatch setup;
    p = tasks::BuildAndPretrain(tool::ServePipelineOptions(flags.seed));
    num_items = p.services->num_items();
    std::printf("ready in %.1fs: %u items, dim %u, condensed dim %u\n\n",
                setup.ElapsedSeconds(), num_items, p.model->dim(),
                p.services->CondensedDim(core::ServiceMode::kAll));

    serve::KnowledgeServerOptions sopt;
    sopt.num_workers = static_cast<size_t>(flags.workers);
    sopt.queue_capacity = flags.queue_capacity;
    sopt.enable_cache = flags.cache;
    sopt.enable_coalescing = flags.coalesce && flags.cache;
    sopt.tenant_rate = flags.tenant_rate;
    sopt.tenant_burst = flags.tenant_burst;

    if (!flags.store_path.empty()) {
      auto gen = tool::ExportGeneration(*p.model, *p.services,
                                        flags.store_path, flags.store_dtype,
                                        /*generation=*/1);
      if (gen == nullptr) return 1;
      registry.Publish(gen->source, gen->provider, gen->info);
      std::printf("serving from %s store %s (%s bytes, mmap)\n\n",
                  store::StoreDtypeName(flags.store_dtype),
                  flags.store_path.c_str(),
                  WithThousandsSeparators(gen->info.file_bytes).c_str());
      server = std::make_unique<serve::KnowledgeServer>(&registry, sopt);
    } else {
      server =
          std::make_unique<serve::KnowledgeServer>(p.services.get(), sopt);
    }
    if (flags.workload == "mixed") {
      std::printf("training downstream models "
                  "(recommend/classify/align) ...\n");
      Stopwatch infer_setup;
      infer::InferPipelineOptions iopt;
      iopt.seed = flags.seed + 100;
      infer::InferBundle bundle = infer::TrainInferModels(p, iopt);
      num_users = bundle.num_users;
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
      std::printf("inference ready in %.1fs: %u users, %u classes\n\n",
                  infer_setup.ElapsedSeconds(), num_users, bundle.num_classes);
    }
    server->Start();
    submit = std::bind_front(&serve::KnowledgeServer::SubmitBatchAsync,
                             server.get());
  }

  serve::LoadGenOptions lopt;
  lopt.rate_qps = flags.rate;
  lopt.open_loop = flags.rate > 0.0 && !flags.closed_loop;
  lopt.total_requests = flags.duration_requests;
  lopt.threads = static_cast<size_t>(flags.threads);
  lopt.batch = static_cast<size_t>(flags.batch);
  if (flags.arrival == "uniform") {
    lopt.arrival = serve::ArrivalProcess::kUniform;
  } else if (flags.arrival == "burst") {
    lopt.arrival = serve::ArrivalProcess::kBurst;
  }
  lopt.zipf_s = flags.zipf;
  lopt.num_items = num_items;
  lopt.num_tenants = static_cast<uint16_t>(flags.tenants);
  lopt.deadline_us =
      flags.deadline_us > 0 ? static_cast<uint32_t>(flags.deadline_us) : 0;
  lopt.seed = flags.seed;
  if (flags.workload == "mixed") {
    lopt.mix[1] = flags.mix_recommend;
    lopt.mix[2] = flags.mix_classify;
    lopt.mix[3] = flags.mix_align;
    lopt.mix[0] =
        1.0 - (flags.mix_recommend + flags.mix_classify + flags.mix_align);
    lopt.num_users = num_users;
    lopt.top_k = flags.top_k;
  }

  // Model-refresh drill: while clients hammer the server, keep exporting
  // and publishing fresh store generations (alternating dtype, distinct
  // files — an mmap'd store must never be overwritten in place). In-flight
  // requests finish on the generation they pinned; a swap must never fail
  // a request.
  std::atomic<bool> traffic_done{false};
  std::atomic<int> swaps_done{0}, swap_failures{0};
  std::vector<std::string> swap_files;
  std::thread swapper;
  if (flags.hot_swaps > 0) {
    for (int i = 0; i < flags.hot_swaps; ++i) {
      swap_files.push_back(flags.store_path + ".gen" + std::to_string(i + 2));
    }
    swapper = std::thread([&] {
      for (int i = 0; i < flags.hot_swaps; ++i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(flags.swap_interval_ms));
        if (traffic_done.load(std::memory_order_relaxed)) break;
        const store::StoreDtype dtype = (i % 2 == 0)
                                            ? store::StoreDtype::kInt8
                                            : store::StoreDtype::kFloat32;
        auto gen = tool::ExportGeneration(*p.model, *p.services,
                                          swap_files[i], dtype,
                                          static_cast<uint64_t>(i) + 2);
        if (gen == nullptr) {
          ++swap_failures;
          continue;
        }
        registry.Publish(gen->source, gen->provider, gen->info);
        ++swaps_done;
      }
    });
  }

  // --duration-requests 0 renders the empty report.
  const serve::LoadGenReport lg =
      flags.duration_requests == 0 ? serve::LoadGenReport{}
                                   : serve::RunLoadGen(lopt, submit, &g_stop);
  traffic_done.store(true);
  if (swapper.joinable()) swapper.join();

  // Grab the server-side stats snapshot before the drain tears state down;
  // in connect mode it is fetched over the wire from the live daemon.
  std::string stats_json;
  if (!flags.stats_json_path.empty()) {
    if (client != nullptr) {
      auto fetched = client->ServerStatsJson();
      if (fetched.ok()) {
        stats_json = std::move(fetched.value());
      } else {
        std::fprintf(stderr, "stats fetch failed: %s\n",
                     fetched.status().ToString().c_str());
      }
    } else {
      stats_json = server->StatsJson();
    }
  }
  if (server != nullptr) server->Stop();

  if (g_signal.load() != 0) {
    std::printf("\ninterrupted (%s): traffic stopped early\n",
                ::strsignal(g_signal.load()));
  }
  if (flags.hot_swaps > 0) {
    std::printf("hot swaps: %d published under traffic, %d export failures "
                "(final generation %llu)\n",
                swaps_done.load(), swap_failures.load(),
                static_cast<unsigned long long>(registry.generation()));
    for (const std::string& file : swap_files) std::remove(file.c_str());
  }
  std::printf(
      "traffic: %s requests in %.2fs over %d client threads "
      "(batch %d, zipf %.2f, %s)\n",
      WithThousandsSeparators(lg.submitted).c_str(), lg.elapsed_s,
      flags.threads, flags.batch, flags.zipf,
      flags.rate > 0
          ? StrFormat("%s loop at %.0f qps, %s arrivals, %d tenant(s)",
                      flags.closed_loop ? "closed" : "open", flags.rate,
                      serve::ArrivalProcessName(lopt.arrival), flags.tenants)
                .c_str()
          : StrFormat("closed loop, unpaced, %d tenant(s)", flags.tenants)
                .c_str());
  std::printf("throughput: %.0f requests/s\n\n", lg.achieved_qps);

  if (flags.workload == "mixed") {
    TablePrinter mix_table(
        {"task", "completed", "ok", "p50 us", "p99 us", "p999 us"});
    for (uint8_t k = 0; k <= serve::kMaxTaskKind; ++k) {
      if (lg.task_completed[k] == 0) continue;
      const Histogram& h = lg.task_latency_us[k];
      mix_table.AddRow({serve::TaskKindName(static_cast<serve::TaskKind>(k)),
                        std::to_string(lg.task_completed[k]),
                        std::to_string(lg.task_ok[k]),
                        StrFormat("%.1f", h.Percentile(0.5)),
                        StrFormat("%.1f", h.Percentile(0.99)),
                        StrFormat("%.1f", h.Percentile(0.999))});
    }
    std::printf("per-task mix:\n%s\n", mix_table.ToString().c_str());
  }

  TablePrinter t({"metric", "value"});
  t.AddRow({"ok", std::to_string(lg.ok)});
  t.AddRow({"rejected", std::to_string(lg.rejected)});
  t.AddRow({"quota shed", std::to_string(lg.quota_rejected)});
  t.AddRow({"deadline expired", std::to_string(lg.deadline_exceeded)});
  t.AddRow({"invalid item", std::to_string(lg.invalid_item)});
  // Only lookups read the cache.
  const uint64_t lookups_ok =
      lg.task_ok[static_cast<uint8_t>(serve::TaskKind::kLookup)];
  t.AddRow({"cache hit rate",
            lookups_ok == 0
                ? std::string("-")
                : StrFormat("%.1f%%",
                            100.0 * static_cast<double>(lg.cache_hits) /
                                static_cast<double>(lookups_ok))});
  auto percentile = [&lg](double q) {
    return lg.latency_us.count() == 0
               ? std::string("-")
               : StrFormat("%.1f", lg.latency_us.Percentile(q));
  };
  t.AddRow({"client p50 us", percentile(0.5)});
  t.AddRow({"client p95 us", percentile(0.95)});
  t.AddRow({"client p99 us", percentile(0.99)});
  t.AddRow({"client p999 us", percentile(0.999)});
  t.AddRow({"client mean us", StrFormat("%.1f", lg.latency_us.Mean())});
  if (client != nullptr) {
    t.AddRow({"network errors", std::to_string(lg.network_error)});
  }
  std::printf("%s\n", t.ToString().c_str());

  if (server != nullptr) {
    std::printf("server-side stats:\n%s\n", server->StatsReport().c_str());
  }
  if (client != nullptr) {
    // End-of-run I/O accounting from the remote daemon: what the frame
    // stream cost its event loops in syscalls.
    std::string io_json = stats_json;
    if (io_json.empty()) {
      auto fetched = client->ServerStatsJson();
      if (fetched.ok()) io_json = std::move(fetched.value());
    }
    const std::string backend = JsonStringField(io_json, "io_backend");
    if (!backend.empty()) {
      const uint64_t waits = JsonU64Field(io_json, "io_wait_calls");
      const uint64_t recvs = JsonU64Field(io_json, "io_recv_syscalls");
      const uint64_t sends = JsonU64Field(io_json, "io_send_syscalls");
      const uint64_t frames = JsonU64Field(io_json, "frames_in") +
                              JsonU64Field(io_json, "frames_out");
      const uint64_t syscalls = waits + recvs + sends;
      std::printf(
          "remote server i/o: %s loop — %s waits, %s recv + %s send "
          "syscalls, %.2f frames/syscall\n\n",
          backend.c_str(), WithThousandsSeparators(waits).c_str(),
          WithThousandsSeparators(recvs).c_str(),
          WithThousandsSeparators(sends).c_str(),
          static_cast<double>(frames) /
              static_cast<double>(syscalls > 0 ? syscalls : 1));
    }
  }
  if (!flags.stats_json_path.empty() && !stats_json.empty()) {
    std::FILE* f = std::fopen(flags.stats_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n",
                   flags.stats_json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", stats_json.c_str());
    std::fclose(f);
    std::printf("server stats json written to %s\n",
                flags.stats_json_path.c_str());
  }
  if (lg.invalid_item > 0) {
    std::fprintf(stderr,
                 "%llu requests named items the server does not have "
                 "(--items %u)\n",
                 static_cast<unsigned long long>(lg.invalid_item), num_items);
  }
  return lg.network_error == 0 && lg.invalid_item == 0 ? 0 : 1;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  pkgm::ServeFlags flags;
  if (!pkgm::ParseFlags(argc, argv, &flags)) return pkgm::Usage();
  return pkgm::Run(flags);
}
