// pkgm_psd — the parameter-server shard daemon of distributed training:
// owns one shard of the embedding tables (full-shape model, shared init
// seed, serves/updates only the rows with id % num_shards == shard) behind
// the v2 wire frames kShardInfo / kPullRows / kPushGrads / kBarrier,
// served by the same epoll NetServer as pkgm_netd. Workers (DistTrainer,
// `pkgm_tool train --distributed` or --connect-shards) drive it remotely.
//
//   pkgm_psd --shard N --num-shards N --entities N --relations N
//            [--dim N] [--scorer transe|distmult|complex|transh]
//            [--no-relation-module] [--model-seed N]
//            [--optimizer sgd|adam] [--lr F] [--no-normalize-entities]
//            [--port N] [--bind ADDR] [--io-threads N]
//            [--port-file PATH] [--run-seconds N] [--stats-json PATH]
//
//   --port 0 (default) binds an ephemeral port; --port-file publishes the
//   bound port write-then-rename for scripted callers (LocalShardCluster,
//   dist_smoke.sh). Shutdown on SIGINT/SIGTERM (or --run-seconds) aborts
//   parked barriers first, then drains the NetServer gracefully.

#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "dist/param_server.h"
#include "net/net_server.h"
#include "util/string_util.h"

namespace pkgm {
namespace {

std::atomic<int> g_signal{0};

void HandleSignal(int signum) { g_signal.store(signum); }

struct PsdFlags {
  dist::ParamServerOptions ps;
  uint16_t port = 0;  // ephemeral by default
  std::string bind = "127.0.0.1";
  int io_threads = 1;
  std::string port_file;
  int run_seconds = 0;  // 0 = until signal
  std::string stats_json_path;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: pkgm_psd --shard N --num-shards N --entities N --relations N\n"
      "                [--dim N] [--scorer transe|distmult|complex|transh]\n"
      "                [--no-relation-module] [--model-seed N]\n"
      "                [--optimizer sgd|adam] [--lr F]\n"
      "                [--no-normalize-entities] [--port N] [--bind ADDR]\n"
      "                [--io-threads N] [--port-file PATH]\n"
      "                [--run-seconds N] [--stats-json PATH]\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, PsdFlags* flags) {
  bool have_shard = false, have_num_shards = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(arg, "--shard") == 0 && (v = next())) {
      flags->ps.shard_index = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
      have_shard = true;
    } else if (std::strcmp(arg, "--num-shards") == 0 && (v = next())) {
      flags->ps.num_shards = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
      have_num_shards = true;
    } else if (std::strcmp(arg, "--entities") == 0 && (v = next())) {
      flags->ps.model.num_entities =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--relations") == 0 && (v = next())) {
      flags->ps.model.num_relations =
          static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--dim") == 0 && (v = next())) {
      flags->ps.model.dim = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (std::strcmp(arg, "--scorer") == 0 && (v = next())) {
      if (std::strcmp(v, "transe") == 0) {
        flags->ps.model.scorer = core::TripleScorerKind::kTransE;
      } else if (std::strcmp(v, "distmult") == 0) {
        flags->ps.model.scorer = core::TripleScorerKind::kDistMult;
      } else if (std::strcmp(v, "complex") == 0) {
        flags->ps.model.scorer = core::TripleScorerKind::kComplEx;
      } else if (std::strcmp(v, "transh") == 0) {
        flags->ps.model.scorer = core::TripleScorerKind::kTransH;
      } else {
        std::fprintf(stderr, "unknown scorer %s\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--no-relation-module") == 0) {
      flags->ps.model.use_relation_module = false;
    } else if (std::strcmp(arg, "--model-seed") == 0 && (v = next())) {
      flags->ps.model.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(arg, "--optimizer") == 0 && (v = next())) {
      if (std::strcmp(v, "adam") == 0) {
        flags->ps.optimizer = core::OptimizerKind::kAdam;
      } else if (std::strcmp(v, "sgd") == 0) {
        flags->ps.optimizer = core::OptimizerKind::kSgd;
      } else {
        std::fprintf(stderr, "unknown optimizer %s (want adam or sgd)\n", v);
        return false;
      }
    } else if (std::strcmp(arg, "--lr") == 0 && (v = next())) {
      flags->ps.learning_rate = std::strtof(v, nullptr);
    } else if (std::strcmp(arg, "--no-normalize-entities") == 0) {
      flags->ps.normalize_entities = false;
    } else if (std::strcmp(arg, "--port") == 0 && (v = next())) {
      flags->port = static_cast<uint16_t>(std::atoi(v));
    } else if (std::strcmp(arg, "--bind") == 0 && (v = next())) {
      flags->bind = v;
    } else if (std::strcmp(arg, "--io-threads") == 0 && (v = next())) {
      flags->io_threads = std::atoi(v);
    } else if (std::strcmp(arg, "--port-file") == 0 && (v = next())) {
      flags->port_file = v;
    } else if (std::strcmp(arg, "--run-seconds") == 0 && (v = next())) {
      flags->run_seconds = std::atoi(v);
    } else if (std::strcmp(arg, "--stats-json") == 0 && (v = next())) {
      flags->stats_json_path = v;
    } else {
      std::fprintf(stderr, "unknown or incomplete flag: %s\n", arg);
      return false;
    }
  }
  if (!have_shard || !have_num_shards ||
      flags->ps.shard_index >= flags->ps.num_shards) {
    std::fprintf(stderr, "--shard must be < --num-shards (both required)\n");
    return false;
  }
  if (flags->ps.model.num_entities == 0 ||
      flags->ps.model.num_relations == 0) {
    std::fprintf(stderr, "--entities and --relations are required\n");
    return false;
  }
  if (flags->io_threads < 1) {
    std::fprintf(stderr, "--io-threads must be >= 1\n");
    return false;
  }
  return true;
}

int Run(const PsdFlags& flags) {
  std::printf(
      "pkgm_psd: shard %u/%u, %u entities x %u relations, dim %u, %s\n",
      flags.ps.shard_index, flags.ps.num_shards,
      flags.ps.model.num_entities, flags.ps.model.num_relations,
      flags.ps.model.dim,
      flags.ps.optimizer == core::OptimizerKind::kAdam ? "adam" : "sgd");
  dist::ParamServer shard(flags.ps);

  net::NetServerOptions nopt;
  nopt.bind_address = flags.bind;
  nopt.port = flags.port;
  nopt.num_io_threads = static_cast<size_t>(flags.io_threads);
  nopt.max_frame_bytes =
      std::max(nopt.max_frame_bytes, shard.MaxPushPayloadBytes());
  net::NetServer net_server(&shard, nopt);
  Status started = net_server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "pkgm_psd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("listening on %s:%u (%d io threads)\n", flags.bind.c_str(),
              net_server.port(), flags.io_threads);
  std::fflush(stdout);

  if (!flags.port_file.empty()) {
    // Write-then-rename so a polling client never reads a partial file.
    const std::string tmp = flags.port_file + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pkgm_psd: cannot write %s\n",
                   flags.port_file.c_str());
      shard.AbortBarriers();
      net_server.Stop();
      return 1;
    }
    std::fprintf(f, "%u\n", net_server.port());
    std::fclose(f);
    std::rename(tmp.c_str(), flags.port_file.c_str());
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleSignal;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  const auto start = std::chrono::steady_clock::now();
  while (g_signal.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (flags.run_seconds > 0 &&
        std::chrono::steady_clock::now() - start >=
            std::chrono::seconds(flags.run_seconds)) {
      break;
    }
  }
  const int signum = g_signal.load();
  std::printf("\npkgm_psd: %s — draining ...\n",
              signum != 0 ? ::strsignal(signum) : "run time elapsed");

  // Order matters: parked barrier responds count as outstanding frames,
  // so they must be aborted before the drain waits on them.
  shard.AbortBarriers();
  net_server.Stop();
  const std::string stats_json = net_server.StatsJson();

  std::printf("final stats: %s\n", stats_json.c_str());
  if (!flags.stats_json_path.empty()) {
    std::FILE* f = std::fopen(flags.stats_json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "pkgm_psd: cannot write %s\n",
                   flags.stats_json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", stats_json.c_str());
    std::fclose(f);
  }
  return 0;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  pkgm::PsdFlags flags;
  if (!pkgm::ParseFlags(argc, argv, &flags)) return pkgm::Usage();
  return pkgm::Run(flags);
}
