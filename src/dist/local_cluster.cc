#include "dist/local_cluster.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::dist {

namespace {

/// How long Start() waits for every daemon to publish its port file.
constexpr int kStartupTimeoutMs = 10000;

const char* ScorerName(core::TripleScorerKind scorer) {
  switch (scorer) {
    case core::TripleScorerKind::kTransE:
      return "transe";
    case core::TripleScorerKind::kDistMult:
      return "distmult";
    case core::TripleScorerKind::kComplEx:
      return "complex";
    case core::TripleScorerKind::kTransH:
      return "transh";
  }
  return "transe";
}

/// Reads "<port>\n" from a port file; 0 when absent / not yet complete.
uint16_t ReadPortFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return 0;
  long port = 0;
  const int got = std::fscanf(f, "%ld", &port);
  std::fclose(f);
  if (got != 1 || port <= 0 || port > 65535) return 0;
  return static_cast<uint16_t>(port);
}

}  // namespace

LocalShardCluster::LocalShardCluster(LocalShardClusterOptions options)
    : options_(std::move(options)) {
  PKGM_CHECK_GT(options_.num_shards, 0u);
}

LocalShardCluster::~LocalShardCluster() { Stop(); }

Status LocalShardCluster::Start() {
  if (started_) return Status::FailedPrecondition("cluster already started");
  started_ = true;
  pids_.assign(options_.num_shards, -1);
  endpoints_.assign(options_.num_shards, "");

  std::vector<std::string> port_files(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    port_files[s] =
        StrFormat("%s/shard_%u.port", options_.work_dir.c_str(),
                  static_cast<unsigned>(s));
    std::remove(port_files[s].c_str());

    std::vector<std::string> args;
    args.push_back(options_.psd_binary);
    args.push_back("--shard");
    args.push_back(StrFormat("%u", static_cast<unsigned>(s)));
    args.push_back("--num-shards");
    args.push_back(
        StrFormat("%u", static_cast<unsigned>(options_.num_shards)));
    args.push_back("--entities");
    args.push_back(StrFormat(
        "%u", static_cast<unsigned>(options_.model.num_entities)));
    args.push_back("--relations");
    args.push_back(StrFormat(
        "%u", static_cast<unsigned>(options_.model.num_relations)));
    args.push_back("--dim");
    args.push_back(
        StrFormat("%u", static_cast<unsigned>(options_.model.dim)));
    args.push_back("--scorer");
    args.push_back(ScorerName(options_.model.scorer));
    if (!options_.model.use_relation_module) {
      args.push_back("--no-relation-module");
    }
    args.push_back("--model-seed");
    args.push_back(StrFormat(
        "%llu", static_cast<unsigned long long>(options_.model.seed)));
    args.push_back("--optimizer");
    args.push_back(options_.optimizer == core::OptimizerKind::kAdam
                       ? "adam"
                       : "sgd");
    args.push_back("--lr");
    args.push_back(
        StrFormat("%.9g", static_cast<double>(options_.learning_rate)));
    if (!options_.normalize_entities) {
      args.push_back("--no-normalize-entities");
    }
    args.push_back("--io-threads");
    args.push_back(StrFormat("%zu", options_.io_threads));
    args.push_back("--port-file");
    args.push_back(port_files[s]);

    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = fork();
    if (pid < 0) {
      Stop();
      return Status::Internal("fork failed");
    }
    if (pid == 0) {
      execv(argv[0], argv.data());
      // exec only returns on failure; die loudly without running any
      // parent-process atexit machinery.
      std::fprintf(stderr, "execv %s failed\n", argv[0]);
      _exit(127);
    }
    pids_[s] = pid;
  }

  // Wait for every daemon to publish its bound port (write-then-rename, so
  // a readable file is always complete).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(kStartupTimeoutMs);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    for (;;) {
      const uint16_t port = ReadPortFile(port_files[s]);
      if (port != 0) {
        endpoints_[s] = StrFormat("127.0.0.1:%u", port);
        break;
      }
      int wstatus = 0;
      if (waitpid(pids_[s], &wstatus, WNOHANG) == pids_[s]) {
        pids_[s] = -1;
        Stop();
        return Status::Internal(StrFormat(
            "shard daemon %u exited during startup",
            static_cast<unsigned>(s)));
      }
      if (std::chrono::steady_clock::now() > deadline) {
        Stop();
        return Status::IoError(StrFormat(
            "shard daemon %u did not publish a port within %d ms",
            static_cast<unsigned>(s), kStartupTimeoutMs));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  return Status::Ok();
}

void LocalShardCluster::Stop() {
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    kill(pid, SIGTERM);
  }
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    int wstatus = 0;
    waitpid(pid, &wstatus, 0);
    pid = -1;
  }
}

}  // namespace pkgm::dist
