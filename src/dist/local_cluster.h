#ifndef PKGM_DIST_LOCAL_CLUSTER_H_
#define PKGM_DIST_LOCAL_CLUSTER_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "util/status.h"

namespace pkgm::dist {

struct LocalShardClusterOptions {
  /// Path to the pkgm_psd binary.
  std::string psd_binary;
  /// Scratch directory for port files (must exist).
  std::string work_dir;
  uint32_t num_shards = 2;
  /// Model + optimizer configuration, forwarded as pkgm_psd flags. All
  /// shards get identical flags (identical seed => identical init).
  core::PkgmModelOptions model;
  core::OptimizerKind optimizer = core::OptimizerKind::kSgd;
  float learning_rate = 0.02f;
  bool normalize_entities = true;
  size_t io_threads = 1;
};

/// Spawns one pkgm_psd shard daemon per shard on loopback ephemeral ports
/// (fork + exec), waits for the daemons' port files, and tears the fleet
/// down with SIGTERM on Stop() / destruction. This is what backs
/// `pkgm_tool train --distributed N`: single-host multi-process training
/// without hand-managing daemons.
class LocalShardCluster {
 public:
  explicit LocalShardCluster(LocalShardClusterOptions options);
  ~LocalShardCluster();

  LocalShardCluster(const LocalShardCluster&) = delete;
  LocalShardCluster& operator=(const LocalShardCluster&) = delete;

  /// Forks/execs every daemon and waits until all ports are published.
  /// On failure the already-started daemons are stopped.
  Status Start();

  /// SIGTERM + waitpid on every live daemon. Idempotent.
  void Stop();

  /// "127.0.0.1:<port>" per shard, in shard order. Valid after Start().
  const std::vector<std::string>& endpoints() const { return endpoints_; }

 private:
  const LocalShardClusterOptions options_;
  std::vector<pid_t> pids_;
  std::vector<std::string> endpoints_;
  bool started_ = false;
};

}  // namespace pkgm::dist

#endif  // PKGM_DIST_LOCAL_CLUSTER_H_
