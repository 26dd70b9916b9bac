// serve_mixed: two closed-loop callers against a freshly spawned
// `pkgm_netd --infer 1`, plus the in-process replica that checks its
// answers and serves as the no-transport baseline.
#ifndef PERFBENCH_SERVE_WORKLOAD_H_
#define PERFBENCH_SERVE_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.h"
#include "infer/engine.h"
#include "infer/registry.h"
#include "serve/knowledge_server.h"
#include "serve/request.h"
#include "tasks/pipeline.h"

namespace pkgm::perfbench {

/// The daemon's serving stack rebuilt in-process from the daemon's own
/// seeds (ServePipelineOptions(2021), inference seed 2121), so its answers
/// must equal the daemon's bit for bit.
struct ServeReplica {
  tasks::PretrainedPkgm pipeline;
  infer::InferModelRegistry models;
  std::unique_ptr<infer::InferenceEngine> engine;
  std::unique_ptr<serve::KnowledgeServer> server;
  uint32_t num_items = 0;
  uint32_t num_users = 0;
  /// Mean hinge of the served PKGM over its training triples, negatives
  /// drawn from the run's seed.
  double served_model_hinge = 0.0;

  ~ServeReplica();
};

std::unique_ptr<ServeReplica> BuildServeReplica(uint64_t seed);

/// The benchmark's request mix for one caller: 40/20/20/20
/// lookup/recommend/classify/align, items Zipf(1.1) over the catalog,
/// users uniform, classify top-3, align's second item from the same Zipf.
std::vector<serve::ServiceRequest> GenerateMix(uint64_t seed, uint32_t caller,
                                               size_t count,
                                               uint32_t num_items,
                                               uint32_t num_users);

struct ServePassOptions {
  /// The window runs until its quiet slices (see kStealCeiling) add up to
  /// this many seconds, or kMaxWantFactor times as long.
  double window_seconds = 10.0;
  /// Quiet daemon launches timed for setup_s, out of at most kMaxWantFactor
  /// times as many; the last launch serves the load.
  int launches = 5;
};

/// One serve_mixed pass. Untraced: the end-to-end metrics. Traced: also
/// the client spans, the daemon's StatsJson deltas and the no-transport
/// replay behind net.transport_us_p50.
PassResult RunServePass(const RunOptions& run, const ServePassOptions& opts,
                        ServeReplica* replica, const TraceContext& trace);

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_SERVE_WORKLOAD_H_
