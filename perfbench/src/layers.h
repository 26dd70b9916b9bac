// Replays of recorded inputs through single layers' public functions. Each
// call (or each timed loop of calls, for nanosecond-scale functions) is a
// span; the per-layer metrics are read back from those spans.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"
#include "core/pkgm_model.h"
#include "kg/triple_source.h"
#include "net/net_client.h"
#include "serve_workload.h"

namespace pkgm::perfbench {

/// Wire request/reply codecs over a recorded mix, inference forwards and
/// uncached condensed-vector assembly on the replica.
void ReplayServeLayers(ServeReplica* replica, uint64_t seed,
                       const TraceContext& trace, PassResult* result);

struct TrainReplayInputs {
  const kg::TripleSource* kg = nullptr;
  const core::PkgmModel* model = nullptr;
  /// A live connection to shard 0 of `num_shards`.
  net::NetClient* shard0 = nullptr;
  uint32_t num_shards = 2;
  uint32_t batch_size = 512;
  float margin = 2.0f;
  uint64_t seed = 1;
};

/// Negative sampling and fused forward/backward on recorded batches, the
/// push/pull codecs on their gradient arenas and row sets, and PullRows /
/// zero-scale PushGrads round trips to a live shard. Sets
/// core.rows_per_batch in result->metrics.
void ReplayTrainLayers(const TrainReplayInputs& in, const TraceContext& trace,
                       PassResult* result);

/// The kernel table at the workloads' shapes: d=64 PKGM rows, and the
/// 20x32x32 linear layers of the served TinyBERT.
void ReplayKernels(const TraceContext& trace);

/// The per-layer metrics the replays' spans give.
std::map<std::string, double> ReplayMetrics(const Tracer& tracer);

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_LAYERS_H_
