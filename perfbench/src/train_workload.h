// train_local and train_ps: repeated fixed-length pre-training jobs on the
// bench-scale synthetic PKG, in-process (ShardedTrainer) or against two
// spawned pkgm_psd shards (DistTrainer).
#ifndef PERFBENCH_TRAIN_WORKLOAD_H_
#define PERFBENCH_TRAIN_WORKLOAD_H_

#include "bench.h"

namespace pkgm::perfbench {

struct TrainPassOptions {
  /// DistTrainer against pkgm_psd shards instead of ShardedTrainer.
  bool distributed = false;
  /// Jobs are started until their quiet epochs (see kStealCeiling) add up
  /// to this many seconds and `min_jobs` set-ups were quiet (setup_s is
  /// their median), or, once `min_jobs` have run, until kMaxWantFactor
  /// times `seconds` have passed.
  double seconds = 10.0;
  int min_jobs = 3;
};

/// One pass of repeated jobs. Untraced: the end-to-end metrics. Traced:
/// also epoch spans and the layer counters; a traced distributed pass also
/// runs the training-side replays (sampling, fused forward/backward, push
/// and pull codecs, shard round trips) on its first job's trained model.
PassResult RunTrainPass(const RunOptions& run, const TrainPassOptions& opts,
                        const TraceContext& trace);

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_TRAIN_WORKLOAD_H_
