#ifndef PKGM_CORE_SHARDED_TRAINER_H_
#define PKGM_CORE_SHARDED_TRAINER_H_

// Compatibility spelling of the multi-worker Trainer for code written
// against the former ShardedTrainer; new code uses Trainer directly.

#include "core/trainer.h"

namespace pkgm::core {

/// TrainerOptions with the former ShardedTrainer's defaults: 4 workers,
/// SGD, seed 17.
struct ShardedTrainerOptions : TrainerOptions {
  ShardedTrainerOptions() {
    num_workers = 4;
    optimizer = OptimizerKind::kSgd;
    seed = 17;
  }
};

using ShardedTrainer = Trainer;

}  // namespace pkgm::core

#endif  // PKGM_CORE_SHARDED_TRAINER_H_
