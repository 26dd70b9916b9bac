#ifndef PKGM_CORE_TRAINER_H_
#define PKGM_CORE_TRAINER_H_

#include <cstdint>
#include <vector>

#include "core/gradients.h"
#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "kg/triple_source.h"
#include "tensor/simd/kernel_dispatch.h"
#include "tensor/vec.h"
#include "util/rng.h"

namespace pkgm::core {

/// Which optimizer the trainer applies to the sparse gradients.
enum class OptimizerKind { kSgd, kAdam };

/// Training hyper-parameters (paper §III-A2: Adam, lr 1e-4, batch 1000,
/// d=64, 1 negative per edge, 2 epochs; defaults here are tuned for
/// laptop-scale graphs where more aggressive rates converge in seconds).
struct TrainerOptions {
  uint32_t batch_size = 512;
  float learning_rate = 0.02f;
  /// Margin gamma in the ranking loss (Eq. 4).
  float margin = 2.0f;
  OptimizerKind optimizer = OptimizerKind::kAdam;
  float adam_beta1 = 0.9f;
  float adam_beta2 = 0.999f;
  float adam_epsilon = 1e-8f;
  /// Project entity embeddings back onto the unit L2 ball after each batch
  /// (TransE's norm constraint).
  bool normalize_entities = true;
  /// Negative sampling configuration; num_entities/num_relations are filled
  /// from the model if left 0.
  NegativeSampler::Options negative;
  uint64_t seed = 13;
};

/// Per-epoch training telemetry.
struct EpochStats {
  double mean_hinge = 0.0;       ///< mean hinge over all pairs (0 = satisfied)
  uint64_t active_pairs = 0;     ///< pairs with a positive hinge
  uint64_t total_pairs = 0;
  double seconds = 0.0;
  double triples_per_second = 0.0;
};

/// Mini-batch trainer for PkgmModel on a fixed triple set. Single-threaded
/// reference implementation; see ShardedTrainer for the parameter-server
/// simulation. Adam state is kept lazily ("sparse Adam"): moments are dense
/// tables but only touched rows are updated, with bias correction from the
/// global step count.
///
/// The hot path draws a batch's negatives, runs FusedBatchHingeGradients
/// into a reusable flat GradArena, rebuilds each transfer gradient from its
/// factors into one scratch row and applies rows with the dispatched
/// axpy/adam_row kernels — no per-batch allocation, and for a fixed seed
/// two runs produce bit-identical embeddings (validation draws from its
/// own RNG stream, so interleaving EvaluateMeanHinge calls cannot perturb
/// the trajectory).
class Trainer {
 public:
  /// `model` and `store` must outlive the trainer. `store` doubles as the
  /// filter for negative sampling. Training iterates over `store`'s triples
  /// in the order AppendTriples presents them — so the in-memory store and
  /// a `.pkgt` index holding the same triples in the same order produce
  /// bit-identical trajectories for a fixed seed.
  Trainer(PkgmModel* model, const kg::TripleSource* store,
          const TrainerOptions& options);

  /// Runs one epoch (one shuffled pass over the training triples).
  EpochStats RunEpoch();

  /// Runs `n` epochs, returning stats of the last.
  EpochStats Train(uint32_t n);

  /// Mean hinge on an arbitrary triple list without updating parameters.
  /// Fresh negatives are drawn from a dedicated validation RNG, so calling
  /// this mid-training leaves the training trajectory untouched.
  double EvaluateMeanHinge(const std::vector<kg::Triple>& triples);

  uint64_t global_step() const { return step_; }

 private:
  void ApplyGradients(const GradArena& grad, float scale);

  PkgmModel* model_;
  const kg::TripleSource* store_;
  TrainerOptions options_;
  NegativeSampler sampler_;
  Rng rng_;
  Rng eval_rng_;
  uint64_t step_ = 0;  // batches applied, drives Adam bias correction

  const simd::KernelTable& kernels_;
  GradArena arena_;
  HingeWorkspace workspace_;  // EvaluateMeanHinge's per-pair scratch
  BatchHingeWorkspace batch_workspace_;
  TransferRebuildScratch rebuild_scratch_;
  std::vector<NegativeSample> negatives_;  // the current batch's
  std::vector<float> hinges_;

  // Lazy Adam moment tables (allocated only when optimizer == kAdam).
  Mat m_entities_, v_entities_;
  Mat m_relations_, v_relations_;
  Mat m_transfers_, v_transfers_;
  Mat m_hyperplanes_, v_hyperplanes_;
};

}  // namespace pkgm::core

#endif  // PKGM_CORE_TRAINER_H_
