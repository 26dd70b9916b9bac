#ifndef PKGM_CORE_TRAINER_H_
#define PKGM_CORE_TRAINER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/epoch_engine.h"
#include "core/gradients.h"
#include "core/negative_sampler.h"
#include "core/optimizer.h"
#include "core/pkgm_model.h"
#include "kg/triple_source.h"
#include "util/rng.h"

namespace pkgm::core {

/// Training hyper-parameters (paper §III-A2: Adam, lr 1e-4, batch 1000,
/// d=64, 1 negative per edge, 2 epochs; defaults here are tuned for
/// laptop-scale graphs where more aggressive rates converge in seconds).
struct TrainerOptions : OptimizerOptions {
  /// Hogwild worker threads sharing the model.
  uint32_t num_workers = 1;
  uint32_t batch_size = 512;
  /// Margin gamma in the ranking loss (Eq. 4).
  float margin = 2.0f;
  /// Negative sampling configuration; num_entities/num_relations are filled
  /// from the model if left 0.
  NegativeSampler::Options negative;
  uint64_t seed = 13;
};

/// Mini-batch trainer for PkgmModel on a fixed triple set, in process: the
/// paper's parameter-server training (§III-A2: 50 parameter servers + 200
/// workers) with the model as the one server and num_workers hogwild
/// threads, at any worker count with SGD or Adam.
///
/// Each epoch runs RunPipelinedEpoch over the model. Workers read
/// parameters unlocked, so they see slightly stale values (the
/// asynchronous PS regime), and publish each row through the RowOptimizer
/// under a striped spinlock (cache-line-sized stripes hashed by table and
/// row id), the row's Adam moments under the same stripe. A transfer
/// matrix is updated inside the batch's backward, as soon as its relation
/// group's factors are known: under SGD straight from the factors
/// (ApplyTransferGroup), under Adam rebuilt before its lock is taken. With
/// one worker the locks are uncontended, and for a fixed seed two runs
/// produce bit-identical embeddings; validation draws from its own RNG
/// stream, so interleaving EvaluateMeanHinge calls cannot perturb the
/// trajectory.
class Trainer {
 public:
  /// `model` and `store` must outlive the trainer. `store` doubles as the
  /// filter for negative sampling. Training iterates over `store`'s triples
  /// in the order AppendTriples presents them — so the in-memory store and
  /// a `.pkgt` index holding the same triples in the same order produce
  /// bit-identical trajectories for a fixed seed.
  Trainer(PkgmModel* model, const kg::TripleSource* store,
          const TrainerOptions& options);
  ~Trainer();

  /// Runs one epoch (one shuffled pass over the training triples). The
  /// first call allocates Adam's moments, so a trainer used only for
  /// EvaluateMeanHinge holds no optimizer state.
  EpochStats RunEpoch();

  /// Runs `n` epochs, returning stats of the last.
  EpochStats Train(uint32_t n);

  /// Mean hinge on an arbitrary triple list without updating parameters.
  /// Fresh negatives are drawn from a dedicated validation RNG, so calling
  /// this mid-training leaves the training trajectory untouched.
  double EvaluateMeanHinge(const std::vector<kg::Triple>& triples);

  /// Batches applied so far.
  uint64_t global_step() const { return optimizer_.step(); }

 private:
  class LocalWorker;
  struct Stripe;

  PkgmModel* model_;
  const kg::TripleSource* store_;
  TrainerOptions options_;
  NegativeSampler sampler_;
  Rng rng_;
  Rng eval_rng_;
  RowOptimizer optimizer_;
  std::unique_ptr<Stripe[]> stripes_;
};

}  // namespace pkgm::core

#endif  // PKGM_CORE_TRAINER_H_
