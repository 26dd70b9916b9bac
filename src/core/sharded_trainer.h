#ifndef PKGM_CORE_SHARDED_TRAINER_H_
#define PKGM_CORE_SHARDED_TRAINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/gradients.h"
#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "kg/triple_source.h"
#include "tensor/simd/kernel_dispatch.h"

namespace pkgm::core {

/// Distributed-training simulation of the paper's infrastructure (§III-A2:
/// 50 parameter servers + 200 workers on TensorFlow/Graph-learn), run as a
/// pipelined hogwild epoch:
///
///   * A producer thread shuffles the epoch's triples and draws filtered
///     negatives in batch order into a bounded queue of recycled batches
///     (double-buffered per worker), so sampling overlaps gradient compute
///     and the (pos, neg) pair stream is deterministic for a fixed seed
///     regardless of worker scheduling.
///   * Workers pop batches, accumulate gradients in a private flat
///     GradArena via the fused SIMD hinge kernels, and publish each row to
///     the shared model under a striped spinlock (cache-line-sized stripes
///     hashed by table + row id) — no per-batch shard-mutex convoy. A
///     transfer gradient is rebuilt from its factors before its lock is
///     taken.
///     Parameter reads stay unlocked, so workers see slightly stale values:
///     the asynchronous PS training regime.
///   * Per-batch hinge/active counts land in slots indexed by batch id and
///     are reduced in batch order after the join, so epoch stats merge
///     deterministically (independent of which worker ran which batch).
struct ShardedTrainerOptions {
  uint32_t num_workers = 4;
  uint32_t batch_size = 512;
  float learning_rate = 0.02f;
  float margin = 2.0f;
  bool normalize_entities = true;
  NegativeSampler::Options negative;
  uint64_t seed = 17;
};

class ShardedTrainer {
 public:
  /// `model` and `store` must outlive the trainer.
  ShardedTrainer(PkgmModel* model, const kg::TripleSource* store,
                 const ShardedTrainerOptions& options);

  /// One pipelined asynchronous epoch across all workers.
  EpochStats RunEpoch();

  /// Runs n epochs, returning the last epoch's stats.
  EpochStats Train(uint32_t n);

  /// Number of row-lock stripes (power of two; exposed for tests).
  size_t num_stripes() const { return stripe_mask_ + 1; }

 private:
  // One cache line per stripe so contending row locks never false-share.
  struct alignas(64) Stripe {
    std::atomic<bool> locked{false};
  };

  size_t StripeOf(uint32_t table_tag, uint32_t row) const;
  void LockStripe(Stripe& s);
  void ApplyWorkerGradients(const GradArena& grad, float scale,
                            TransferRebuildScratch* scratch);

  PkgmModel* model_;
  const kg::TripleSource* store_;
  ShardedTrainerOptions options_;
  NegativeSampler sampler_;
  Rng epoch_rng_;
  const simd::KernelTable& kernels_;
  std::unique_ptr<Stripe[]> stripes_;
  size_t stripe_mask_ = 0;
};

}  // namespace pkgm::core

#endif  // PKGM_CORE_SHARDED_TRAINER_H_
