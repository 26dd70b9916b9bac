#ifndef PKGM_CORE_EPOCH_ENGINE_H_
#define PKGM_CORE_EPOCH_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/gradients.h"
#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "kg/triple_source.h"
#include "util/rng.h"
#include "util/status.h"

namespace pkgm::core {

/// Per-epoch training telemetry.
struct EpochStats {
  double mean_hinge = 0.0;       ///< mean hinge over all pairs (0 = satisfied)
  uint64_t active_pairs = 0;     ///< pairs with a positive hinge
  uint64_t total_pairs = 0;
  double seconds = 0.0;
  double triples_per_second = 0.0;
};

/// One producer-filled mini-batch: its positives and their pre-drawn
/// negatives. Batches are recycled, so the vectors keep their capacity
/// across the epoch.
struct PairBatch {
  size_t index = 0;  ///< position in the epoch's batch order
  std::vector<kg::Triple> pos;
  std::vector<NegativeSample> neg;
};

/// The per-batch hooks of one engine worker thread: the in-process trainer
/// applies rows to the shared model, the distributed one pulls before each
/// batch and pushes after it. Only that thread calls them.
class EpochWorker {
 public:
  virtual ~EpochWorker() = default;
  /// Before the batch's forward/backward.
  virtual Status Prepare(const PairBatch&) { return Status::Ok(); }
  /// Names the batch this worker runs next, after Prepare of the current
  /// one and before its forward/backward: the distributed worker starts
  /// that batch's pull here, so the round trip overlaps the current batch.
  /// The next Prepare is for `next`.
  virtual Status Prefetch(const PairBatch& /*next*/) { return Status::Ok(); }
  /// Whether the worker takes the batch's transfer-matrix factors group by
  /// group through ApplyTransferGroup. Otherwise (the default) they reach
  /// Apply in grad.transfer_factors().
  virtual bool TakesTransferGroups() const { return false; }
  /// One relation group's factors, handed over by the batch's backward
  /// (FusedBatchHingeGradients' take_group) right after the group's
  /// M_r^T s' has read M_r, so an update of M_r made here finds it in L1.
  /// `scale` is the one Apply gets, and Apply follows in the same batch.
  virtual void ApplyTransferGroup(const FactorGroup& /*group*/,
                                  float /*scale*/) {}
  /// Applies the batch's gradients, each row multiplied by `scale`
  /// (1 / batch size). Called only when `grad` is not empty, which it is
  /// whenever a pair was active.
  virtual Status Apply(const GradArena& grad, float scale) = 0;
  /// Once the work queue has drained, also after an error.
  virtual Status Finish() { return Status::Ok(); }
};

/// What one epoch trains and how the work is split.
struct EpochPlan {
  const PkgmModel* model = nullptr;  ///< the parameters the workers read
  const kg::TripleSource* store = nullptr;
  const NegativeSampler* sampler = nullptr;
  uint32_t batch_size = 512;
  float margin = 2.0f;
  uint32_t num_workers = 1;
  /// Multi-process data parallelism: this process trains batch b iff
  /// b % num_procs == proc.
  uint32_t proc = 0;
  uint32_t num_procs = 1;
};

/// Runs one pipelined hogwild epoch, the one epoch loop of every trainer:
///
///   * the store's triples are shuffled with `epoch_rng`, which is then
///     forked once for the producer thread. The producer draws the
///     negatives of this process's batches in batch order into recycled
///     batches (three per worker), so the (pos, neg) stream is fixed by the
///     seed whatever the scheduling. Other processes' batches are skipped
///     without drawing: every process's `epoch_rng` advances alike, so
///     their next shuffles agree and the slices keep covering each triple
///     exactly once per epoch.
///   * plan.num_workers threads, each with a worker from `make_worker`, its
///     own GradArena and BatchHingeWorkspace, take batches one ahead:
///     Prepare(b), take the next batch and Prefetch it, one
///     FusedBatchHingeGradients of b on plan.model (handing each transfer
///     group to ApplyTransferGroup when the worker takes them), Apply when
///     any pair was active, then the same for the next batch. A worker
///     holds at most two batches, so the third keeps the producer ahead. A
///     worker whose hook fails keeps recycling batches without running
///     them, so the producer never starves.
///   * per-batch hinge sums and counts land in batch-indexed slots, merged
///     in batch order, so the stats do not depend on scheduling.
///
/// Returns the first error of the lowest-numbered failing worker; `stats`
/// then holds no meaningful figures.
Status RunPipelinedEpoch(
    const EpochPlan& plan, Rng* epoch_rng,
    const std::function<std::unique_ptr<EpochWorker>()>& make_worker,
    EpochStats* stats);

/// `neg` with num_entities / num_relations filled from `model` where 0.
NegativeSampler::Options FillNegativeOptions(NegativeSampler::Options neg,
                                             const PkgmModel& model);

/// Mean hinge of `triples` against fresh negatives drawn from `rng`,
/// updating nothing; 0 for an empty list. Runs the batch engine without
/// gradients over chunks of 512 triples; the result and the draws from
/// `rng` equal a per-triple Sample + FusedHingeGradients loop's.
double MeanHinge(const PkgmModel& model, const NegativeSampler& sampler,
                 const std::vector<kg::Triple>& triples, float margin,
                 Rng* rng);

/// The validation stream of a trainer seeded `seed`: derived from, but
/// independent of, the training stream, so evaluating mid-training leaves
/// the trajectory untouched, and the in-process and distributed trainers
/// draw the same negatives.
inline Rng EvalRng(uint64_t seed) {
  return Rng(seed ^ UINT64_C(0xBADD1CE5FEEDFACE));
}

}  // namespace pkgm::core

#endif  // PKGM_CORE_EPOCH_ENGINE_H_
