#ifndef PKGM_CORE_OPTIMIZER_H_
#define PKGM_CORE_OPTIMIZER_H_

#include <atomic>
#include <cstdint>
#include <utility>

#include "core/pkgm_model.h"
#include "tensor/simd/kernel_dispatch.h"
#include "tensor/vec.h"

namespace pkgm::core {

/// Which optimizer applies the sparse gradients.
enum class OptimizerKind { kSgd, kAdam };

/// The optimizer's settings, shared by the in-process trainer's and a
/// parameter-server shard's options.
struct OptimizerOptions {
  OptimizerKind optimizer = OptimizerKind::kAdam;
  float learning_rate = 0.02f;
  float adam_beta1 = 0.9f;
  float adam_beta2 = 0.999f;
  float adam_epsilon = 1e-8f;
  /// Project an entity embedding back onto the unit L2 ball after each
  /// update (TransE's norm constraint); a TransH hyperplane normal is
  /// always renormalized.
  bool normalize_entities = true;
};

/// One step's constants, computed once by RowOptimizer::BeginStep and
/// shared by every row of the step.
struct OptimizerStep {
  float scale = 1.0f;       ///< multiplies every gradient (1 / batch size)
  float sgd_alpha = 0.0f;   ///< SGD: row += sgd_alpha * g (-lr * scale)
  float adam_alpha = 0.0f;  ///< Adam: the bias-corrected step size
};

/// SGD or Adam applied row by row to a PkgmModel's tables: the one
/// optimizer both the in-process Trainer and a parameter-server shard apply
/// through, so one worker pushing synchronously to one shard reproduces the
/// in-process trajectory bit for bit. Adam is "sparse Adam": the moment
/// tables are dense, but only applied rows are updated, with bias
/// correction from the step count.
class RowOptimizer {
 public:
  /// `model` must outlive the optimizer.
  RowOptimizer(PkgmModel* model, const OptimizerOptions& options);

  /// Allocates Adam's moment tables for the model's shape, once; a no-op
  /// under SGD. Call before any concurrent ApplyRow.
  void AllocateMoments();

  /// Counts one step and returns its constants; the step's number (1 for
  /// the first) drives Adam's bias correction.
  OptimizerStep BeginStep(float scale);

  /// Applies gradient row `g` to row `id` of `table` (and updates its Adam
  /// moment rows), then renormalizes it if it is an entity or hyperplane
  /// row. Calls on distinct rows may run concurrently; the caller
  /// serializes calls on one row.
  void ApplyRow(const OptimizerStep& step, ParamTable table, uint32_t id,
                const float* g);

  /// Steps begun so far.
  uint64_t step() const { return step_.load(std::memory_order_relaxed); }

  /// Adam's first and second moment rows for row `id` of `table`, or
  /// nullptrs under SGD or before AllocateMoments.
  std::pair<const float*, const float*> Moments(ParamTable table,
                                                uint32_t id) const;

 private:
  PkgmModel* model_;
  const simd::KernelTable& kernels_;
  const OptimizerOptions options_;
  std::atomic<uint64_t> step_{0};
  // Per table, in ParamTable order; empty until AllocateMoments.
  Mat m_[4], v_[4];
};

// Inline: it runs once per applied row, inside the trainer's row lock.
inline void RowOptimizer::ApplyRow(const OptimizerStep& step,
                                   ParamTable table, uint32_t id,
                                   const float* g) {
  Mat& rows = model_->table(table);
  float* row = rows.Row(id);
  if (options_.optimizer == OptimizerKind::kAdam) {
    const size_t t = static_cast<size_t>(table);
    kernels_.adam_row(rows.cols(), g, step.scale, options_.adam_beta1,
                      options_.adam_beta2, step.adam_alpha,
                      options_.adam_epsilon, row, m_[t].Row(id),
                      v_[t].Row(id));
  } else {
    kernels_.axpy(rows.cols(), step.sgd_alpha, g, row);
  }
  if (table == ParamTable::kEntity && options_.normalize_entities) {
    model_->NormalizeEntity(id);
  } else if (table == ParamTable::kHyperplane) {
    model_->NormalizeHyperplane(id);
  }
}

}  // namespace pkgm::core

#endif  // PKGM_CORE_OPTIMIZER_H_
