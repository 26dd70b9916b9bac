#include "core/optimizer.h"

#include "tensor/ops.h"

namespace pkgm::core {

RowOptimizer::RowOptimizer(PkgmModel* model, const OptimizerOptions& options)
    : model_(model), kernels_(simd::Active()), options_(options) {}

void RowOptimizer::AllocateMoments() {
  if (options_.optimizer != OptimizerKind::kAdam || m_[0].size() > 0) return;
  for (uint32_t t = 0; t < 4; ++t) {
    const Mat& table = model_->table(static_cast<ParamTable>(t));
    m_[t] = Mat(table.rows(), table.cols());
    v_[t] = Mat(table.rows(), table.cols());
  }
}

OptimizerStep RowOptimizer::BeginStep(float scale) {
  const uint64_t t = step_.fetch_add(1) + 1;
  OptimizerStep step;
  step.scale = scale;
  step.sgd_alpha = -options_.learning_rate * scale;
  if (options_.optimizer == OptimizerKind::kAdam) {
    step.adam_alpha = AdamStepSize(options_.learning_rate, options_.adam_beta1,
                                   options_.adam_beta2, t);
  }
  return step;
}

std::pair<const float*, const float*> RowOptimizer::Moments(
    ParamTable table, uint32_t id) const {
  const size_t t = static_cast<size_t>(table);
  if (m_[t].size() == 0) return {};
  return {m_[t].Row(id), v_[t].Row(id)};
}

}  // namespace pkgm::core
