#include "nn/optimizer.h"

#include <cmath>

#include "tensor/ops.h"

namespace pkgm::nn {

SgdOptimizer::SgdOptimizer(std::vector<Parameter*> params, float lr,
                           float weight_decay)
    : params_(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

void SgdOptimizer::Step() {
  for (Parameter* p : params_) {
    float* w = p->value.data();
    float* g = p->grad.data();
    const size_t n = p->size();
    for (size_t i = 0; i < n; ++i) {
      w[i] -= lr_ * (g[i] + weight_decay_ * w[i]);
      g[i] = 0.0f;
    }
  }
}

AdamOptimizer::AdamOptimizer(std::vector<Parameter*> params,
                             const Options& options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void AdamOptimizer::Step() {
  ++t_;
  const float b1 = options_.beta1;
  const float b2 = options_.beta2;
  const float alpha = AdamStepSize(options_.lr, b1, b2, t_);

  for (size_t k = 0; k < params_.size(); ++k) {
    Parameter* p = params_[k];
    float* w = p->value.data();
    float* g = p->grad.data();
    float* m = m_[k].data();
    float* v = v_[k].data();
    const size_t n = p->size();
    for (size_t i = 0; i < n; ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * g[i];
      v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
      w[i] -= alpha * m[i] / (std::sqrt(v[i]) + options_.epsilon) +
              options_.lr * options_.weight_decay * w[i];
      g[i] = 0.0f;
    }
  }
}

}  // namespace pkgm::nn
