#include "grad_check.h"

#include <algorithm>
#include <cmath>

namespace pkgm::nn {

namespace {

GradCheckResult CheckSpan(float* values, const float* analytic, size_t n,
                          const std::function<double()>& loss_fn,
                          double epsilon, size_t stride) {
  GradCheckResult result;
  for (size_t i = 0; i < n; i += stride) {
    const float saved = values[i];
    values[i] = saved + static_cast<float>(epsilon);
    const double plus = loss_fn();
    values[i] = saved - static_cast<float>(epsilon);
    const double minus = loss_fn();
    values[i] = saved;

    const double numeric = (plus - minus) / (2.0 * epsilon);
    const double a = static_cast<double>(analytic[i]);
    const double abs_err = std::fabs(numeric - a);
    const double denom = std::max(1.0, std::max(std::fabs(numeric), std::fabs(a)));
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
    ++result.checked;
  }
  return result;
}

}  // namespace

GradCheckResult CheckParameterGradient(Parameter* param,
                                       const std::function<double()>& loss_fn,
                                       double epsilon, size_t stride) {
  return CheckSpan(param->value.data(), param->grad.data(), param->size(),
                   loss_fn, epsilon, stride);
}

GradCheckResult CheckInputGradient(Mat* input, const Mat& analytic,
                                   const std::function<double()>& loss_fn,
                                   double epsilon, size_t stride) {
  return CheckSpan(input->data(), analytic.data(), input->size(), loss_fn,
                   epsilon, stride);
}

}  // namespace pkgm::nn
