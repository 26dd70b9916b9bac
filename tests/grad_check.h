// Finite-difference gradient checks for the nn layers and TinyBert.
#ifndef PKGM_TESTS_GRAD_CHECK_H_
#define PKGM_TESTS_GRAD_CHECK_H_

#include <functional>

#include "nn/parameter.h"

namespace pkgm::nn {

/// Result of a finite-difference gradient verification.
struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  size_t checked = 0;
};

/// Verifies `param`'s accumulated analytic gradient against central finite
/// differences of `loss_fn` (which must recompute the full forward loss
/// from current parameter values and MUST NOT mutate gradients).
///
/// The caller is expected to have already populated param->grad via one
/// backward pass. `stride` subsamples entries for large tensors. `epsilon`
/// is the perturbation.
GradCheckResult CheckParameterGradient(
    Parameter* param, const std::function<double()>& loss_fn,
    double epsilon = 1e-3, size_t stride = 1);

/// Verifies an analytic input-gradient `analytic` (same shape as `*input`)
/// against finite differences of `loss_fn` w.r.t. `*input`.
GradCheckResult CheckInputGradient(Mat* input, const Mat& analytic,
                                   const std::function<double()>& loss_fn,
                                   double epsilon = 1e-3, size_t stride = 1);

}  // namespace pkgm::nn

#endif  // PKGM_TESTS_GRAD_CHECK_H_
