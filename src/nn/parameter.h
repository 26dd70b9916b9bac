#ifndef PKGM_NN_PARAMETER_H_
#define PKGM_NN_PARAMETER_H_

#include <string>
#include <vector>

#include "tensor/vec.h"

namespace pkgm::nn {

/// A trainable tensor: value plus accumulated gradient of identical shape.
/// Layers register their parameters so optimizers can iterate over them.
struct Parameter {
  std::string name;
  Mat value;
  Mat grad;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  size_t rows() const { return value.rows(); }
  size_t cols() const { return value.cols(); }
  size_t size() const { return value.size(); }

  void ZeroGrad() { grad.Zero(); }
};

/// Convenience: zeroes the gradients of every parameter in the list.
void ZeroAllGrads(const std::vector<Parameter*>& params);

}  // namespace pkgm::nn

#endif  // PKGM_NN_PARAMETER_H_
