// The readable reference implementation of the hinge gradients: a
// map-of-vectors sparse accumulator and a per-triple backward in plain
// tensor ops. The trainers run GradArena + FusedBatchHingeGradients
// (core/gradients.h); this is the oracle their parity tests and the
// finite-difference checks of the joint hinge compare against.
#ifndef PKGM_TESTS_REFERENCE_GRADIENTS_H_
#define PKGM_TESTS_REFERENCE_GRADIENTS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/pkgm_model.h"
#include "kg/triple.h"

namespace pkgm::core {

/// Map-of-vectors sparse gradient accumulator: one zero-initialized row
/// per touched parameter id, per table.
class SparseGrad {
 public:
  /// Gradient row for an entity embedding; zero-initialized on first access.
  std::vector<float>& Entity(uint32_t id, uint32_t dim);
  /// Gradient row for a relation embedding.
  std::vector<float>& Relation(uint32_t id, uint32_t dim);
  /// Gradient row for a transfer matrix (dim*dim floats).
  std::vector<float>& Transfer(uint32_t id, uint32_t dim);
  /// Gradient row for a TransH hyperplane normal.
  std::vector<float>& Hyperplane(uint32_t id, uint32_t dim);

  const std::unordered_map<uint32_t, std::vector<float>>& entities() const {
    return entities_;
  }
  const std::unordered_map<uint32_t, std::vector<float>>& relations() const {
    return relations_;
  }
  const std::unordered_map<uint32_t, std::vector<float>>& transfers() const {
    return transfers_;
  }
  const std::unordered_map<uint32_t, std::vector<float>>& hyperplanes() const {
    return hyperplanes_;
  }

  void Clear();
  bool empty() const {
    return entities_.empty() && relations_.empty() && transfers_.empty() &&
           hyperplanes_.empty();
  }

 private:
  std::unordered_map<uint32_t, std::vector<float>> entities_;
  std::unordered_map<uint32_t, std::vector<float>> relations_;
  std::unordered_map<uint32_t, std::vector<float>> transfers_;
  std::unordered_map<uint32_t, std::vector<float>> hyperplanes_;
};

/// Computes the margin-ranking hinge for one (positive, negative) pair
/// (Eq. 4): L = max(0, f(pos) + margin - f(neg)), and — when the hinge is
/// active and `grad` is non-null — accumulates d L / d params into `grad`.
/// Returns the hinge value.
///
/// Exact subgradients of the L1-based scores:
///   f_T = ||h + r - t||_1, s = sign(h + r - t):
///       dh += s, dr += s, dt -= s
///   f_R = ||M_r h - r||_1, u = M_r h - r, s' = sign(u):
///       dM_r += s' h^T, dh += M_r^T s', dr -= s'
/// with overall sign +1 for the positive triple and -1 for the negative.
float AccumulateHingeGradients(const PkgmModel& model, const kg::Triple& pos,
                               const kg::Triple& neg, float margin,
                               SparseGrad* grad);

}  // namespace pkgm::core

#endif  // PKGM_TESTS_REFERENCE_GRADIENTS_H_
