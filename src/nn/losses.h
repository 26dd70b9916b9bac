#ifndef PKGM_NN_LOSSES_H_
#define PKGM_NN_LOSSES_H_

#include <cstdint>
#include <vector>

#include "tensor/vec.h"

namespace pkgm::nn {

/// Mean softmax cross-entropy over a batch of logits (B x C) and integer
/// labels (size B). Writes dL/dlogits (already divided by B) into `dlogits`
/// when non-null. Returns the mean loss.
float SoftmaxCrossEntropy(const Mat& logits, const std::vector<uint32_t>& labels,
                          Mat* dlogits);

/// Mean binary cross-entropy with logits over a batch (B x 1 logits,
/// labels in {0,1}). Numerically stable log-sum-exp form. Writes
/// dL/dlogits into `dlogits` when non-null. Returns the mean loss.
float BinaryCrossEntropyWithLogits(const Mat& logits,
                                   const std::vector<float>& labels,
                                   Mat* dlogits);

}  // namespace pkgm::nn

#endif  // PKGM_NN_LOSSES_H_
