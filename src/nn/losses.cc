#include "nn/losses.h"

#include <cmath>

#include "nn/activations.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace pkgm::nn {

float SoftmaxCrossEntropy(const Mat& logits,
                          const std::vector<uint32_t>& labels, Mat* dlogits) {
  PKGM_CHECK_EQ(logits.rows(), labels.size());
  const size_t b = logits.rows();
  const size_t c = logits.cols();
  PKGM_CHECK_GT(b, 0u);
  if (dlogits != nullptr &&
      (dlogits->rows() != b || dlogits->cols() != c)) {
    *dlogits = Mat(b, c);
  }
  const float inv_b = 1.0f / static_cast<float>(b);
  float loss = 0.0f;
  std::vector<float> probs(c);
  for (size_t i = 0; i < b; ++i) {
    PKGM_CHECK_LT(labels[i], c);
    const float* row = logits.Row(i);
    for (size_t j = 0; j < c; ++j) probs[j] = row[j];
    const float lse = LogSumExp(c, probs.data());
    loss += lse - row[labels[i]];
    if (dlogits != nullptr) {
      float* drow = dlogits->Row(i);
      for (size_t j = 0; j < c; ++j) {
        drow[j] = std::exp(row[j] - lse) * inv_b;
      }
      drow[labels[i]] -= inv_b;
    }
  }
  return loss * inv_b;
}

float BinaryCrossEntropyWithLogits(const Mat& logits,
                                   const std::vector<float>& labels,
                                   Mat* dlogits) {
  PKGM_CHECK_EQ(logits.rows(), labels.size());
  PKGM_CHECK_EQ(logits.cols(), 1u);
  const size_t b = logits.rows();
  PKGM_CHECK_GT(b, 0u);
  if (dlogits != nullptr && (dlogits->rows() != b || dlogits->cols() != 1)) {
    *dlogits = Mat(b, 1);
  }
  const float inv_b = 1.0f / static_cast<float>(b);
  float loss = 0.0f;
  for (size_t i = 0; i < b; ++i) {
    const float x = logits(i, 0);
    const float y = labels[i];
    // Stable form: max(x,0) - x*y + log(1 + exp(-|x|)).
    loss += std::max(x, 0.0f) - x * y + std::log1p(std::exp(-std::fabs(x)));
    if (dlogits != nullptr) {
      (*dlogits)(i, 0) = (SigmoidScalar(x) - y) * inv_b;
    }
  }
  return loss * inv_b;
}

}  // namespace pkgm::nn
