#include "tensor/ops.h"

#include <cmath>

#include "tensor/simd/kernel_dispatch.h"
#include "util/logging.h"

namespace pkgm {

// BLAS-1/2 entry points delegate to the runtime-selected kernel table
// (scalar reference, AVX2+FMA, AVX-512 or NEON — see
// tensor/simd/kernel_dispatch.h). The blocked BLAS-3 routines below build
// on Axpy/Dot and inherit the same dispatch.

void Axpy(size_t n, float alpha, const float* x, float* y) {
  simd::Active().axpy(n, alpha, x, y);
}

void Scale(size_t n, float alpha, float* x) {
  simd::Active().scale(n, alpha, x);
}

void Sub(size_t n, const float* x, const float* y, float* out) {
  simd::Active().sub(n, x, y, out);
}

void Add(size_t n, const float* x, const float* y, float* out) {
  simd::Active().add(n, x, y, out);
}

float Dot(size_t n, const float* x, const float* y) {
  return simd::Active().dot(n, x, y);
}

float L1Norm(size_t n, const float* x) { return simd::Active().l1_norm(n, x); }

float L2Norm(size_t n, const float* x) { return std::sqrt(SquaredL2Norm(n, x)); }

float SquaredL2Norm(size_t n, const float* x) {
  return simd::Active().squared_l2_norm(n, x);
}

void SignOf(size_t n, const float* x, float* out) {
  simd::Active().sign_of(n, x, out);
}

float ProjectToUnitBall(size_t n, float* x) {
  float norm = L2Norm(n, x);
  if (norm > 1.0f) {
    Scale(n, 1.0f / norm, x);
  }
  return norm;
}

void Hadamard(size_t n, const float* x, const float* y, float* out) {
  simd::Active().hadamard(n, x, y, out);
}

float L1Distance(size_t n, const float* x, const float* y) {
  return simd::Active().l1_distance(n, x, y);
}

void L1DistanceBatch(const float* query, const float* rows, size_t num_rows,
                     size_t dim, float* out) {
  simd::Active().l1_distance_batch(query, rows, num_rows, dim, out);
}

void GemvRaw(size_t m, size_t n, const float* a, const float* x, float* y) {
  simd::Active().gemv_raw(m, n, a, x, y);
}

void GemvTransposedRaw(size_t m, size_t n, const float* a, const float* x,
                       float* y) {
  simd::Active().gemv_t(m, n, a, x, y);
}

void Gemv(const Mat& a, const float* x, float* y) {
  const size_t m = a.rows(), n = a.cols();
  for (size_t i = 0; i < m; ++i) {
    y[i] = Dot(n, a.Row(i), x);
  }
}

void GemvTransposed(const Mat& a, const float* x, float* y) {
  const size_t m = a.rows(), n = a.cols();
  for (size_t j = 0; j < n; ++j) y[j] = 0.0f;
  for (size_t i = 0; i < m; ++i) {
    Axpy(n, x[i], a.Row(i), y);
  }
}

void Ger(Mat* a, float alpha, const float* x, const float* y) {
  simd::Active().ger(a->rows(), a->cols(), alpha, x, y, a->data());
}

void Gemm(const Mat& a, const Mat& b, Mat* c) {
  PKGM_CHECK_EQ(a.cols(), b.rows());
  PKGM_CHECK_EQ(c->rows(), a.rows());
  PKGM_CHECK_EQ(c->cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  c->Zero();
  // ikj loop order: streams over B and C rows for cache friendliness.
  for (size_t i = 0; i < m; ++i) {
    float* crow = c->Row(i);
    const float* arow = a.Row(i);
    for (size_t p = 0; p < k; ++p) {
      Axpy(n, arow[p], b.Row(p), crow);
    }
  }
}

void GemmAtbAccum(const Mat& a, const Mat& b, Mat* c) {
  PKGM_CHECK_EQ(a.rows(), b.rows());
  PKGM_CHECK_EQ(c->rows(), a.cols());
  PKGM_CHECK_EQ(c->cols(), b.cols());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  for (size_t p = 0; p < k; ++p) {
    const float* arow = a.Row(p);
    const float* brow = b.Row(p);
    for (size_t i = 0; i < m; ++i) {
      Axpy(n, arow[i], brow, c->Row(i));
    }
  }
}

void GemmAbt(const Mat& a, const Mat& b, Mat* c) {
  PKGM_CHECK_EQ(a.cols(), b.cols());
  PKGM_CHECK_EQ(c->rows(), a.rows());
  PKGM_CHECK_EQ(c->cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  for (size_t i = 0; i < m; ++i) {
    float* crow = c->Row(i);
    const float* arow = a.Row(i);
    for (size_t j = 0; j < n; ++j) {
      crow[j] = Dot(k, arow, b.Row(j));
    }
  }
}

void GemmBiasRaw(size_t m, size_t k, size_t n, const float* a, const float* b,
                 const float* bias, float* c) {
  simd::Active().gemm_bias(m, k, n, a, b, bias, c);
}

void SoftmaxInplace(size_t n, float* x) { simd::Active().softmax(n, x); }

float AdamStepSize(float lr, float beta1, float beta2, uint64_t t) {
  const float corr1 =
      1.0f - static_cast<float>(std::pow(beta1, static_cast<double>(t)));
  const float corr2 =
      1.0f - static_cast<float>(std::pow(beta2, static_cast<double>(t)));
  return lr * std::sqrt(corr2) / corr1;
}

float LogSumExp(size_t n, const float* x) {
  PKGM_CHECK_GT(n, 0u);
  float mx = x[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) sum += std::exp(x[i] - mx);
  return mx + std::log(sum);
}

}  // namespace pkgm
