// Portable reference kernels — the seed's scalar loops, kept bit-for-bit
// as the always-correct fallback every vector ISA is parity-tested
// against (tests/simd_kernels_test.cc).

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/simd/kernel_dispatch.h"
#include "tensor/simd/multi_loop.h"

namespace pkgm::simd {
namespace {

float ScalarDot(size_t n, const float* x, const float* y) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void ScalarAxpy(size_t n, float alpha, const float* x, float* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ScalarScale(size_t n, float alpha, float* x) {
  for (size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void ScalarAdd(size_t n, const float* x, const float* y, float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] + y[i];
}

void ScalarSub(size_t n, const float* x, const float* y, float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] - y[i];
}

void ScalarHadamard(size_t n, const float* x, const float* y, float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * y[i];
}

float ScalarL1Norm(size_t n, const float* x) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += std::fabs(x[i]);
  return acc;
}

float ScalarSquaredL2Norm(size_t n, const float* x) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += x[i] * x[i];
  return acc;
}

void ScalarSignOf(size_t n, const float* x, float* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
  }
}

float ScalarL1Distance(size_t n, const float* x, const float* y) {
  float acc = 0.0f;
  for (size_t i = 0; i < n; ++i) acc += std::fabs(x[i] - y[i]);
  return acc;
}

void ScalarL1DistanceBatch(const float* query, const float* rows,
                           size_t num_rows, size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = ScalarL1Distance(dim, query, rows + i * dim);
  }
}

void ScalarGemvRaw(size_t m, size_t n, const float* a, const float* x,
                   float* y) {
  for (size_t i = 0; i < m; ++i) y[i] = ScalarDot(n, a + i * n, x);
}

void ScalarResidual(size_t n, const float* x, const float* y, const float* z,
                    float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = (x[i] + y[i]) - z[i];
}

void ScalarGemvT(size_t m, size_t n, const float* a, const float* x,
                 float* y) {
  for (size_t j = 0; j < n; ++j) y[j] = 0.0f;
  for (size_t i = 0; i < m; ++i) ScalarAxpy(n, x[i], a + i * n, y);
}

void ScalarGer(size_t m, size_t n, float alpha, const float* x,
               const float* y, float* a) {
  for (size_t i = 0; i < m; ++i) {
    if (x[i] == 0.0f) continue;
    ScalarAxpy(n, alpha * x[i], y, a + i * n);
  }
}

void ScalarAdamRow(size_t n, const float* g, float gscale, float beta1,
                   float beta2, float alpha, float eps, float* row, float* m,
                   float* v) {
  for (size_t i = 0; i < n; ++i) {
    const float gi = g[i] * gscale;
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    row[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
  }
}

void ScalarGemmBias(size_t m, size_t k, size_t n, const float* a,
                    const float* b, const float* bias, float* c) {
  for (size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (size_t j = 0; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (size_t p = 0; p < k; ++p) ScalarAxpy(n, arow[p], b + p * n, crow);
    if (bias != nullptr) ScalarAxpy(n, 1.0f, bias, crow);
  }
}

void ScalarSoftmax(size_t n, float* x) {
  if (n == 0) return;
  float mx = x[0];
  for (size_t i = 1; i < n; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::exp(x[i] - mx);
    sum += x[i];
  }
  const float inv = 1.0f / sum;
  for (size_t i = 0; i < n; ++i) x[i] *= inv;
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      KernelIsa::kScalar, ScalarDot,           ScalarAxpy,
      ScalarScale,        ScalarAdd,           ScalarSub,
      ScalarHadamard,     ScalarL1Norm,        ScalarSquaredL2Norm,
      ScalarSignOf,       ScalarL1Distance,    ScalarL1DistanceBatch,
      ScalarGemvRaw,      ScalarResidual,      ScalarGemvT,
      ScalarGer,          internal::GemvTMultiLoop<ScalarGemvT>,
      internal::GerMultiLoop<ScalarGer>,       ScalarAdamRow,
      ScalarGemmBias,     ScalarSoftmax,
  };
  return table;
}

}  // namespace pkgm::simd
