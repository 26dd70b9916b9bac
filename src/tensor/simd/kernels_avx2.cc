// AVX2+FMA kernels (8-wide fp32). This translation unit is compiled with
// -mavx2 -mfma (see tensor/CMakeLists.txt); the dispatcher only hands the
// table out when the running CPU reports both features.
//
// Reductions use four independent 8-lane accumulators over 32-element
// chunks, then an 8-wide loop, then a scalar tail — so sums are
// reassociated relative to the scalar reference (parity tests allow a
// small relative tolerance), but every function is deterministic for
// given input, and the batch/gemv entry points reuse the single-row
// functions so blocked and per-candidate scoring agree bit-for-bit.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/simd/kernel_dispatch.h"
#include "tensor/simd/multi_loop.h"

namespace pkgm::simd {
namespace internal {
namespace {

inline __m256 Abs256(__m256 v) {
  return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
}

inline float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

float Avx2Dot(size_t n, const float* x, const float* y) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                           _mm256_loadu_ps(y + i + 8), acc1);
    acc2 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 16),
                           _mm256_loadu_ps(y + i + 16), acc2);
    acc3 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 24),
                           _mm256_loadu_ps(y + i + 24), acc3);
  }
  __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                             _mm256_add_ps(acc2, acc3));
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i), acc);
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void Avx2Axpy(size_t n, float alpha, const float* x, float* y) {
  const __m256 a = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(a, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2Scale(size_t n, float alpha, float* x) {
  const __m256 a = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(a, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void Avx2Add(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_add_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] + y[i];
}

void Avx2Sub(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] - y[i];
}

void Avx2Hadamard(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i,
                     _mm256_mul_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

float Avx2L1Norm(size_t n, const float* x) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_add_ps(acc0, Abs256(_mm256_loadu_ps(x + i)));
    acc1 = _mm256_add_ps(acc1, Abs256(_mm256_loadu_ps(x + i + 8)));
    acc2 = _mm256_add_ps(acc2, Abs256(_mm256_loadu_ps(x + i + 16)));
    acc3 = _mm256_add_ps(acc3, Abs256(_mm256_loadu_ps(x + i + 24)));
  }
  __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                             _mm256_add_ps(acc2, acc3));
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(acc, Abs256(_mm256_loadu_ps(x + i)));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

float Avx2SquaredL2Norm(size_t n, const float* x) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256 v0 = _mm256_loadu_ps(x + i);
    __m256 v1 = _mm256_loadu_ps(x + i + 8);
    __m256 v2 = _mm256_loadu_ps(x + i + 16);
    __m256 v3 = _mm256_loadu_ps(x + i + 24);
    acc0 = _mm256_fmadd_ps(v0, v0, acc0);
    acc1 = _mm256_fmadd_ps(v1, v1, acc1);
    acc2 = _mm256_fmadd_ps(v2, v2, acc2);
    acc3 = _mm256_fmadd_ps(v3, v3, acc3);
  }
  __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                             _mm256_add_ps(acc2, acc3));
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    acc = _mm256_fmadd_ps(v, v, acc);
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += x[i] * x[i];
  return sum;
}

void Avx2SignOf(size_t n, const float* x, float* out) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 neg_one = _mm256_set1_ps(-1.0f);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256 v = _mm256_loadu_ps(x + i);
    __m256 pos = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_GT_OQ), one);
    __m256 neg = _mm256_and_ps(_mm256_cmp_ps(v, zero, _CMP_LT_OQ), neg_one);
    _mm256_storeu_ps(out + i, _mm256_or_ps(pos, neg));
  }
  for (; i < n; ++i) {
    out[i] = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
  }
}

float Avx2L1Distance(size_t n, const float* x, const float* y) {
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    acc0 = _mm256_add_ps(
        acc0, Abs256(_mm256_sub_ps(_mm256_loadu_ps(x + i),
                                   _mm256_loadu_ps(y + i))));
    acc1 = _mm256_add_ps(
        acc1, Abs256(_mm256_sub_ps(_mm256_loadu_ps(x + i + 8),
                                   _mm256_loadu_ps(y + i + 8))));
    acc2 = _mm256_add_ps(
        acc2, Abs256(_mm256_sub_ps(_mm256_loadu_ps(x + i + 16),
                                   _mm256_loadu_ps(y + i + 16))));
    acc3 = _mm256_add_ps(
        acc3, Abs256(_mm256_sub_ps(_mm256_loadu_ps(x + i + 24),
                                   _mm256_loadu_ps(y + i + 24))));
  }
  __m256 acc = _mm256_add_ps(_mm256_add_ps(acc0, acc1),
                             _mm256_add_ps(acc2, acc3));
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_add_ps(
        acc,
        Abs256(_mm256_sub_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i))));
  }
  float sum = HorizontalSum(acc);
  for (; i < n; ++i) sum += std::fabs(x[i] - y[i]);
  return sum;
}

void Avx2L1DistanceBatch(const float* query, const float* rows,
                         size_t num_rows, size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = Avx2L1Distance(dim, query, rows + i * dim);
  }
}

void Avx2GemvRaw(size_t m, size_t n, const float* a, const float* x,
                 float* y) {
  for (size_t i = 0; i < m; ++i) y[i] = Avx2Dot(n, a + i * n, x);
}

void Avx2Residual(size_t n, const float* x, const float* y, const float* z,
                  float* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i,
        _mm256_sub_ps(_mm256_add_ps(_mm256_loadu_ps(x + i),
                                    _mm256_loadu_ps(y + i)),
                      _mm256_loadu_ps(z + i)));
  }
  for (; i < n; ++i) out[i] = (x[i] + y[i]) - z[i];
}

void Avx2GemvT(size_t m, size_t n, const float* a, const float* x, float* y) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) _mm256_storeu_ps(y + j, _mm256_setzero_ps());
  for (; j < n; ++j) y[j] = 0.0f;
  for (size_t i = 0; i < m; ++i) Avx2Axpy(n, x[i], a + i * n, y);
}

void Avx2Ger(size_t m, size_t n, float alpha, const float* x, const float* y,
             float* a) {
  for (size_t i = 0; i < m; ++i) {
    if (x[i] == 0.0f) continue;
    Avx2Axpy(n, alpha * x[i], y, a + i * n);
  }
}

// No FMA here on purpose: the update is elementwise, and keeping each
// multiply/add a separate rounding makes every table agree bit-for-bit
// with the scalar reference (the dispatch-header contract).
void Avx2AdamRow(size_t n, const float* g, float gscale, float beta1,
                 float beta2, float alpha, float eps, float* row, float* m,
                 float* v) {
  const __m256 vs = _mm256_set1_ps(gscale);
  const __m256 vb1 = _mm256_set1_ps(beta1);
  const __m256 vc1 = _mm256_set1_ps(1.0f - beta1);
  const __m256 vb2 = _mm256_set1_ps(beta2);
  const __m256 vc2 = _mm256_set1_ps(1.0f - beta2);
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 ve = _mm256_set1_ps(eps);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gi = _mm256_mul_ps(_mm256_loadu_ps(g + i), vs);
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(vb1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(vc1, gi));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(vb2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(vc2, gi), gi));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vi), ve);
    _mm256_storeu_ps(
        row + i,
        _mm256_sub_ps(_mm256_loadu_ps(row + i),
                      _mm256_div_ps(_mm256_mul_ps(va, mi), denom)));
  }
  for (; i < n; ++i) {
    const float gi = g[i] * gscale;
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    row[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
  }
}

void Avx2GemmBias(size_t m, size_t k, size_t n, const float* a,
                  const float* b, const float* bias, float* c) {
  for (size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) _mm256_storeu_ps(crow + j, _mm256_setzero_ps());
    for (; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (size_t p = 0; p < k; ++p) Avx2Axpy(n, arow[p], b + p * n, crow);
    if (bias != nullptr) Avx2Axpy(n, 1.0f, bias, crow);
  }
}

// exp stays scalar (std::exp element by element) and the normalizing sum
// is accumulated left-to-right, so every table matches the scalar
// reference bit-for-bit (the dispatch-header contract); the max reduction
// and final scale are vectorized — both are order-insensitive.
void Avx2Softmax(size_t n, float* x) {
  if (n == 0) return;
  size_t i = 0;
  float mx = x[0];
  if (n >= 8) {
    __m256 vmax = _mm256_loadu_ps(x);
    for (i = 8; i + 8 <= n; i += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(x + i));
    }
    __m128 lo = _mm256_castps256_ps128(vmax);
    __m128 hi = _mm256_extractf128_ps(vmax, 1);
    __m128 s = _mm_max_ps(lo, hi);
    s = _mm_max_ps(s, _mm_movehl_ps(s, s));
    s = _mm_max_ss(s, _mm_shuffle_ps(s, s, 1));
    mx = _mm_cvtss_f32(s);
  } else {
    i = 1;
  }
  for (; i < n; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (size_t j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - mx);
    sum += x[j];
  }
  Avx2Scale(n, 1.0f / sum, x);
}

}  // namespace

extern const KernelTable kAvx2Table = {
    KernelIsa::kAvx2, Avx2Dot,           Avx2Axpy,
    Avx2Scale,        Avx2Add,           Avx2Sub,
    Avx2Hadamard,     Avx2L1Norm,        Avx2SquaredL2Norm,
    Avx2SignOf,       Avx2L1Distance,    Avx2L1DistanceBatch,
    Avx2GemvRaw,      Avx2Residual,      Avx2GemvT,
    Avx2Ger,          GemvTMultiLoop<Avx2GemvT>,
    GerMultiLoop<Avx2Ger>,               Avx2AdamRow,
    Avx2GemmBias,     Avx2Softmax,
};

}  // namespace internal
}  // namespace pkgm::simd

#endif  // x86-64
