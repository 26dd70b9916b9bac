// NEON kernels for aarch64 (4-wide fp32). NEON is baseline on aarch64 so
// no runtime feature check is needed; the dispatcher simply prefers this
// table there. Structure mirrors the x86 files: reductions use four
// independent accumulators over 16-element chunks, then a 4-wide loop,
// then a scalar tail; batch/gemv entry points reuse the single-row
// functions so blocked and per-candidate scoring agree bit-for-bit.

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/simd/kernel_dispatch.h"
#include "tensor/simd/multi_loop.h"

namespace pkgm::simd {
namespace internal {
namespace {

float NeonDot(size_t n, const float* x, const float* y) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(x + i), vld1q_f32(y + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(x + i + 4), vld1q_f32(y + i + 4));
    acc2 = vfmaq_f32(acc2, vld1q_f32(x + i + 8), vld1q_f32(y + i + 8));
    acc3 = vfmaq_f32(acc3, vld1q_f32(x + i + 12), vld1q_f32(y + i + 12));
  }
  float32x4_t acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  for (; i + 4 <= n; i += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(x + i), vld1q_f32(y + i));
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += x[i] * y[i];
  return sum;
}

void NeonAxpy(size_t n, float alpha, const float* x, float* y) {
  const float32x4_t a = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(y + i, vfmaq_f32(vld1q_f32(y + i), a, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void NeonScale(size_t n, float alpha, float* x) {
  const float32x4_t a = vdupq_n_f32(alpha);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(a, vld1q_f32(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void NeonAdd(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vaddq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] + y[i];
}

void NeonSub(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] - y[i];
}

void NeonHadamard(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vmulq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * y[i];
}

float NeonL1Norm(size_t n, const float* x) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vaddq_f32(acc0, vabsq_f32(vld1q_f32(x + i)));
    acc1 = vaddq_f32(acc1, vabsq_f32(vld1q_f32(x + i + 4)));
    acc2 = vaddq_f32(acc2, vabsq_f32(vld1q_f32(x + i + 8)));
    acc3 = vaddq_f32(acc3, vabsq_f32(vld1q_f32(x + i + 12)));
  }
  float32x4_t acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  for (; i + 4 <= n; i += 4) {
    acc = vaddq_f32(acc, vabsq_f32(vld1q_f32(x + i)));
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

float NeonSquaredL2Norm(size_t n, const float* x) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    float32x4_t v0 = vld1q_f32(x + i);
    float32x4_t v1 = vld1q_f32(x + i + 4);
    float32x4_t v2 = vld1q_f32(x + i + 8);
    float32x4_t v3 = vld1q_f32(x + i + 12);
    acc0 = vfmaq_f32(acc0, v0, v0);
    acc1 = vfmaq_f32(acc1, v1, v1);
    acc2 = vfmaq_f32(acc2, v2, v2);
    acc3 = vfmaq_f32(acc3, v3, v3);
  }
  float32x4_t acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(x + i);
    acc = vfmaq_f32(acc, v, v);
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += x[i] * x[i];
  return sum;
}

void NeonSignOf(size_t n, const float* x, float* out) {
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t neg_one = vdupq_n_f32(-1.0f);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    float32x4_t v = vld1q_f32(x + i);
    uint32x4_t pos = vcgtq_f32(v, zero);
    uint32x4_t neg = vcltq_f32(v, zero);
    float32x4_t r = vbslq_f32(pos, one, zero);
    r = vbslq_f32(neg, neg_one, r);
    vst1q_f32(out + i, r);
  }
  for (; i < n; ++i) {
    out[i] = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
  }
}

float NeonL1Distance(size_t n, const float* x, const float* y) {
  float32x4_t acc0 = vdupq_n_f32(0.0f), acc1 = vdupq_n_f32(0.0f);
  float32x4_t acc2 = vdupq_n_f32(0.0f), acc3 = vdupq_n_f32(0.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = vaddq_f32(acc0, vabdq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
    acc1 = vaddq_f32(acc1,
                     vabdq_f32(vld1q_f32(x + i + 4), vld1q_f32(y + i + 4)));
    acc2 = vaddq_f32(acc2,
                     vabdq_f32(vld1q_f32(x + i + 8), vld1q_f32(y + i + 8)));
    acc3 = vaddq_f32(acc3,
                     vabdq_f32(vld1q_f32(x + i + 12), vld1q_f32(y + i + 12)));
  }
  float32x4_t acc = vaddq_f32(vaddq_f32(acc0, acc1), vaddq_f32(acc2, acc3));
  for (; i + 4 <= n; i += 4) {
    acc = vaddq_f32(acc, vabdq_f32(vld1q_f32(x + i), vld1q_f32(y + i)));
  }
  float sum = vaddvq_f32(acc);
  for (; i < n; ++i) sum += std::fabs(x[i] - y[i]);
  return sum;
}

void NeonL1DistanceBatch(const float* query, const float* rows,
                         size_t num_rows, size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = NeonL1Distance(dim, query, rows + i * dim);
  }
}

void NeonGemvRaw(size_t m, size_t n, const float* a, const float* x,
                 float* y) {
  for (size_t i = 0; i < m; ++i) y[i] = NeonDot(n, a + i * n, x);
}

void NeonResidual(size_t n, const float* x, const float* y, const float* z,
                  float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i, vsubq_f32(vaddq_f32(vld1q_f32(x + i), vld1q_f32(y + i)),
                                 vld1q_f32(z + i)));
  }
  for (; i < n; ++i) out[i] = (x[i] + y[i]) - z[i];
}

void NeonGemvT(size_t m, size_t n, const float* a, const float* x, float* y) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) vst1q_f32(y + j, vdupq_n_f32(0.0f));
  for (; j < n; ++j) y[j] = 0.0f;
  for (size_t i = 0; i < m; ++i) NeonAxpy(n, x[i], a + i * n, y);
}

void NeonGer(size_t m, size_t n, float alpha, const float* x, const float* y,
             float* a) {
  for (size_t i = 0; i < m; ++i) {
    if (x[i] == 0.0f) continue;
    NeonAxpy(n, alpha * x[i], y, a + i * n);
  }
}

// No fused multiply-adds on purpose: keeping each multiply/add a separate
// rounding makes this elementwise update match the scalar reference
// bit-for-bit (the dispatch-header contract). vdivq/vsqrtq are
// IEEE-correctly rounded on aarch64.
void NeonAdamRow(size_t n, const float* g, float gscale, float beta1,
                 float beta2, float alpha, float eps, float* row, float* m,
                 float* v) {
  const float32x4_t vs = vdupq_n_f32(gscale);
  const float32x4_t vb1 = vdupq_n_f32(beta1);
  const float32x4_t vc1 = vdupq_n_f32(1.0f - beta1);
  const float32x4_t vb2 = vdupq_n_f32(beta2);
  const float32x4_t vc2 = vdupq_n_f32(1.0f - beta2);
  const float32x4_t va = vdupq_n_f32(alpha);
  const float32x4_t ve = vdupq_n_f32(eps);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t gi = vmulq_f32(vld1q_f32(g + i), vs);
    const float32x4_t mi =
        vaddq_f32(vmulq_f32(vb1, vld1q_f32(m + i)), vmulq_f32(vc1, gi));
    const float32x4_t vi = vaddq_f32(vmulq_f32(vb2, vld1q_f32(v + i)),
                                     vmulq_f32(vmulq_f32(vc2, gi), gi));
    vst1q_f32(m + i, mi);
    vst1q_f32(v + i, vi);
    const float32x4_t denom = vaddq_f32(vsqrtq_f32(vi), ve);
    vst1q_f32(row + i, vsubq_f32(vld1q_f32(row + i),
                                 vdivq_f32(vmulq_f32(va, mi), denom)));
  }
  for (; i < n; ++i) {
    const float gi = g[i] * gscale;
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    row[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
  }
}

void NeonGemmBias(size_t m, size_t k, size_t n, const float* a,
                  const float* b, const float* bias, float* c) {
  for (size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 4 <= n; j += 4) vst1q_f32(crow + j, vdupq_n_f32(0.0f));
    for (; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (size_t p = 0; p < k; ++p) NeonAxpy(n, arow[p], b + p * n, crow);
    if (bias != nullptr) NeonAxpy(n, 1.0f, bias, crow);
  }
}

// exp stays scalar (std::exp element by element) and the normalizing sum
// is accumulated left-to-right, so every table matches the scalar
// reference bit-for-bit (the dispatch-header contract); the max reduction
// and final scale are vectorized — both are order-insensitive.
void NeonSoftmax(size_t n, float* x) {
  if (n == 0) return;
  size_t i = 0;
  float mx = x[0];
  if (n >= 4) {
    float32x4_t vmax = vld1q_f32(x);
    for (i = 4; i + 4 <= n; i += 4) {
      vmax = vmaxq_f32(vmax, vld1q_f32(x + i));
    }
    mx = vmaxvq_f32(vmax);
  } else {
    i = 1;
  }
  for (; i < n; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (size_t j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - mx);
    sum += x[j];
  }
  NeonScale(n, 1.0f / sum, x);
}

}  // namespace

extern const KernelTable kNeonTable = {
    KernelIsa::kNeon, NeonDot,           NeonAxpy,
    NeonScale,        NeonAdd,           NeonSub,
    NeonHadamard,     NeonL1Norm,        NeonSquaredL2Norm,
    NeonSignOf,       NeonL1Distance,    NeonL1DistanceBatch,
    NeonGemvRaw,      NeonResidual,      NeonGemvT,
    NeonGer,          GemvTMultiLoop<NeonGemvT>,
    GerMultiLoop<NeonGer>,               NeonAdamRow,
    NeonGemmBias,     NeonSoftmax,
};

}  // namespace internal
}  // namespace pkgm::simd

#endif  // __aarch64__
