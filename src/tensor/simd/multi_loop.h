#ifndef PKGM_TENSOR_SIMD_MULTI_LOOP_H_
#define PKGM_TENSOR_SIMD_MULTI_LOOP_H_

// The `_multi` kernel-table entries of the tables that do not block them:
// a loop over the table's own single kernel (or, for ger_multi_axpy, the
// composition it is defined as), so the within-table contract holds by
// construction. Each kernel TU instantiates these with its own functions,
// so the instantiations are compiled with that TU's ISA flags.

#include <cstddef>
#include <vector>

namespace pkgm::simd::internal {

template <void (*GemvT)(size_t, size_t, const float*, const float*, float*)>
void GemvTMultiLoop(size_t k, size_t m, size_t n, const float* a,
                    const float* const* xs, float* const* ys) {
  for (size_t q = 0; q < k; ++q) GemvT(m, n, a, xs[q], ys[q]);
}

template <void (*Ger)(size_t, size_t, float, const float*, const float*,
                      float*)>
void GerMultiLoop(size_t k, size_t m, size_t n, const float* alphas,
                  const float* const* xs, const float* const* ys, float* a) {
  for (size_t q = 0; q < k; ++q) Ger(m, n, alphas[q], xs[q], ys[q], a);
}

// ger_multi_axpy as its definition: ger_multi into a zeroed m x n buffer
// (one per thread, reused), then ONE axpy over the whole buffer. Per-row
// axpy calls would differ where a table's axpy rounds its scalar tail
// apart from its vector body (AVX2, NEON): an element's place in the tail
// depends on the call's length.
template <void (*GerMulti)(size_t, size_t, size_t, const float*,
                           const float* const*, const float* const*, float*),
          void (*Axpy)(size_t, float, const float*, float*)>
void GerMultiAxpyLoop(size_t k, size_t m, size_t n, const float* alphas,
                      const float* const* xs, const float* const* ys,
                      float beta, float* a) {
  thread_local std::vector<float> buffer;
  buffer.assign(m * n, 0.0f);
  GerMulti(k, m, n, alphas, xs, ys, buffer.data());
  Axpy(m * n, beta, buffer.data(), a);
}

}  // namespace pkgm::simd::internal

#endif  // PKGM_TENSOR_SIMD_MULTI_LOOP_H_
