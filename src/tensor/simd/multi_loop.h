#ifndef PKGM_TENSOR_SIMD_MULTI_LOOP_H_
#define PKGM_TENSOR_SIMD_MULTI_LOOP_H_

// The `_multi` kernel-table entries of the tables that do not block them:
// a loop over the table's own single kernel, so the within-table contract
// (each `_multi` call equals the sequence of single calls) holds by
// construction. Each kernel TU instantiates these with its own functions,
// so the instantiations are compiled with that TU's ISA flags.

#include <cstddef>

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

}  // namespace pkgm::simd::internal

#endif  // PKGM_TENSOR_SIMD_MULTI_LOOP_H_
