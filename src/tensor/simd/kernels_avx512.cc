// AVX-512F kernels (16-wide fp32). Compiled with -mavx512f; selected only
// when the running CPU reports avx512f. Structure mirrors the AVX2 file:
// reductions use four independent accumulators over 64-element chunks,
// and remainders are handled with masked loads so no tail reads past the
// span. Unlike the other tables, the d x d training kernels are register
// blocked: gemv_raw reduces 16 rows at once through a transposed copy of
// Dot's horizontal-sum tree, and gemv_t(_multi)/ger(_multi) keep their
// accumulators in registers across rows and vectors. Every blocked kernel
// performs, per output element, exactly the roundings of the single-row
// composition it replaces, so blocked and per-row results agree
// bit-for-bit within this table.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "tensor/simd/kernel_dispatch.h"

namespace pkgm::simd {
namespace internal {
namespace {

inline __m512 Abs512(__m512 v) {
  return _mm512_abs_ps(v);
}

inline __mmask16 TailMask(size_t remaining) {
  return static_cast<__mmask16>((1u << remaining) - 1u);
}

// The shuffles of the reduction trees below, in their masked forms with a
// full mask: they compile to the plain instructions, while GCC 12's
// unmasked intrinsics trip -Wuninitialized on an undefined pass-through.
template <int kHalf>
inline __m256 Half8(__m512 v) {
  return _mm256_castpd_ps(_mm512_mask_extractf64x4_pd(
      _mm256_setzero_pd(), 0xFF, _mm512_castps_pd(v), kHalf));
}

template <int kImm>
inline __m512 ShuffleLanes(__m512 a, __m512 b) {
  return _mm512_mask_shuffle_f32x4(a, 0xFFFF, a, b, kImm);
}

// The horizontal sum of _mm512_reduce_add_ps as GCC defines it, spelled
// out so Dot and the blocked gemv_raw below share one tree whatever the
// compiler: lanes j + (j+8), then j + (j+4), then j + (j+2), then the last
// two.
inline float HorizontalSum(__m512 v) {
  const __m256 s8 = _mm256_add_ps(Half8<1>(v), Half8<0>(v));
  const __m128 s4 =
      _mm_add_ps(_mm256_extractf128_ps(s8, 1), _mm256_castps256_ps128(s8));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  return _mm_cvtss_f32(s2) + _mm_cvtss_f32(_mm_movehdup_ps(s2));
}

// Sums each of v[0..15] by HorizontalSum's tree, 16 vectors at once: lane
// r of the result is HorizontalSum(v[r]) bit for bit, since every add
// pairs the same lanes the single-vector tree pairs. Each stage halves the
// lanes per vector and doubles the vectors per register; the vectors are
// interleaved so the last stage leaves them in order.
inline __m512 TransposedHorizontalSum16(const __m512* v) {
  __m512 halves[8], quarters[4], pairs[2];
#pragma GCC unroll 16
  for (int t = 0; t < 4; ++t) {
    // halves[2t] = {v[t], v[4+t]}, halves[2t+1] = {v[8+t], v[12+t]}: lane
    // j of each 8-lane half is v[j] + v[j+8].
#pragma GCC unroll 16
    for (int h = 0; h < 2; ++h) {
      const __m512 a = v[8 * h + t];
      const __m512 b = v[8 * h + 4 + t];
      halves[2 * t + h] =
          _mm512_add_ps(ShuffleLanes<0x44>(a, b), ShuffleLanes<0xEE>(a, b));
    }
  }
  // quarters[t] 128-bit lane l holds vector t + 4l: lanes j + (j+4).
#pragma GCC unroll 16
  for (int t = 0; t < 4; ++t) {
    const __m512 a = halves[2 * t];
    const __m512 b = halves[2 * t + 1];
    quarters[t] =
        _mm512_add_ps(ShuffleLanes<0x88>(a, b), ShuffleLanes<0xDD>(a, b));
  }
  // pairs[p] lane l = {j + (j+2) for j = 0, 1} of vectors 2p + 4l and
  // 2p + 1 + 4l.
#pragma GCC unroll 16
  for (int p = 0; p < 2; ++p) {
    const __m512 a = quarters[2 * p];
    const __m512 b = quarters[2 * p + 1];
    pairs[p] = _mm512_add_ps(_mm512_shuffle_ps(a, b, 0x44),
                             _mm512_shuffle_ps(a, b, 0xEE));
  }
  return _mm512_add_ps(_mm512_shuffle_ps(pairs[0], pairs[1], 0x88),
                       _mm512_shuffle_ps(pairs[0], pairs[1], 0xDD));
}

// Dot's accumulator before its horizontal sum.
inline __m512 DotAccumulator(size_t n, const float* x, const float* y) {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i),
                           acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(x + i + 16),
                           _mm512_loadu_ps(y + i + 16), acc1);
    acc2 = _mm512_fmadd_ps(_mm512_loadu_ps(x + i + 32),
                           _mm512_loadu_ps(y + i + 32), acc2);
    acc3 = _mm512_fmadd_ps(_mm512_loadu_ps(x + i + 48),
                           _mm512_loadu_ps(y + i + 48), acc3);
  }
  __m512 acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1),
                             _mm512_add_ps(acc2, acc3));
  for (; i + 16 <= n; i += 16) {
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i), acc);
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(k, x + i),
                          _mm512_maskz_loadu_ps(k, y + i), acc);
  }
  return acc;
}

float Avx512Dot(size_t n, const float* x, const float* y) {
  return HorizontalSum(DotAccumulator(n, x, y));
}

void Avx512Axpy(size_t n, float alpha, const float* x, float* y) {
  const __m512 a = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i, _mm512_fmadd_ps(a, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    _mm512_mask_storeu_ps(y + i, k,
                          _mm512_fmadd_ps(a, _mm512_maskz_loadu_ps(k, x + i),
                                          _mm512_maskz_loadu_ps(k, y + i)));
  }
}

void Avx512Scale(size_t n, float alpha, float* x) {
  const __m512 a = _mm512_set1_ps(alpha);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(x + i, _mm512_mul_ps(a, _mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    _mm512_mask_storeu_ps(x + i, k,
                          _mm512_mul_ps(a, _mm512_maskz_loadu_ps(k, x + i)));
  }
}

void Avx512Add(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     _mm512_add_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    _mm512_mask_storeu_ps(out + i, k,
                          _mm512_add_ps(_mm512_maskz_loadu_ps(k, x + i),
                                        _mm512_maskz_loadu_ps(k, y + i)));
  }
}

void Avx512Sub(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     _mm512_sub_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    _mm512_mask_storeu_ps(out + i, k,
                          _mm512_sub_ps(_mm512_maskz_loadu_ps(k, x + i),
                                        _mm512_maskz_loadu_ps(k, y + i)));
  }
}

void Avx512Hadamard(size_t n, const float* x, const float* y, float* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i,
                     _mm512_mul_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    _mm512_mask_storeu_ps(out + i, k,
                          _mm512_mul_ps(_mm512_maskz_loadu_ps(k, x + i),
                                        _mm512_maskz_loadu_ps(k, y + i)));
  }
}

float Avx512L1Norm(size_t n, const float* x) {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    acc0 = _mm512_add_ps(acc0, Abs512(_mm512_loadu_ps(x + i)));
    acc1 = _mm512_add_ps(acc1, Abs512(_mm512_loadu_ps(x + i + 16)));
    acc2 = _mm512_add_ps(acc2, Abs512(_mm512_loadu_ps(x + i + 32)));
    acc3 = _mm512_add_ps(acc3, Abs512(_mm512_loadu_ps(x + i + 48)));
  }
  __m512 acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1),
                             _mm512_add_ps(acc2, acc3));
  for (; i + 16 <= n; i += 16) {
    acc = _mm512_add_ps(acc, Abs512(_mm512_loadu_ps(x + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    acc = _mm512_add_ps(acc, Abs512(_mm512_maskz_loadu_ps(k, x + i)));
  }
  return _mm512_reduce_add_ps(acc);
}

float Avx512SquaredL2Norm(size_t n, const float* x) {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    __m512 v0 = _mm512_loadu_ps(x + i);
    __m512 v1 = _mm512_loadu_ps(x + i + 16);
    __m512 v2 = _mm512_loadu_ps(x + i + 32);
    __m512 v3 = _mm512_loadu_ps(x + i + 48);
    acc0 = _mm512_fmadd_ps(v0, v0, acc0);
    acc1 = _mm512_fmadd_ps(v1, v1, acc1);
    acc2 = _mm512_fmadd_ps(v2, v2, acc2);
    acc3 = _mm512_fmadd_ps(v3, v3, acc3);
  }
  __m512 acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1),
                             _mm512_add_ps(acc2, acc3));
  for (; i + 16 <= n; i += 16) {
    __m512 v = _mm512_loadu_ps(x + i);
    acc = _mm512_fmadd_ps(v, v, acc);
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    __m512 v = _mm512_maskz_loadu_ps(k, x + i);
    acc = _mm512_fmadd_ps(v, v, acc);
  }
  return _mm512_reduce_add_ps(acc);
}

void Avx512SignOf(size_t n, const float* x, float* out) {
  const __m512 zero = _mm512_setzero_ps();
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 neg_one = _mm512_set1_ps(-1.0f);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m512 v = _mm512_loadu_ps(x + i);
    __m512 r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(v, zero, _CMP_GT_OQ),
                                    zero, one);
    r = _mm512_mask_blend_ps(_mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ), r,
                             neg_one);
    _mm512_storeu_ps(out + i, r);
  }
  for (; i < n; ++i) {
    out[i] = x[i] > 0.0f ? 1.0f : (x[i] < 0.0f ? -1.0f : 0.0f);
  }
}

float Avx512L1Distance(size_t n, const float* x, const float* y) {
  __m512 acc0 = _mm512_setzero_ps(), acc1 = _mm512_setzero_ps();
  __m512 acc2 = _mm512_setzero_ps(), acc3 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    acc0 = _mm512_add_ps(
        acc0, Abs512(_mm512_sub_ps(_mm512_loadu_ps(x + i),
                                   _mm512_loadu_ps(y + i))));
    acc1 = _mm512_add_ps(
        acc1, Abs512(_mm512_sub_ps(_mm512_loadu_ps(x + i + 16),
                                   _mm512_loadu_ps(y + i + 16))));
    acc2 = _mm512_add_ps(
        acc2, Abs512(_mm512_sub_ps(_mm512_loadu_ps(x + i + 32),
                                   _mm512_loadu_ps(y + i + 32))));
    acc3 = _mm512_add_ps(
        acc3, Abs512(_mm512_sub_ps(_mm512_loadu_ps(x + i + 48),
                                   _mm512_loadu_ps(y + i + 48))));
  }
  __m512 acc = _mm512_add_ps(_mm512_add_ps(acc0, acc1),
                             _mm512_add_ps(acc2, acc3));
  for (; i + 16 <= n; i += 16) {
    acc = _mm512_add_ps(
        acc,
        Abs512(_mm512_sub_ps(_mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i))));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    acc = _mm512_add_ps(acc,
                        Abs512(_mm512_sub_ps(_mm512_maskz_loadu_ps(k, x + i),
                                             _mm512_maskz_loadu_ps(k, y + i))));
  }
  return _mm512_reduce_add_ps(acc);
}

void Avx512L1DistanceBatch(const float* query, const float* rows,
                           size_t num_rows, size_t dim, float* out) {
  for (size_t i = 0; i < num_rows; ++i) {
    out[i] = Avx512L1Distance(dim, query, rows + i * dim);
  }
}

// 16 rows of gemv_raw: each row's Dot accumulator, then one transposed sum.
// Inlined into both call sites below, so the d = 64 one is compiled for a
// constant n and keeps x's four chunks in registers across the rows.
__attribute__((always_inline)) inline void GemvRaw16(size_t n,
                                                     const float* a,
                                                     const float* x,
                                                     float* y) {
  __m512 acc[16];
#pragma GCC unroll 16
  for (int r = 0; r < 16; ++r) acc[r] = DotAccumulator(n, a + r * n, x);
  _mm512_storeu_ps(y, TransposedHorizontalSum16(acc));
}

void Avx512GemvRaw(size_t m, size_t n, const float* a, const float* x,
                   float* y) {
  size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    if (n == 64) {
      GemvRaw16(64, a + i * n, x, y + i);
    } else {
      GemvRaw16(n, a + i * n, x, y + i);
    }
  }
  for (; i < m; ++i) y[i] = Avx512Dot(n, a + i * n, x);
}

void Avx512Residual(size_t n, const float* x, const float* y, const float* z,
                    float* out) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        out + i,
        _mm512_sub_ps(_mm512_add_ps(_mm512_loadu_ps(x + i),
                                    _mm512_loadu_ps(y + i)),
                      _mm512_loadu_ps(z + i)));
  }
  if (i < n) {
    const __mmask16 k = TailMask(n - i);
    _mm512_mask_storeu_ps(
        out + i, k,
        _mm512_sub_ps(_mm512_add_ps(_mm512_maskz_loadu_ps(k, x + i),
                                    _mm512_maskz_loadu_ps(k, y + i)),
                      _mm512_maskz_loadu_ps(k, z + i)));
  }
}

// The 16-column chunks of a d x d training kernel come in panels of C
// chunks. Full panels use plain loads and stores; only the panel reaching
// a row's end (kTail) masks, with `mask[j]` selecting chunk j's valid
// lanes — masked accesses cost about twice as much here. A chunk wholly
// past the end (mask 0) is never addressed: it loads as zeros and is not
// stored.
template <int C>
void PanelMasks(size_t n, size_t c, __mmask16* mask) {
#pragma GCC unroll 16
  for (int j = 0; j < C; ++j) {
    const size_t start = c + 16 * j;
    mask[j] = start + 16 <= n ? static_cast<__mmask16>(0xFFFF)
              : start < n     ? TailMask(n - start)
                              : static_cast<__mmask16>(0);
  }
}

// Chunk j of the panel starting at `p`.
template <bool kTail>
inline __m512 LoadChunk(const __mmask16* mask, int j, const float* p) {
  if (!kTail) return _mm512_loadu_ps(p + 16 * j);
  return mask[j] == 0 ? _mm512_setzero_ps()
                      : _mm512_maskz_loadu_ps(mask[j], p + 16 * j);
}

template <bool kTail>
inline void StoreChunk(const __mmask16* mask, int j, float* p, __m512 v) {
  if (!kTail) {
    _mm512_storeu_ps(p + 16 * j, v);
  } else if (mask[j] != 0) {
    _mm512_mask_storeu_ps(p + 16 * j, mask[j], v);
  }
}

// Columns [c, c + 16 C) of ys[q] = A^T xs[q] for q in [0, Q): Q x C
// accumulators stay in registers while the m rows stream past once. Each
// element starts at +0 and takes fma(x[i], A(i, j), y) for i = 0..m-1 in
// order — the zero-then-axpy sequence of the unblocked gemv_t. (The
// unroll pragmas keep the accumulator arrays in registers at -O2.)
template <int Q, int C, bool kTail>
void GemvTPanel(size_t m, size_t n, const float* a, const float* const* xs,
                float* const* ys, size_t c) {
  __mmask16 mask[C];
  if (kTail) PanelMasks<C>(n, c, mask);
  __m512 acc[Q][C];
#pragma GCC unroll 16
  for (int q = 0; q < Q; ++q) {
#pragma GCC unroll 16
    for (int j = 0; j < C; ++j) acc[q][j] = _mm512_setzero_ps();
  }
  for (size_t i = 0; i < m; ++i) {
    const float* row = a + i * n + c;
    __m512 av[C];
#pragma GCC unroll 16
    for (int j = 0; j < C; ++j) av[j] = LoadChunk<kTail>(mask, j, row);
#pragma GCC unroll 16
    for (int q = 0; q < Q; ++q) {
      const __m512 s = _mm512_set1_ps(xs[q][i]);
#pragma GCC unroll 16
      for (int j = 0; j < C; ++j) {
        acc[q][j] = _mm512_fmadd_ps(s, av[j], acc[q][j]);
      }
    }
  }
#pragma GCC unroll 16
  for (int q = 0; q < Q; ++q) {
#pragma GCC unroll 16
    for (int j = 0; j < C; ++j) {
      StoreChunk<kTail>(mask, j, ys[q] + c, acc[q][j]);
    }
  }
}

// Q vectors over every column panel: wide panels when Q is small, so at
// least four independent accumulator chains hide the FMA latency.
template <int Q>
void GemvTPanels(size_t m, size_t n, const float* a, const float* const* xs,
                 float* const* ys) {
  constexpr int kChunks = Q >= 8 ? 2 : 4;
  size_t c = 0;
  for (; c + 16 * kChunks <= n; c += 16 * kChunks) {
    GemvTPanel<Q, kChunks, false>(m, n, a, xs, ys, c);
  }
  if (c < n) GemvTPanel<Q, kChunks, true>(m, n, a, xs, ys, c);
}

void Avx512GemvTMulti(size_t k, size_t m, size_t n, const float* a,
                      const float* const* xs, float* const* ys) {
  size_t q = 0;
  for (; q + 8 <= k; q += 8) GemvTPanels<8>(m, n, a, xs + q, ys + q);
  if (k - q >= 4) {
    GemvTPanels<4>(m, n, a, xs + q, ys + q);
    q += 4;
  }
  if (k - q >= 2) {
    GemvTPanels<2>(m, n, a, xs + q, ys + q);
    q += 2;
  }
  if (q < k) GemvTPanels<1>(m, n, a, xs + q, ys + q);
}

void Avx512GemvT(size_t m, size_t n, const float* a, const float* x,
                 float* y) {
  GemvTPanels<1>(m, n, a, &x, &y);
}

// Columns [c, c + 64) of A += alphas[q] xs[q] ys[q]^T for q in order, in
// blocks of up to four vectors whose y panels stay in registers: a row's
// panel is loaded once per block, takes the block's updates in q order,
// and is stored back only if some xs[q][i] was non-zero. Per element that
// is fma(alphas[q] * xs[q][i], ys[q][j], A(i, j)) in q order — the axpy
// of the unblocked ger.
template <bool kTail>
void GerPanel(size_t k, size_t m, size_t n, const float* alphas,
              const float* const* xs, const float* const* ys, float* a,
              size_t c) {
  constexpr int kChunks = 4;
  constexpr size_t kVectors = 4;
  __mmask16 mask[kChunks];
  if (kTail) PanelMasks<kChunks>(n, c, mask);
  for (size_t q0 = 0; q0 < k; q0 += kVectors) {
    const size_t count = std::min(kVectors, k - q0);
    __m512 yv[kVectors][kChunks];
#pragma GCC unroll 16
    for (size_t b = 0; b < count; ++b) {
#pragma GCC unroll 16
      for (int j = 0; j < kChunks; ++j) {
        yv[b][j] = LoadChunk<kTail>(mask, j, ys[q0 + b] + c);
      }
    }
    for (size_t i = 0; i < m; ++i) {
      float* row = a + i * n + c;
      __m512 av[kChunks];
      bool touched = false;
#pragma GCC unroll 16
      for (size_t b = 0; b < count; ++b) {
        const float xq = xs[q0 + b][i];
        if (xq == 0.0f) continue;
        if (!touched) {
#pragma GCC unroll 16
          for (int j = 0; j < kChunks; ++j) {
            av[j] = LoadChunk<kTail>(mask, j, row);
          }
          touched = true;
        }
        const __m512 s = _mm512_set1_ps(alphas[q0 + b] * xq);
#pragma GCC unroll 16
        for (int j = 0; j < kChunks; ++j) {
          av[j] = _mm512_fmadd_ps(s, yv[b][j], av[j]);
        }
      }
      if (!touched) continue;
#pragma GCC unroll 16
      for (int j = 0; j < kChunks; ++j) StoreChunk<kTail>(mask, j, row, av[j]);
    }
  }
}

void Avx512GerMulti(size_t k, size_t m, size_t n, const float* alphas,
                    const float* const* xs, const float* const* ys,
                    float* a) {
  size_t c = 0;
  for (; c + 64 <= n; c += 64) GerPanel<false>(k, m, n, alphas, xs, ys, a, c);
  if (c < n) GerPanel<true>(k, m, n, alphas, xs, ys, a, c);
}

void Avx512Ger(size_t m, size_t n, float alpha, const float* x,
               const float* y, float* a) {
  Avx512GerMulti(1, m, n, &alpha, &x, &y, a);
}

// No FMA here on purpose: the update is elementwise, and keeping each
// multiply/add a separate rounding makes every table agree bit-for-bit
// with the scalar reference (the dispatch-header contract).
void Avx512AdamRow(size_t n, const float* g, float gscale, float beta1,
                   float beta2, float alpha, float eps, float* row, float* m,
                   float* v) {
  const __m512 vs = _mm512_set1_ps(gscale);
  const __m512 vb1 = _mm512_set1_ps(beta1);
  const __m512 vc1 = _mm512_set1_ps(1.0f - beta1);
  const __m512 vb2 = _mm512_set1_ps(beta2);
  const __m512 vc2 = _mm512_set1_ps(1.0f - beta2);
  const __m512 va = _mm512_set1_ps(alpha);
  const __m512 ve = _mm512_set1_ps(eps);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 gi = _mm512_mul_ps(_mm512_loadu_ps(g + i), vs);
    const __m512 mi = _mm512_add_ps(_mm512_mul_ps(vb1, _mm512_loadu_ps(m + i)),
                                    _mm512_mul_ps(vc1, gi));
    const __m512 vi = _mm512_add_ps(
        _mm512_mul_ps(vb2, _mm512_loadu_ps(v + i)),
        _mm512_mul_ps(_mm512_mul_ps(vc2, gi), gi));
    _mm512_storeu_ps(m + i, mi);
    _mm512_storeu_ps(v + i, vi);
    const __m512 denom = _mm512_add_ps(_mm512_sqrt_ps(vi), ve);
    _mm512_storeu_ps(
        row + i,
        _mm512_sub_ps(_mm512_loadu_ps(row + i),
                      _mm512_div_ps(_mm512_mul_ps(va, mi), denom)));
  }
  for (; i < n; ++i) {
    const float gi = g[i] * gscale;
    m[i] = beta1 * m[i] + (1.0f - beta1) * gi;
    v[i] = beta2 * v[i] + (1.0f - beta2) * gi * gi;
    row[i] -= alpha * m[i] / (std::sqrt(v[i]) + eps);
  }
}

void Avx512GemmBias(size_t m, size_t k, size_t n, const float* a,
                    const float* b, const float* bias, float* c) {
  for (size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 16 <= n; j += 16) _mm512_storeu_ps(crow + j, _mm512_setzero_ps());
    for (; j < n; ++j) crow[j] = 0.0f;
    const float* arow = a + i * k;
    for (size_t p = 0; p < k; ++p) Avx512Axpy(n, arow[p], b + p * n, crow);
    if (bias != nullptr) Avx512Axpy(n, 1.0f, bias, crow);
  }
}

// exp stays scalar (std::exp element by element) and the normalizing sum
// is accumulated left-to-right, so every table matches the scalar
// reference bit-for-bit (the dispatch-header contract); the max reduction
// and final scale are vectorized — both are order-insensitive.
void Avx512Softmax(size_t n, float* x) {
  if (n == 0) return;
  size_t i = 0;
  float mx = x[0];
  if (n >= 16) {
    __m512 vmax = _mm512_loadu_ps(x);
    for (i = 16; i + 16 <= n; i += 16) {
      vmax = _mm512_max_ps(vmax, _mm512_loadu_ps(x + i));
    }
    mx = _mm512_reduce_max_ps(vmax);
  } else {
    i = 1;
  }
  for (; i < n; ++i) mx = std::max(mx, x[i]);
  float sum = 0.0f;
  for (size_t j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - mx);
    sum += x[j];
  }
  Avx512Scale(n, 1.0f / sum, x);
}

}  // namespace

extern const KernelTable kAvx512Table = {
    KernelIsa::kAvx512, Avx512Dot,           Avx512Axpy,
    Avx512Scale,        Avx512Add,           Avx512Sub,
    Avx512Hadamard,     Avx512L1Norm,        Avx512SquaredL2Norm,
    Avx512SignOf,       Avx512L1Distance,    Avx512L1DistanceBatch,
    Avx512GemvRaw,      Avx512Residual,      Avx512GemvT,
    Avx512Ger,          Avx512GemvTMulti,    Avx512GerMulti,
    Avx512AdamRow,      Avx512GemmBias,      Avx512Softmax,
};

}  // namespace internal
}  // namespace pkgm::simd

#endif  // x86-64
