#ifndef PKGM_TENSOR_OPS_H_
#define PKGM_TENSOR_OPS_H_

#include <cstddef>
#include <cstdint>

#include "tensor/vec.h"

namespace pkgm {

// BLAS-1 kernels over raw spans (all lengths in elements). Callers guarantee
// the spans are valid; these are hot paths and do not bounds-check per
// element.
//
// The BLAS-1/2 entry points below dispatch to a runtime-selected SIMD
// implementation (tensor/simd/kernel_dispatch.h): AVX2+FMA or AVX-512 on
// x86-64, NEON on aarch64, with the portable scalar loops as the
// always-correct fallback. Selection happens once at first use and can be
// pinned with PKGM_KERNEL=scalar|avx2|avx512|neon. No pointer alignment is
// required (vector paths use unaligned loads); vector reductions
// reassociate sums, so results may differ from scalar in the last ulps.

/// y += alpha * x
void Axpy(size_t n, float alpha, const float* x, float* y);

/// x *= alpha
void Scale(size_t n, float alpha, float* x);

/// out = x - y
void Sub(size_t n, const float* x, const float* y, float* out);

/// out = x + y
void Add(size_t n, const float* x, const float* y, float* out);

/// Dot product.
float Dot(size_t n, const float* x, const float* y);

/// Sum of |x_i|.
float L1Norm(size_t n, const float* x);

/// sqrt(sum x_i^2).
float L2Norm(size_t n, const float* x);

/// Squared L2 norm.
float SquaredL2Norm(size_t n, const float* x);

/// Writes sign(x_i) into out (sign(0) == 0); subgradient of the L1 norm.
void SignOf(size_t n, const float* x, float* out);

/// Projects x onto the L2 unit ball if its norm exceeds 1 (TransE's entity
/// normalization). Returns the pre-projection norm.
float ProjectToUnitBall(size_t n, float* x);

/// Elementwise product: out = x .* y
void Hadamard(size_t n, const float* x, const float* y, float* out);

/// sum_i |x_i - y_i| — the fused TransE tail distance (one pass, no
/// intermediate difference vector).
float L1Distance(size_t n, const float* x, const float* y);

/// out[i] = L1Distance(dim, query, rows + i*dim) for i in [0, num_rows).
/// `rows` is a contiguous row-major block of candidate embeddings; this is
/// the batched candidate-scoring primitive behind link-prediction ranking.
/// Row i is scored with arithmetic identical to a single L1Distance call,
/// so batched and per-candidate scores agree bit-for-bit.
void L1DistanceBatch(const float* query, const float* rows, size_t num_rows,
                     size_t dim, float* out);

// BLAS-2 / BLAS-3 kernels over row-major matrices.

/// y = A x              (A: m x n row-major raw span, x: n, y: m)
void GemvRaw(size_t m, size_t n, const float* a, const float* x, float* y);

/// y = A^T x            (A: m x n row-major raw span, x: m, y: n)
void GemvTransposedRaw(size_t m, size_t n, const float* a, const float* x,
                       float* y);

/// y = A x              (A: m x n, x: n, y: m)
void Gemv(const Mat& a, const float* x, float* y);

/// y = A^T x            (A: m x n, x: m, y: n)
void GemvTransposed(const Mat& a, const float* x, float* y);

/// A += alpha * x y^T   (rank-1 update; x: m, y: n). Rows with x[i] == 0
/// are skipped — the update is sign-sparse in the trainer's dM_r hot path.
void Ger(Mat* a, float alpha, const float* x, const float* y);

/// C = A B              (A: m x k, B: k x n, C: m x n). C is overwritten.
void Gemm(const Mat& a, const Mat& b, Mat* c);

/// C = A B + broadcast bias (raw row-major spans; bias length n, nullptr =
/// none). Fused linear-layer forward on the dispatched `gemm_bias` kernel;
/// within one kernel table this is bit-identical to Gemm followed by a
/// per-row bias Axpy, and rows are independent so batched and single-row
/// calls agree bit-for-bit.
void GemmBiasRaw(size_t m, size_t k, size_t n, const float* a, const float* b,
                 const float* bias, float* c);

/// C += A^T B           (A: k x m, B: k x n, C: m x n).
void GemmAtbAccum(const Mat& a, const Mat& b, Mat* c);

/// C = A B^T            (A: m x k, B: n x k, C: m x n).
void GemmAbt(const Mat& a, const Mat& b, Mat* c);

// Numerically stable reductions used by the NN layers.

/// In-place softmax over x[0..n).
void SoftmaxInplace(size_t n, float* x);

/// log(sum exp(x_i)), stable.
float LogSumExp(size_t n, const float* x);

/// Adam's bias-corrected step size at step t (1 for the first):
/// lr * sqrt(1 - beta2^t) / (1 - beta1^t).
float AdamStepSize(float lr, float beta1, float beta2, uint64_t t);

}  // namespace pkgm

#endif  // PKGM_TENSOR_OPS_H_
