#ifndef PKGM_TENSOR_SIMD_KERNEL_DISPATCH_H_
#define PKGM_TENSOR_SIMD_KERNEL_DISPATCH_H_

#include <cstddef>

namespace pkgm::simd {

/// Instruction sets the kernel layer can target. kScalar is the portable
/// reference implementation (the seed's loops, bit-for-bit) and is always
/// available; the vector ISAs are compiled only on matching architectures
/// and selected only when the running CPU reports support.
enum class KernelIsa { kScalar, kAvx2, kAvx512, kNeon };

/// Lower-case name used by the PKGM_KERNEL env var, ServerStats backend
/// reporting and the bench JSON ("scalar", "avx2", "avx512", "neon").
const char* KernelIsaName(KernelIsa isa);

/// One implementation of every hot-path kernel. All lengths are in
/// elements; pointers need no particular alignment (vector variants use
/// unaligned loads — see DESIGN.md §10 for the contract).
///
/// Numerical contract: within one table, `l1_distance_batch` scores row i
/// exactly as one `l1_distance` call on that row, and `gemv_raw` computes
/// row i exactly as one `dot` call — so batched and per-candidate scoring
/// of the same data agree bit-for-bit and ranking ties break identically.
/// Likewise each `_multi` entry equals the same sequence of single calls.
/// Across tables only approximate agreement holds (vector reductions
/// reassociate the sum; axpy may fuse the multiply-add).
struct KernelTable {
  KernelIsa isa;

  float (*dot)(size_t n, const float* x, const float* y);
  void (*axpy)(size_t n, float alpha, const float* x, float* y);
  void (*scale)(size_t n, float alpha, float* x);
  void (*add)(size_t n, const float* x, const float* y, float* out);
  void (*sub)(size_t n, const float* x, const float* y, float* out);
  void (*hadamard)(size_t n, const float* x, const float* y, float* out);
  float (*l1_norm)(size_t n, const float* x);
  float (*squared_l2_norm)(size_t n, const float* x);
  void (*sign_of)(size_t n, const float* x, float* out);
  /// sum_i |x_i - y_i| — the fused TransE tail distance.
  float (*l1_distance)(size_t n, const float* x, const float* y);
  /// out[i] = l1_distance(dim, query, rows + i*dim) for i in [0, num_rows):
  /// the blocked candidate-scoring primitive behind EvaluateTails.
  void (*l1_distance_batch)(const float* query, const float* rows,
                            size_t num_rows, size_t dim, float* out);
  /// y = A x, A row-major m x n. Row i equals dot(n, A_row_i, x).
  void (*gemv_raw)(size_t m, size_t n, const float* a, const float* x,
                   float* y);
  /// out[i] = (x[i] + y[i]) - z[i] — the TransE residual h + r - t, with
  /// exactly the two roundings of composing add then sub. Elementwise, so
  /// every table agrees bit-for-bit (like add/sub themselves).
  void (*residual)(size_t n, const float* x, const float* y, const float* z,
                   float* out);
  /// y = A^T x (A row-major m x n; y length n, overwritten). Within a
  /// table this equals zeroing y and accumulating axpy(n, x[i], A_row_i, y)
  /// for i = 0..m-1 in row order — the backward dh += M_r^T s' primitive.
  void (*gemv_t)(size_t m, size_t n, const float* a, const float* x,
                 float* y);
  /// Rank-1 accumulate A += alpha x y^T (A row-major m x n). Within a
  /// table, row i equals axpy(n, alpha * x[i], y, A_row_i); rows with
  /// x[i] == 0 are skipped — the sign-sparse dM_r += s' h^T update.
  void (*ger)(size_t m, size_t n, float alpha, const float* x, const float* y,
              float* a);
  /// ys[q] = A^T xs[q] for q in [0, k): k vectors against one matrix (the
  /// relation-grouped backward's M_r^T s' for the side-items of one
  /// relation). Within a table, equals k gemv_t calls in q order.
  void (*gemv_t_multi)(size_t k, size_t m, size_t n, const float* a,
                       const float* const* xs, float* const* ys);
  /// A += alphas[q] xs[q] ys[q]^T for q = 0..k-1 in order (rows with
  /// xs[q][i] == 0 skipped). Within a table, equals k ger calls in q order,
  /// so every element of A sees its updates in the same sequence.
  void (*ger_multi)(size_t k, size_t m, size_t n, const float* alphas,
                    const float* const* xs, const float* const* ys, float* a);
  /// Fused sparse-Adam row update. For each i, with g_i = g[i] * gscale:
  ///   m[i] = beta1 * m[i] + (1 - beta1) * g_i
  ///   v[i] = beta2 * v[i] + (1 - beta2) * g_i * g_i   (left-associated)
  ///   row[i] -= alpha * m[i] / (sqrt(v[i]) + eps)
  /// `alpha` is the bias-corrected step size the trainer computes from the
  /// global step. Elementwise with no fused multiply-adds, so every table
  /// matches the scalar reference bit-for-bit.
  void (*adam_row)(size_t n, const float* g, float gscale, float beta1,
                   float beta2, float alpha, float eps, float* row, float* m,
                   float* v);
  /// Fused linear-layer forward C = A B + broadcast bias (A: m x k, B:
  /// k x n, C: m x n, all row-major; bias has length n, nullptr = none).
  /// Within a table, row i equals zeroing C_row_i, accumulating
  /// axpy(n, A(i,p), B_row_p, C_row_i) for p = 0..k-1 in order, then
  /// axpy(n, 1, bias, C_row_i) — exactly the Gemm-then-bias composition
  /// nn::Linear::Forward performs, so fusing it is bit-identical. Rows are
  /// independent, so batched and single-row forwards agree bit-for-bit.
  void (*gemm_bias)(size_t m, size_t k, size_t n, const float* a,
                    const float* b, const float* bias, float* c);
  /// Numerically stable in-place softmax over x[0..n). The max is an
  /// order-independent reduction, exp is scalar std::exp element by
  /// element, and the normalizing sum is accumulated left-to-right in
  /// every table — so all tables agree with the scalar reference
  /// bit-for-bit (unlike the reassociating sum reductions above).
  void (*softmax)(size_t n, float* x);
};

/// The always-available portable reference kernels.
const KernelTable& ScalarKernels();

/// Vector tables, or nullptr when the ISA was not compiled in or the
/// running CPU lacks it. Safe to call from any thread at any time.
const KernelTable* Avx2Kernels();
const KernelTable* Avx512Kernels();
const KernelTable* NeonKernels();

/// Best ISA the running CPU supports (kScalar if none).
KernelIsa DetectBestIsa();

/// Table for `isa` if usable on this machine, else nullptr.
const KernelTable* KernelsForIsa(KernelIsa isa);

/// Parses a PKGM_KERNEL value ("scalar" | "avx2" | "avx512" | "neon").
/// Returns false on an unknown name.
bool ParseKernelIsa(const char* name, KernelIsa* out);

/// The process-wide active table. Chosen once, on first use: PKGM_KERNEL
/// if set and usable (a warning is logged and detection takes over when it
/// is unknown or unsupported on this CPU), otherwise DetectBestIsa().
const KernelTable& Active();

/// KernelIsaName(Active().isa) — the label reported by ServerStats and the
/// bench JSON so perf regressions are attributable to a kernel change.
const char* ActiveIsaName();

}  // namespace pkgm::simd

#endif  // PKGM_TENSOR_SIMD_KERNEL_DISPATCH_H_
