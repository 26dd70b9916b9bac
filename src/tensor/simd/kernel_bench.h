#ifndef PKGM_TENSOR_SIMD_KERNEL_BENCH_H_
#define PKGM_TENSOR_SIMD_KERNEL_BENCH_H_

#include <cstddef>
#include <vector>

#include "tensor/simd/kernel_dispatch.h"

namespace pkgm::simd {

/// One micro-benchmark measurement of a kernel-table entry.
struct KernelBenchResult {
  const char* op;     ///< "dot", "l1_norm", "axpy", "gemv_raw", ...
  double ns_per_op;   ///< mean wall time of one call
  double gbps;        ///< bytes touched per call / time, in GB/s
};

/// Times the hot kernel-table entries (dot, l1_norm, axpy, l1_distance,
/// l1_distance_batch, gemv_raw, residual, gemv_t, ger, gemv_t_multi,
/// ger_multi, ger_multi_axpy, adam_row) on deterministic data at embedding
/// dimension `dim`: l1_distance_batch and gemv_raw run over `batch_rows`
/// contiguous rows, gemv_t and ger over a dim x dim matrix, and the
/// `_multi` ops over 8 vectors sharing that matrix. Used by
/// `bench_ops --json` and `pkgm_tool bench-kernels` so both report the
/// same measurement.
std::vector<KernelBenchResult> RunKernelBench(const KernelTable& table,
                                              size_t dim,
                                              size_t batch_rows = 256);

}  // namespace pkgm::simd

#endif  // PKGM_TENSOR_SIMD_KERNEL_BENCH_H_
