// Kernel parity suite: every vector ISA usable on this machine is compared
// against the scalar reference for each op, across lengths 1..4*width+3
// (deliberately straddling non-multiples of every vector width) and
// deliberately misaligned base pointers.
//
// Tolerance contract (documented in DESIGN.md §10):
//  * Elementwise ops with one rounding per lane (add, sub, hadamard,
//    scale, sign_of) must match the scalar reference bit-for-bit.
//  * axpy may fuse the multiply-add (one rounding instead of two): each
//    element is allowed 1 ulp of drift.
//  * Reductions (dot, norms, l1_distance, and the batch/gemv entry points
//    built on them) reassociate the sum across lanes/accumulators: results
//    must agree within a relative 16 * n * eps bound — loose enough for
//    any bracketing of an n-term fp32 sum, tight enough to catch a wrong
//    element or a dropped tail.
//  * Within one table, l1_distance_batch row i and gemv_raw row i must be
//    bit-identical to the single-row call (ranking-tie contract), and the
//    training kernels must equal their single-row compositions — checked
//    again at the shapes the AVX-512 table register-blocks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"

namespace pkgm::simd {
namespace {

// Largest vector width across ISAs is 16 (AVX-512); the unrolled
// reduction chunks span 4 registers, so cover up to 4*16+3 elements plus
// margin to exercise every remainder path.
constexpr size_t kMaxLen = 4 * 16 + 3;

// Relative tolerance for an n-term reassociated fp32 reduction.
double ReductionTol(size_t n, double magnitude) {
  const double eps = 1.19209290e-7;  // fp32 machine epsilon
  return 16.0 * static_cast<double>(n + 1) * eps * (magnitude + 1.0);
}

std::vector<const KernelTable*> AvailableVectorTables() {
  std::vector<const KernelTable*> tables;
  if (const KernelTable* t = Avx2Kernels()) tables.push_back(t);
  if (const KernelTable* t = Avx512Kernels()) tables.push_back(t);
  if (const KernelTable* t = NeonKernels()) tables.push_back(t);
  return tables;
}

/// Buffer with a controlled misalignment: data() is `offset` floats past a
/// vector-aligned base, so 16-byte/32-byte/64-byte alignment is broken for
/// every offset in 1..3.
struct Misaligned {
  Misaligned(size_t n, size_t offset, uint64_t seed) : storage(n + offset + 1) {
    Rng rng(seed);
    for (auto& v : storage) {
      v = rng.Uniform(1000) / 250.0f - 2.0f;  // [-2, 2), some exact zeros
    }
    ptr = storage.data() + offset;
    size = n;
  }
  std::vector<float> storage;
  float* ptr;
  size_t size;
};

class SimdParityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SimdParityTest, AllOpsMatchScalarReference) {
  const size_t offset = GetParam();
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : AvailableVectorTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa) +
                 " offset=" + std::to_string(offset));
    for (size_t n = 1; n <= kMaxLen; ++n) {
      SCOPED_TRACE("n=" + std::to_string(n));
      Misaligned x(n, offset, 1000 + n), y(n, offset, 2000 + n);

      // Reductions: reassociation tolerance.
      EXPECT_NEAR(table->dot(n, x.ptr, y.ptr), ref.dot(n, x.ptr, y.ptr),
                  ReductionTol(n, std::fabs(ref.dot(n, x.ptr, y.ptr))));
      EXPECT_NEAR(table->l1_norm(n, x.ptr), ref.l1_norm(n, x.ptr),
                  ReductionTol(n, ref.l1_norm(n, x.ptr)));
      EXPECT_NEAR(table->squared_l2_norm(n, x.ptr),
                  ref.squared_l2_norm(n, x.ptr),
                  ReductionTol(n, ref.squared_l2_norm(n, x.ptr)));
      EXPECT_NEAR(table->l1_distance(n, x.ptr, y.ptr),
                  ref.l1_distance(n, x.ptr, y.ptr),
                  ReductionTol(n, ref.l1_distance(n, x.ptr, y.ptr)));

      // Elementwise ops: bit-for-bit.
      std::vector<float> got(n), want(n);
      table->add(n, x.ptr, y.ptr, got.data());
      ref.add(n, x.ptr, y.ptr, want.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)));

      table->sub(n, x.ptr, y.ptr, got.data());
      ref.sub(n, x.ptr, y.ptr, want.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)));

      table->hadamard(n, x.ptr, y.ptr, got.data());
      ref.hadamard(n, x.ptr, y.ptr, want.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)));

      table->sign_of(n, x.ptr, got.data());
      ref.sign_of(n, x.ptr, want.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)));

      std::copy(x.ptr, x.ptr + n, got.begin());
      std::copy(x.ptr, x.ptr + n, want.begin());
      table->scale(n, 1.75f, got.data());
      ref.scale(n, 1.75f, want.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)));

      // axpy: FMA is allowed one rounding of drift per element.
      std::copy(y.ptr, y.ptr + n, got.begin());
      std::copy(y.ptr, y.ptr + n, want.begin());
      table->axpy(n, 0.37f, x.ptr, got.data());
      ref.axpy(n, 0.37f, x.ptr, want.data());
      for (size_t i = 0; i < n; ++i) {
        EXPECT_NEAR(got[i], want[i],
                    2.0f * 1.19209290e-7f * (std::fabs(want[i]) + 1.0f));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, SimdParityTest,
                         ::testing::Values<size_t>(0, 1, 2, 3));

TEST(SimdBatchConsistencyTest, BatchAndGemvRowsMatchSingleRowCallsExactly) {
  // The ranking-tie contract: within a table, scoring a row inside a batch
  // must equal scoring it alone, bit-for-bit, for every dim remainder.
  std::vector<const KernelTable*> tables = AvailableVectorTables();
  tables.push_back(&ScalarKernels());
  for (const KernelTable* table : tables) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t dim = 1; dim <= kMaxLen; dim += 7) {
      const size_t rows = 5;
      Misaligned q(dim, 1, 31 * dim), block(rows * dim, 1, 37 * dim);
      std::vector<float> out(rows);
      table->l1_distance_batch(q.ptr, block.ptr, rows, dim, out.data());
      for (size_t i = 0; i < rows; ++i) {
        const float single = table->l1_distance(dim, q.ptr, block.ptr + i * dim);
        EXPECT_EQ(out[i], single) << "dim=" << dim << " row=" << i;
      }
      table->gemv_raw(rows, dim, block.ptr, q.ptr, out.data());
      for (size_t i = 0; i < rows; ++i) {
        const float single = table->dot(dim, block.ptr + i * dim, q.ptr);
        EXPECT_EQ(out[i], single) << "dim=" << dim << " row=" << i;
      }
    }
  }
}

TEST(SimdTrainingKernelsTest, ResidualMatchesScalarBitForBit) {
  // residual is elementwise with the same two roundings per lane in every
  // table, so it inherits the bit-for-bit elementwise contract.
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : AvailableVectorTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t offset = 0; offset <= 3; ++offset) {
      for (size_t n = 1; n <= kMaxLen; ++n) {
        Misaligned x(n, offset, 100 + n), y(n, offset, 200 + n),
            z(n, offset, 300 + n);
        std::vector<float> got(n), want(n);
        table->residual(n, x.ptr, y.ptr, z.ptr, got.data());
        ref.residual(n, x.ptr, y.ptr, z.ptr, want.data());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)))
            << "offset=" << offset << " n=" << n;
      }
    }
  }
}

TEST(SimdTrainingKernelsTest, AdamRowMatchesScalarBitForBit) {
  // adam_row deliberately avoids FMA in every table so the optimizer state
  // is identical whatever ISA trained the model.
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : AvailableVectorTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t offset = 0; offset <= 3; ++offset) {
      for (size_t n = 1; n <= kMaxLen; ++n) {
        Misaligned g(n, offset, 400 + n), row0(n, offset, 500 + n),
            m0(n, offset, 600 + n), v0(n, offset, 700 + n);
        // Second moment must be non-negative.
        for (size_t i = 0; i < n; ++i) {
          v0.ptr[i] = std::fabs(v0.ptr[i]);
        }
        std::vector<float> row_a(row0.ptr, row0.ptr + n),
            m_a(m0.ptr, m0.ptr + n), v_a(v0.ptr, v0.ptr + n);
        std::vector<float> row_b(row_a), m_b(m_a), v_b(v_a);
        table->adam_row(n, g.ptr, 0.125f, 0.9f, 0.999f, 0.01f, 1e-8f,
                        row_a.data(), m_a.data(), v_a.data());
        ref.adam_row(n, g.ptr, 0.125f, 0.9f, 0.999f, 0.01f, 1e-8f,
                     row_b.data(), m_b.data(), v_b.data());
        EXPECT_EQ(0, std::memcmp(row_a.data(), row_b.data(),
                                 n * sizeof(float)))
            << "offset=" << offset << " n=" << n;
        EXPECT_EQ(0, std::memcmp(m_a.data(), m_b.data(), n * sizeof(float)));
        EXPECT_EQ(0, std::memcmp(v_a.data(), v_b.data(), n * sizeof(float)));
      }
    }
  }
}

TEST(SimdTrainingKernelsTest, GemvTransposedMatchesAxpyCompositionExactly) {
  // Within one table, y = A^T x must be exactly "zero y, then axpy each
  // row of A scaled by x[i], in row order" — the same sequence the fused
  // backward would otherwise issue. Cross-table agreement then follows
  // from the axpy contract (checked against scalar with 1-ulp drift).
  std::vector<const KernelTable*> tables = AvailableVectorTables();
  tables.push_back(&ScalarKernels());
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : tables) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t n = 1; n <= kMaxLen; n += 5) {
      const size_t m = 6;
      Misaligned a(m * n, 1, 41 * n), x(m, 1, 43 * n);
      x.ptr[2 % m] = 0.0f;  // exercise zero coefficients
      std::vector<float> got(n), want(n, 0.0f);
      table->gemv_t(m, n, a.ptr, x.ptr, got.data());
      for (size_t i = 0; i < m; ++i) {
        table->axpy(n, x.ptr[i], a.ptr + i * n, want.data());
      }
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)))
          << "n=" << n;
      // Cross-table: reassociation-free per element, so compare to the
      // scalar result with the per-element axpy tolerance times m terms.
      std::vector<float> scalar_y(n);
      ref.gemv_t(m, n, a.ptr, x.ptr, scalar_y.data());
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(got[j], scalar_y[j],
                    ReductionTol(m, std::fabs(scalar_y[j])))
            << "n=" << n << " j=" << j;
      }
    }
  }
}

TEST(SimdTrainingKernelsTest, GerMatchesPerRowAxpyExactly) {
  // A += alpha * x y^T: row i must be exactly axpy(alpha*x[i], y, row_i),
  // and rows with x[i] == 0 must not be touched at all.
  std::vector<const KernelTable*> tables = AvailableVectorTables();
  tables.push_back(&ScalarKernels());
  for (const KernelTable* table : tables) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t n = 1; n <= kMaxLen; n += 5) {
      const size_t m = 6;
      Misaligned a0(m * n, 1, 51 * n), x(m, 1, 53 * n), y(n, 1, 57 * n);
      x.ptr[1] = 0.0f;  // a skipped row
      std::vector<float> got(a0.ptr, a0.ptr + m * n),
          want(a0.ptr, a0.ptr + m * n);
      table->ger(m, n, 0.75f, x.ptr, y.ptr, got.data());
      for (size_t i = 0; i < m; ++i) {
        if (x.ptr[i] == 0.0f) continue;
        table->axpy(n, 0.75f * x.ptr[i], y.ptr, want.data() + i * n);
      }
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               m * n * sizeof(float)))
          << "n=" << n;
      EXPECT_EQ(0, std::memcmp(got.data() + n, a0.ptr + n, n * sizeof(float)))
          << "skipped row was modified, n=" << n;
    }
  }
}

// The register-blocked shapes: 16-row gemv_raw blocks, 16-column chunks
// in 64-column panels, and a remainder on either side of each.
constexpr size_t kBlockedRows[] = {1, 15, 16, 17, 64, 65};
constexpr size_t kBlockedCols[] = {1, 15, 16, 17, 63, 64, 65, 128};

std::vector<const KernelTable*> AllUsableTables() {
  std::vector<const KernelTable*> tables = AvailableVectorTables();
  tables.push_back(&ScalarKernels());
  return tables;
}

// Bytes of `got` and `want` agree (so -0.0f and +0.0f differ).
bool SameBits(const std::vector<float>& got, const std::vector<float>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0;
}

TEST(SimdBlockedKernelsTest, GemvRawRowsMatchDotAtBlockedShapes) {
  for (const KernelTable* table : AllUsableTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t m : kBlockedRows) {
      for (size_t n : kBlockedCols) {
        Misaligned a(m * n, 1, 3 * m + n), x(n, 3, 5 * m + n);
        std::vector<float> y(m);
        table->gemv_raw(m, n, a.ptr, x.ptr, y.data());
        for (size_t i = 0; i < m; ++i) {
          const float single = table->dot(n, a.ptr + i * n, x.ptr);
          ASSERT_EQ(0, std::memcmp(&y[i], &single, sizeof(float)))
              << "m=" << m << " n=" << n << " row=" << i;
        }
      }
    }
  }
}

TEST(SimdBlockedKernelsTest, GemvTMatchesZeroThenAxpyAtBlockedShapes) {
  for (const KernelTable* table : AllUsableTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t m : kBlockedRows) {
      for (size_t n : kBlockedCols) {
        Misaligned a(m * n, 1, 7 * m + n), x(m, 2, 11 * m + n);
        x.ptr[0] = 0.0f;
        x.ptr[m / 2] = -0.0f;
        std::vector<float> got(n), want(n, 0.0f);
        table->gemv_t(m, n, a.ptr, x.ptr, got.data());
        for (size_t i = 0; i < m; ++i) {
          table->axpy(n, x.ptr[i], a.ptr + i * n, want.data());
        }
        ASSERT_TRUE(SameBits(got, want)) << "m=" << m << " n=" << n;
      }
    }
  }
}

TEST(SimdBlockedKernelsTest, GerMatchesPerRowAxpyAtBlockedShapes) {
  for (const KernelTable* table : AllUsableTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t m : kBlockedRows) {
      for (size_t n : kBlockedCols) {
        Misaligned a0(m * n, 3, 13 * m + n), x(m, 1, 17 * m + n),
            y(n, 2, 19 * m + n);
        x.ptr[m - 1] = 0.0f;
        x.ptr[m / 2] = -0.0f;
        // -0.0f entries in skipped rows: an update by a zero coefficient
        // would turn them into +0.0f.
        a0.ptr[(m - 1) * n] = -0.0f;
        a0.ptr[(m / 2) * n] = -0.0f;
        // A zero alpha still updates the rows with x[i] != 0.
        for (float alpha : {0.75f, 0.0f, -0.0f}) {
          std::vector<float> got(a0.ptr, a0.ptr + m * n), want(got);
          table->ger(m, n, alpha, x.ptr, y.ptr, got.data());
          for (size_t i = 0; i < m; ++i) {
            if (x.ptr[i] == 0.0f) continue;
            table->axpy(n, alpha * x.ptr[i], y.ptr, want.data() + i * n);
          }
          ASSERT_TRUE(SameBits(got, want))
              << "m=" << m << " n=" << n << " alpha=" << alpha;
          ASSERT_EQ(0, std::memcmp(got.data() + (m - 1) * n,
                                   a0.ptr + (m - 1) * n, n * sizeof(float)))
              << "skipped row was modified, m=" << m << " n=" << n;
        }
      }
    }
  }
}

TEST(SimdBlockedKernelsTest, MultiEntriesMatchSingleCallSequences) {
  // Within a table, gemv_t_multi and ger_multi must equal k single calls
  // in order — the relation-grouped backward is bit-identical to the
  // per-pair one only if they do. Zero and -0.0f coefficients (skipped
  // ger rows, and alphas that multiply to a signed zero) are included.
  for (const KernelTable* table : AllUsableTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    // k = 15 runs the AVX-512 table's blocks of 8, 4, 2 and 1 vectors.
    for (size_t k : {1, 2, 3, 5, 8, 15}) {
      for (size_t m : kBlockedRows) {
        for (size_t n : kBlockedCols) {
          SCOPED_TRACE("k=" + std::to_string(k) + " m=" + std::to_string(m) +
                       " n=" + std::to_string(n));
          Misaligned a0(m * n, 1, 23 * m + n + k);
          a0.ptr[m * n - 1] = -0.0f;
          std::vector<Misaligned> xs, ys;
          std::vector<const float*> xp, yp;
          xs.reserve(k);
          ys.reserve(k);
          // alphas[1] and alphas[2] are +0 and -0; every xs[q] has a zero.
          std::vector<float> alphas = {0.5f, 0.0f, -0.0f, -1.25f};
          alphas.resize(k, 0.75f);
          for (size_t q = 0; q < k; ++q) {
            xs.emplace_back(m, q % 4, 29 * m + n + q);
            ys.emplace_back(n, (q + 1) % 4, 31 * m + n + q);
            xs.back().ptr[q % m] = q % 2 == 0 ? 0.0f : -0.0f;
            // A -0.0f in that row reveals an update that was not skipped.
            a0.ptr[(q % m) * n + q % n] = -0.0f;
            xp.push_back(xs.back().ptr);
            yp.push_back(ys.back().ptr);
          }

          std::vector<std::vector<float>> got(k, std::vector<float>(n)),
              want(k, std::vector<float>(n));
          std::vector<float*> outs;
          for (auto& g : got) outs.push_back(g.data());
          table->gemv_t_multi(k, m, n, a0.ptr, xp.data(), outs.data());
          for (size_t q = 0; q < k; ++q) {
            table->gemv_t(m, n, a0.ptr, xp[q], want[q].data());
            ASSERT_TRUE(SameBits(got[q], want[q])) << "gemv_t_multi q=" << q;
          }

          std::vector<float> a_got(a0.ptr, a0.ptr + m * n), a_want(a_got);
          table->ger_multi(k, m, n, alphas.data(), xp.data(), yp.data(),
                           a_got.data());
          for (size_t q = 0; q < k; ++q) {
            table->ger(m, n, alphas[q], xp[q], yp[q], a_want.data());
          }
          ASSERT_TRUE(SameBits(a_got, a_want)) << "ger_multi";
        }
      }
    }
  }
}

TEST(SimdInferenceKernelsTest, GemmBiasMatchesGemmThenBiasCompositionExactly) {
  // The fused linear forward: within a table, row i must equal "zero the
  // row, axpy each B row scaled by A(i,p) in p order, then axpy the bias"
  // — exactly the composition nn::Linear::Forward used before the fusion,
  // so rewiring Linear onto gemm_bias changes no bits.
  std::vector<const KernelTable*> tables = AvailableVectorTables();
  tables.push_back(&ScalarKernels());
  for (const KernelTable* table : tables) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t n = 1; n <= kMaxLen; n += 5) {
      const size_t m = 4, k = 6;
      Misaligned a(m * k, 1, 61 * n), b(k * n, 1, 67 * n), bias(n, 1, 71 * n);
      std::vector<float> got(m * n), want(m * n, 0.0f);
      table->gemm_bias(m, k, n, a.ptr, b.ptr, bias.ptr, got.data());
      for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p) {
          table->axpy(n, a.ptr[i * k + p], b.ptr + p * n, want.data() + i * n);
        }
        table->axpy(n, 1.0f, bias.ptr, want.data() + i * n);
      }
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), m * n * sizeof(float)))
          << "n=" << n;
      // nullptr bias = plain C = A B.
      std::vector<float> no_bias(m * n), want_nb(m * n, 0.0f);
      table->gemm_bias(m, k, n, a.ptr, b.ptr, nullptr, no_bias.data());
      for (size_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < k; ++p) {
          table->axpy(n, a.ptr[i * k + p], b.ptr + p * n,
                      want_nb.data() + i * n);
        }
      }
      EXPECT_EQ(0, std::memcmp(no_bias.data(), want_nb.data(),
                               m * n * sizeof(float)))
          << "n=" << n;
    }
  }
}

TEST(SimdInferenceKernelsTest, GemmBiasBatchRowsMatchSingleRowCallsExactly) {
  // Batch invariance: row i of an m-row forward must equal a 1-row forward
  // of that row alone — the property the serving-vs-offline inference
  // parity tests lean on.
  std::vector<const KernelTable*> tables = AvailableVectorTables();
  tables.push_back(&ScalarKernels());
  for (const KernelTable* table : tables) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    const size_t m = 5, k = 7, n = 19;
    Misaligned a(m * k, 1, 73), b(k * n, 1, 79), bias(n, 1, 83);
    std::vector<float> batch(m * n), single(n);
    table->gemm_bias(m, k, n, a.ptr, b.ptr, bias.ptr, batch.data());
    for (size_t i = 0; i < m; ++i) {
      table->gemm_bias(1, k, n, a.ptr + i * k, b.ptr, bias.ptr, single.data());
      EXPECT_EQ(0, std::memcmp(batch.data() + i * n, single.data(),
                               n * sizeof(float)))
          << "row=" << i;
    }
  }
}

TEST(SimdInferenceKernelsTest, SoftmaxMatchesScalarBitForBit) {
  // softmax keeps exp scalar and the normalizing sum left-to-right in
  // every table, so unlike the reassociating reductions it must match the
  // scalar reference bit-for-bit (the probabilities go out on the wire).
  const KernelTable& ref = ScalarKernels();
  for (const KernelTable* table : AvailableVectorTables()) {
    SCOPED_TRACE(std::string("isa=") + KernelIsaName(table->isa));
    for (size_t offset = 0; offset <= 3; ++offset) {
      for (size_t n = 1; n <= kMaxLen; ++n) {
        Misaligned x(n, offset, 800 + n);
        std::vector<float> got(x.ptr, x.ptr + n), want(x.ptr, x.ptr + n);
        table->softmax(n, got.data());
        ref.softmax(n, want.data());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(), n * sizeof(float)))
            << "offset=" << offset << " n=" << n;
        // Sanity: a probability distribution.
        float sum = 0.0f;
        for (float p : got) {
          EXPECT_GE(p, 0.0f);
          sum += p;
        }
        EXPECT_NEAR(sum, 1.0f, 1e-4f);
      }
    }
  }
}

TEST(SimdDispatchTest, ScalarAlwaysAvailableAndDetectionConsistent) {
  EXPECT_EQ(ScalarKernels().isa, KernelIsa::kScalar);
  const KernelIsa best = DetectBestIsa();
  const KernelTable* table = KernelsForIsa(best);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->isa, best);
  // Active() is one of the usable tables and reports a stable name.
  EXPECT_NE(KernelsForIsa(Active().isa), nullptr);
  EXPECT_STREQ(ActiveIsaName(), KernelIsaName(Active().isa));
}

TEST(SimdDispatchTest, ParseKernelIsaRoundTrips) {
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2,
                        KernelIsa::kAvx512, KernelIsa::kNeon}) {
    KernelIsa parsed;
    ASSERT_TRUE(ParseKernelIsa(KernelIsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  KernelIsa parsed;
  EXPECT_FALSE(ParseKernelIsa("sse9", &parsed));
  EXPECT_FALSE(ParseKernelIsa(nullptr, &parsed));
}

TEST(SimdDispatchTest, EnvOverrideRoundTripsThroughActiveIsa) {
  // The PKGM_KERNEL contract: when the env var names a usable ISA, the
  // process-wide Active() table must be exactly that ISA. The CI scalar
  // matrix leg runs the whole suite with PKGM_KERNEL=scalar, making this
  // a real round-trip assertion of the override path.
  const char* env = std::getenv("PKGM_KERNEL");
  if (env == nullptr || *env == '\0') {
    GTEST_SKIP() << "PKGM_KERNEL not set; override path not exercised";
  }
  KernelIsa requested;
  if (!ParseKernelIsa(env, &requested) ||
      KernelsForIsa(requested) == nullptr) {
    GTEST_SKIP() << "PKGM_KERNEL=" << env << " not usable on this machine";
  }
  EXPECT_EQ(Active().isa, requested);
  EXPECT_STREQ(ActiveIsaName(), env);
}

}  // namespace
}  // namespace pkgm::simd
