#include "tensor/simd/kernel_bench.h"

#include <functional>

#include "util/rng.h"
#include "util/stopwatch.h"

namespace pkgm::simd {
namespace {

// Times `fn` by running batches of calls until ~20ms of wall time has
// accumulated (after a warm-up batch), so one measurement survives timer
// granularity and cold caches without taking seconds per op.
double TimeNsPerCall(const std::function<void()>& fn) {
  constexpr double kMinMillis = 20.0;
  size_t batch = 64;
  fn();  // warm-up: page in the data, settle the frequency governor
  double total_ms = 0.0;
  size_t total_calls = 0;
  while (total_ms < kMinMillis) {
    Stopwatch sw;
    for (size_t i = 0; i < batch; ++i) fn();
    total_ms += sw.ElapsedMillis();
    total_calls += batch;
    if (batch < (1u << 20)) batch *= 2;
  }
  return total_ms * 1e6 / static_cast<double>(total_calls);
}

}  // namespace

std::vector<KernelBenchResult> RunKernelBench(const KernelTable& table,
                                              size_t dim, size_t batch_rows) {
  Rng rng(97);
  std::vector<float> x(dim), y(dim), z(dim);
  std::vector<float> rows(batch_rows * dim), out(batch_rows);
  for (auto& v : x) v = rng.UniformFloat(-1.0f, 1.0f);
  for (auto& v : y) v = rng.UniformFloat(-1.0f, 1.0f);
  for (auto& v : rows) v = rng.UniformFloat(-1.0f, 1.0f);

  const double fdim = static_cast<double>(dim);
  const double frows = static_cast<double>(batch_rows);
  std::vector<KernelBenchResult> results;
  const auto run = [&](const char* op, double bytes_per_call,
                       const std::function<void()>& fn) {
    const double ns = TimeNsPerCall(fn);
    results.push_back({op, ns, bytes_per_call / ns});  // bytes/ns == GB/s
  };

  volatile float sink = 0.0f;
  run("dot", 2 * fdim * 4,
      [&] { sink = table.dot(dim, x.data(), y.data()); });
  run("l1_norm", fdim * 4, [&] { sink = table.l1_norm(dim, x.data()); });
  run("axpy", 3 * fdim * 4,
      [&] { table.axpy(dim, 0.25f, x.data(), z.data()); });
  run("l1_distance", 2 * fdim * 4,
      [&] { sink = table.l1_distance(dim, x.data(), y.data()); });
  run("l1_distance_batch", (frows * fdim + fdim + frows) * 4, [&] {
    table.l1_distance_batch(x.data(), rows.data(), batch_rows, dim,
                            out.data());
  });
  run("gemv_raw", (frows * fdim + fdim + frows) * 4, [&] {
    table.gemv_raw(batch_rows, dim, rows.data(), x.data(), out.data());
  });
  run("residual", 4 * fdim * 4, [&] {
    table.residual(dim, x.data(), y.data(), rows.data(), z.data());
  });
  // The training-side d x d primitives: use a square dim x dim slice of
  // `rows` as the matrix (gemv_t reads it, ger updates it in place).
  std::vector<float> sq(dim * dim);
  for (auto& v : sq) v = rng.UniformFloat(-1.0f, 1.0f);
  run("gemv_t", (fdim * fdim + 2 * fdim) * 4, [&] {
    table.gemv_t(dim, dim, sq.data(), x.data(), z.data());
  });
  run("ger", (2 * fdim * fdim + 2 * fdim) * 4, [&] {
    table.ger(dim, dim, 0.25f, x.data(), y.data(), sq.data());
  });
  // The relation-grouped backward's shapes: kMulti vectors against one
  // matrix, about the side-items per relation in a batch of 512 pairs.
  constexpr size_t kMulti = 8;
  const double fk = static_cast<double>(kMulti);
  std::vector<float> vecs(3 * kMulti * dim);
  for (auto& v : vecs) v = rng.UniformFloat(-1.0f, 1.0f);
  const float* xs[kMulti];
  const float* ys[kMulti];
  float* outs[kMulti];
  float alphas[kMulti];
  for (size_t q = 0; q < kMulti; ++q) {
    xs[q] = vecs.data() + q * dim;
    ys[q] = vecs.data() + (kMulti + q) * dim;
    outs[q] = vecs.data() + (2 * kMulti + q) * dim;
    alphas[q] = q % 2 == 0 ? 0.25f : -0.25f;
  }
  run("gemv_t_multi", (fdim * fdim + 2 * fk * fdim) * 4, [&] {
    table.gemv_t_multi(kMulti, dim, dim, sq.data(), xs, outs);
  });
  run("ger_multi", (2 * fdim * fdim + 2 * fk * fdim) * 4, [&] {
    table.ger_multi(kMulti, dim, dim, alphas, xs, ys, sq.data());
  });
  run("ger_multi_axpy", (2 * fdim * fdim + 2 * fk * fdim) * 4, [&] {
    table.ger_multi_axpy(kMulti, dim, dim, alphas, xs, ys, -0.25f, sq.data());
  });
  std::vector<float> am(dim, 0.0f), av(dim, 0.0f);
  run("adam_row", 5 * fdim * 4, [&] {
    table.adam_row(dim, x.data(), 0.5f, 0.9f, 0.999f, 1e-3f, 1e-8f, z.data(),
                   am.data(), av.data());
  });
  (void)sink;
  return results;
}

}  // namespace pkgm::simd
