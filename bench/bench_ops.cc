// Google-benchmark microbenchmarks for the hot paths: PKGM scoring and
// service functions, negative sampling, the tensor kernels behind them,
// tokenization, and attention forward.
//
// `bench_ops --json <path>` skips the google-benchmark suite and instead
// writes a machine-readable report comparing the scalar kernel table with
// the runtime-dispatched one (ns/op, GB/s, speedup per op at d=64) plus
// end-to-end EvaluateTails triples/sec on the reference per-candidate path
// vs the blocked batch path. CI uploads this file as an artifact.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/link_prediction.h"
#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_store.h"
#include "nn/attention.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/simd/kernel_bench.h"
#include "tensor/simd/kernel_dispatch.h"
#include "text/tokenizer.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace pkgm {
namespace {

// ------------------------------------------------------------ tensor ops --

void BM_Dot(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(1);
  std::vector<float> x(n), y(n);
  UniformInit(n, -1, 1, &rng, x.data());
  UniformInit(n, -1, 1, &rng, y.data());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(n, x.data(), y.data()));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dot)->Arg(64)->Arg(256)->Arg(1024);

void BM_GemvRaw(benchmark::State& state) {
  const size_t d = state.range(0);
  Rng rng(2);
  std::vector<float> m(d * d), x(d), y(d);
  UniformInit(m.size(), -1, 1, &rng, m.data());
  UniformInit(d, -1, 1, &rng, x.data());
  for (auto _ : state) {
    GemvRaw(d, d, m.data(), x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_GemvRaw)->Arg(32)->Arg(64)->Arg(128);

void BM_Gemm(benchmark::State& state) {
  const size_t n = state.range(0);
  Rng rng(3);
  Mat a(n, n), b(n, n), c(n, n);
  UniformInit(a.size(), -1, 1, &rng, a.data());
  UniformInit(b.size(), -1, 1, &rng, b.data());
  for (auto _ : state) {
    Gemm(a, b, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

// ------------------------------------------------------------ PKGM model --

core::PkgmModel& BenchModel(uint32_t dim) {
  static core::PkgmModel* model = nullptr;
  static uint32_t model_dim = 0;
  if (model == nullptr || model_dim != dim) {
    delete model;
    core::PkgmModelOptions opt;
    opt.num_entities = 10000;
    opt.num_relations = 64;
    opt.dim = dim;
    model = new core::PkgmModel(opt);
    model_dim = dim;
  }
  return *model;
}

void BM_TripleScore(benchmark::State& state) {
  core::PkgmModel& model = BenchModel(state.range(0));
  Rng rng(5);
  for (auto _ : state) {
    kg::Triple t{static_cast<kg::EntityId>(rng.Uniform(10000)),
                 static_cast<kg::RelationId>(rng.Uniform(64)),
                 static_cast<kg::EntityId>(rng.Uniform(10000))};
    benchmark::DoNotOptimize(model.TripleScore(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleScore)->Arg(32)->Arg(64)->Arg(128);

void BM_RelationScore(benchmark::State& state) {
  core::PkgmModel& model = BenchModel(state.range(0));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.RelationScore(
        static_cast<kg::EntityId>(rng.Uniform(10000)),
        static_cast<kg::RelationId>(rng.Uniform(64))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelationScore)->Arg(32)->Arg(64)->Arg(128);

void BM_TripleService(benchmark::State& state) {
  core::PkgmModel& model = BenchModel(state.range(0));
  Rng rng(9);
  std::vector<float> out(model.dim());
  for (auto _ : state) {
    model.TripleService(static_cast<kg::EntityId>(rng.Uniform(10000)),
                        static_cast<kg::RelationId>(rng.Uniform(64)),
                        out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleService)->Arg(32)->Arg(64)->Arg(128);

void BM_RelationService(benchmark::State& state) {
  core::PkgmModel& model = BenchModel(state.range(0));
  Rng rng(11);
  std::vector<float> out(model.dim());
  for (auto _ : state) {
    model.RelationService(static_cast<kg::EntityId>(rng.Uniform(10000)),
                          static_cast<kg::RelationId>(rng.Uniform(64)),
                          out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RelationService)->Arg(32)->Arg(64)->Arg(128);

// --------------------------------------------------------------- sampling --

void BM_NegativeSampling(benchmark::State& state) {
  kg::TripleStore store;
  Rng seed_rng(15);
  for (int i = 0; i < 20000; ++i) {
    store.Add(static_cast<kg::EntityId>(seed_rng.Uniform(5000)),
              static_cast<kg::RelationId>(seed_rng.Uniform(32)),
              static_cast<kg::EntityId>(seed_rng.Uniform(5000)));
  }
  core::NegativeSampler::Options opt;
  opt.num_entities = 5000;
  opt.num_relations = 32;
  core::NegativeSampler sampler(opt, &store);
  Rng rng(17);
  const auto& triples = store.triples();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler.Sample(triples[rng.Uniform(triples.size())], &rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NegativeSampling);

// -------------------------------------------------------------- tokenizer --

void BM_TokenizerEncode(benchmark::State& state) {
  text::Tokenizer tok;
  Rng rng(19);
  for (int i = 0; i < 200; ++i) {
    tok.CountCorpusLine("brand_v1 color_v2 size_v3 promo_1 catword_2_3");
  }
  tok.BuildVocab(1);
  const std::string title =
      "brand_v1 color_v2 size_v3 promo_1 catword_2_3 unknown_word";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tok.Encode(title));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenizerEncode);

// -------------------------------------------------------------- attention --

void BM_AttentionForward(benchmark::State& state) {
  const size_t t = state.range(0);
  Rng rng(21);
  nn::MultiHeadSelfAttention attn(64, 4, &rng, "bm");
  Mat x(t, 64), y;
  UniformInit(x.size(), -1, 1, &rng, x.data());
  for (auto _ : state) {
    attn.Forward(x, t, &y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * t);
}
BENCHMARK(BM_AttentionForward)->Arg(16)->Arg(32)->Arg(64);

// ------------------------------------------------------------ json report --

// EvaluateTails throughput (triples/sec) on a TransE model at d=64, with a
// single evaluation thread so the number isolates the scoring path.
double EvalTailsTriplesPerSec(bool batched) {
  core::PkgmModelOptions opt;
  opt.num_entities = 2000;
  opt.num_relations = 16;
  opt.dim = 64;
  opt.use_relation_module = false;
  opt.seed = 23;
  core::PkgmModel model(opt);

  kg::TripleStore known;
  Rng rng(29);
  std::vector<kg::Triple> test;
  for (int i = 0; i < 48; ++i) {
    kg::Triple t{static_cast<kg::EntityId>(rng.Uniform(opt.num_entities)),
                 static_cast<kg::RelationId>(rng.Uniform(opt.num_relations)),
                 static_cast<kg::EntityId>(rng.Uniform(opt.num_entities))};
    known.Add(t.head, t.relation, t.tail);
    test.push_back(t);
  }

  core::LinkPredictionEvaluator::Options eval_opt;
  eval_opt.filtered = true;
  eval_opt.num_threads = 1;
  eval_opt.use_batched_scoring = batched;
  core::LinkPredictionEvaluator eval(&model, &known, eval_opt);
  eval.EvaluateTails(test);  // warm-up
  Stopwatch sw;
  eval.EvaluateTails(test);
  return static_cast<double>(test.size()) / sw.ElapsedSeconds();
}

// Measures the seed-era baseline — per-candidate scoring on scalar
// kernels — by re-running this binary with PKGM_KERNEL=scalar. The kernel
// table is selected once per process and never mutated, so the scalar
// configuration needs its own process. Returns 0.0 if the child fails.
double SeedBaselineTps(const char* argv0, const char* json_path) {
  const std::string tmp = std::string(json_path) + ".tps";
  const std::string cmd = std::string("PKGM_KERNEL=scalar '") + argv0 +
                          "' --eval-tails-tps reference > '" + tmp + "'";
  double tps = 0.0;
  if (std::system(cmd.c_str()) == 0) {
    if (std::FILE* f = std::fopen(tmp.c_str(), "r")) {
      if (std::fscanf(f, "%lf", &tps) != 1) tps = 0.0;
      std::fclose(f);
    }
  }
  std::remove(tmp.c_str());
  return tps;
}

int WriteJsonReport(const char* argv0, const char* path) {
  constexpr size_t kDim = 64;
  const simd::KernelTable& scalar = simd::ScalarKernels();
  const simd::KernelTable& active = simd::Active();
  const auto scalar_results = simd::RunKernelBench(scalar, kDim);
  const auto active_results = simd::RunKernelBench(active, kDim);

  const double seed_tps = SeedBaselineTps(argv0, path);
  const double ref_tps = EvalTailsTriplesPerSec(/*batched=*/false);
  const double batch_tps = EvalTailsTriplesPerSec(/*batched=*/true);

  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_ops: cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(f, "{\n  \"kernel_isa\": \"%s\",\n  \"dim\": %zu,\n",
               simd::ActiveIsaName(), kDim);
  std::fprintf(f, "  \"ops\": {\n");
  for (size_t i = 0; i < scalar_results.size(); ++i) {
    const auto& s = scalar_results[i];
    const auto& a = active_results[i];
    std::fprintf(f,
                 "    \"%s\": {\"scalar_ns_per_op\": %.2f, "
                 "\"dispatched_ns_per_op\": %.2f, \"scalar_gbps\": %.3f, "
                 "\"dispatched_gbps\": %.3f, \"speedup\": %.2f}%s\n",
                 s.op, s.ns_per_op, a.ns_per_op, s.gbps, a.gbps,
                 s.ns_per_op / a.ns_per_op,
                 i + 1 < scalar_results.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"evaluate_tails\": {\"seed_baseline_triples_per_sec\": "
               "%.1f, \"reference_triples_per_sec\": %.1f, "
               "\"batched_triples_per_sec\": %.1f, \"speedup_vs_reference\": "
               "%.2f, \"speedup_vs_seed_baseline\": %.2f}\n}\n",
               seed_tps, ref_tps, batch_tps, batch_tps / ref_tps,
               seed_tps > 0.0 ? batch_tps / seed_tps : 0.0);
  std::fclose(f);
  std::printf("bench_ops: wrote %s (kernels=%s)\n", path,
              simd::ActiveIsaName());
  return 0;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      return pkgm::WriteJsonReport(argv[0], argv[i + 1]);
    }
    // Internal: print EvaluateTails triples/sec for one scoring path, used
    // by --json to measure the scalar baseline in a child process.
    if (std::strcmp(argv[i], "--eval-tails-tps") == 0) {
      const bool batched = std::strcmp(argv[i + 1], "batched") == 0;
      std::printf("%.3f\n", pkgm::EvalTailsTriplesPerSec(batched));
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
