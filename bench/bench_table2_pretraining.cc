// Reproduces Table II (PKG-sub pre-training statistics) and the §III-A2
// training-details paragraph: dataset shape after the MaxCompute-style ETL
// frequency filter, then PKGM pre-training with both the single-threaded
// trainer and the parameter-server simulation, reporting loss convergence
// and throughput.
//
// `--json <path>` writes a machine-readable throughput report (same artifact
// convention as bench_ops): the seed-era baseline — map-of-vectors SparseGrad
// plus reference gradients on scalar kernels, measured in a child process
// pinned with PKGM_KERNEL=scalar — against the fused single-threaded Trainer
// and the pipelined ShardedTrainer at 8 workers, all at d=64 on the same
// synthetic PKG with the same SGD hyper-parameters.
//
// `--distributed [N]` adds the true parameter-server path: N in-process
// ParamServer shards behind epoll NetServers on loopback, driven by a
// DistTrainer over real TCP, so the JSON also records distributed
// throughput vs the in-memory sharded plateau and the final-hinge ratio
// between the two.
//
// `--smoke` shrinks the PKG and epoch counts for CI and self-asserts that
// training converges (mean hinge decreases), the throughput fields are
// populated, and (with --distributed) the distributed final hinge lands
// within 2% of the sharded trainer's; exits non-zero on failure.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_common.h"
#include "core/gradients.h"
#include "core/pkgm_model.h"
#include "core/sharded_trainer.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "dist/param_server.h"
#include "kg/synthetic_pkg.h"
#include "net/net_server.h"
#include "tensor/ops.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

void Run() {
  bench::PrintHeader("Table II: statistics of PKG-sub for pre-training");
  bench::PrintScaleNote();

  tasks::PipelineOptions opt = bench::BenchPipelineOptions();
  Stopwatch gen_sw;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt.pkg).Generate();
  std::printf("\nsynthetic PKG generated in %.2fs\n", gen_sw.ElapsedSeconds());

  {
    TablePrinter t({"", "# items", "# entity", "# relation", "# triples"});
    t.AddRow({"paper PKG-sub", "142,634,045", "142,641,094", "426",
              "1,366,109,966"});
    t.AddRow({"ours (synthetic)", WithThousandsSeparators(pkg.items.size()),
              WithThousandsSeparators(pkg.entities.size()),
              WithThousandsSeparators(pkg.relations.size()),
              WithThousandsSeparators(pkg.observed.size())});
    std::printf("%s", t.ToString().c_str());
  }

  std::printf(
      "\nETL frequency filter (paper: drop attributes with < 5000\n"
      "occurrences; ours: < %u): dropped %llu triples across %u relations\n",
      opt.pkg.etl_min_occurrence,
      static_cast<unsigned long long>(pkg.etl_dropped_triples),
      pkg.etl_dropped_relations);
  std::printf("held-out (unfilled) attribute triples for completion eval: %s\n",
              WithThousandsSeparators(pkg.held_out.size()).c_str());

  bench::PrintHeader("§III-A2: pre-training details");
  std::printf(
      "paper: TensorFlow + Graph-learn, Adam lr 1e-4, batch 1000, d=64,\n"
      "1 negative/edge, 50 parameter servers + 200 workers, 2 epochs, 15h,\n"
      "model size 88GB.\n\n");

  // --- single-threaded reference trainer --------------------------------
  core::PkgmModelOptions model_opt;
  model_opt.num_entities = pkg.entities.size();
  model_opt.num_relations = pkg.relations.size();
  model_opt.dim = opt.dim;
  model_opt.seed = opt.seed;
  {
    core::PkgmModel model(model_opt);
    const double params =
        static_cast<double>(model.num_entities()) * model.dim() +
        static_cast<double>(model.num_relations()) * model.dim() +
        static_cast<double>(model.num_relations()) * model.dim() * model.dim();
    std::printf("ours: d=%u, %.2fM parameters (%.1f MB float32)\n", opt.dim,
                params / 1e6, params * 4 / 1e6);

    core::Trainer trainer(&model, &pkg.observed, opt.trainer);
    TablePrinter t({"epoch", "mean hinge", "active pairs", "triples/s"});
    Stopwatch sw;
    for (uint32_t e = 1; e <= opt.pretrain_epochs; ++e) {
      core::EpochStats s = trainer.RunEpoch();
      if (e == 1 || e % 5 == 0 || e == opt.pretrain_epochs) {
        t.AddRow({StrFormat("%u", e), StrFormat("%.4f", s.mean_hinge),
                  WithThousandsSeparators(s.active_pairs),
                  WithThousandsSeparators(
                      static_cast<uint64_t>(s.triples_per_second))});
      }
    }
    std::printf("\nsingle-threaded trainer (%u epochs in %.1fs):\n%s",
                opt.pretrain_epochs, sw.ElapsedSeconds(),
                t.ToString().c_str());
  }

  // --- parameter-server simulation ---------------------------------------
  {
    core::PkgmModel model(model_opt);
    core::ShardedTrainerOptions sharded;
    sharded.num_workers = 4;   // paper: 200 workers
    sharded.batch_size = 512;
    sharded.learning_rate = 0.05f;
    sharded.seed = opt.seed;
    core::ShardedTrainer trainer(&model, &pkg.observed, sharded);
    TablePrinter t({"epoch", "mean hinge", "active pairs", "triples/s"});
    Stopwatch sw;
    for (uint32_t e = 1; e <= opt.pretrain_epochs; ++e) {
      core::EpochStats s = trainer.RunEpoch();
      if (e == 1 || e % 5 == 0 || e == opt.pretrain_epochs) {
        t.AddRow({StrFormat("%u", e), StrFormat("%.4f", s.mean_hinge),
                  WithThousandsSeparators(s.active_pairs),
                  WithThousandsSeparators(
                      static_cast<uint64_t>(s.triples_per_second))});
      }
    }
    std::printf(
        "\nparameter-server simulation, %u workers "
        "(%u epochs in %.1fs):\n%s",
        sharded.num_workers, opt.pretrain_epochs,
        sw.ElapsedSeconds(), t.ToString().c_str());
  }
}

// ---------------------------------------------------------------------------
// --json / --smoke measurement path
// ---------------------------------------------------------------------------

// One fixed configuration shared by the seed baseline, the fused
// single-threaded trainer, and the pipelined sharded trainer, so the JSON
// speedups compare like with like (same PKG, same SGD hyper-parameters).
struct PretrainConfig {
  kg::SyntheticPkgOptions pkg;
  uint32_t dim = 64;  // paper §III-A2
  uint32_t epochs = 5;
  uint32_t seed_epochs = 2;  // seed loop is slow; fewer epochs suffice
  uint32_t workers = 8;
  uint32_t batch = 512;
  float lr = 0.05f;
  float margin = 2.0f;
  uint64_t seed = 2021;
  bool smoke = false;
};

PretrainConfig MakeConfig(bool smoke) {
  PretrainConfig c;
  c.pkg = bench::BenchPipelineOptions().pkg;
  c.smoke = smoke;
  if (smoke) {
    c.pkg.num_categories = 4;
    c.pkg.items_per_category = 60;
    c.pkg.properties_per_category = 6;
    c.pkg.shared_property_pool = 8;
    c.pkg.values_per_property = 12;
    c.pkg.products_per_category = 10;
    c.pkg.noise_properties = 4;
    c.dim = 16;
    c.epochs = 5;
    c.seed_epochs = 1;
    c.workers = 2;
    // The smoke KG is ~1k triples; smaller batches give each epoch enough
    // optimizer steps that the hinge-decrease assertion is stable.
    c.batch = 128;
  }
  return c;
}

core::PkgmModelOptions ModelOptionsFor(const kg::SyntheticPkg& pkg,
                                       const PretrainConfig& c) {
  core::PkgmModelOptions mo;
  mo.num_entities = pkg.entities.size();
  mo.num_relations = pkg.relations.size();
  mo.dim = c.dim;
  mo.seed = c.seed;
  return mo;
}

// The seed-era training loop, reproduced verbatim: map-of-vectors SparseGrad
// rebuilt every batch, reference AccumulateHingeGradients, per-row SGD apply,
// touched-entity set for normalization. Run in a child process with
// PKGM_KERNEL=scalar this is the pre-optimization engine the JSON speedups
// are measured against.
double SeedTrainerTps(const PretrainConfig& c) {
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(c.pkg).Generate();
  core::PkgmModel model(ModelOptionsFor(pkg, c));
  core::NegativeSampler::Options nopt;
  nopt.num_entities = model.num_entities();
  nopt.num_relations = model.num_relations();
  core::NegativeSampler sampler(nopt, &pkg.observed);
  Rng rng(c.seed);

  Stopwatch sw;
  uint64_t total = 0;
  for (uint32_t e = 0; e < c.seed_epochs; ++e) {
    std::vector<kg::Triple> triples = pkg.observed.triples();
    rng.Shuffle(&triples);
    total += triples.size();

    core::SparseGrad grad;
    std::unordered_set<uint32_t> touched;
    size_t batch_start = 0;
    while (batch_start < triples.size()) {
      const size_t batch_end =
          std::min(batch_start + c.batch, triples.size());
      grad.Clear();
      touched.clear();
      for (size_t i = batch_start; i < batch_end; ++i) {
        const kg::Triple& pos = triples[i];
        core::NegativeSample neg = sampler.Sample(pos, &rng);
        const float hinge = core::AccumulateHingeGradients(
            model, pos, neg.triple, c.margin, &grad);
        if (hinge > 0.0f) {
          touched.insert(pos.head);
          touched.insert(pos.tail);
          touched.insert(neg.triple.head);
          touched.insert(neg.triple.tail);
        }
      }
      if (!grad.empty()) {
        const float alpha =
            -c.lr / static_cast<float>(batch_end - batch_start);
        const uint32_t d = model.dim();
        for (const auto& [id, g] : grad.entities()) {
          Axpy(d, alpha, g.data(), model.entity(id));
        }
        for (const auto& [id, g] : grad.relations()) {
          Axpy(d, alpha, g.data(), model.relation(id));
        }
        for (const auto& [id, g] : grad.transfers()) {
          Axpy(d * d, alpha, g.data(), model.transfer(id));
        }
        for (uint32_t ent : touched) model.NormalizeEntity(ent);
      }
      batch_start = batch_end;
    }
  }
  const double secs = sw.ElapsedSeconds();
  return secs > 0 ? static_cast<double>(total) / secs : 0.0;
}

// Measures the seed baseline by re-running this binary with
// PKGM_KERNEL=scalar: the kernel table is chosen once per process, so the
// scalar configuration needs its own process (same trick as bench_ops).
// Returns 0.0 if the child fails.
double SeedBaselineTps(const char* argv0, const std::string& tmp_base,
                       bool smoke) {
  const std::string tmp = tmp_base + ".tps";
  std::string cmd = std::string("PKGM_KERNEL=scalar '") + argv0 +
                    "' --seed-trainer-tps";
  if (smoke) cmd += " --smoke";
  cmd += " > '" + tmp + "'";
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

struct TrainResult {
  double tps = 0.0;
  std::vector<double> hinge;  // mean hinge per epoch
};

TrainResult RunFusedSingle(const kg::SyntheticPkg& pkg,
                           const PretrainConfig& c) {
  core::PkgmModel model(ModelOptionsFor(pkg, c));
  core::TrainerOptions topt;
  topt.batch_size = c.batch;
  topt.learning_rate = c.lr;
  topt.margin = c.margin;
  topt.optimizer = core::OptimizerKind::kSgd;
  topt.seed = c.seed;
  core::Trainer trainer(&model, &pkg.observed, topt);

  TrainResult r;
  double secs = 0.0;
  uint64_t total = 0;
  for (uint32_t e = 0; e < c.epochs; ++e) {
    core::EpochStats s = trainer.RunEpoch();
    r.hinge.push_back(s.mean_hinge);
    secs += s.seconds;
    total += s.total_pairs;
  }
  r.tps = secs > 0 ? static_cast<double>(total) / secs : 0.0;
  return r;
}

TrainResult RunSharded(const kg::SyntheticPkg& pkg, const PretrainConfig& c) {
  core::PkgmModel model(ModelOptionsFor(pkg, c));
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = c.workers;
  sopt.batch_size = c.batch;
  sopt.learning_rate = c.lr;
  sopt.margin = c.margin;
  sopt.seed = c.seed;
  core::ShardedTrainer trainer(&model, &pkg.observed, sopt);

  TrainResult r;
  double secs = 0.0;
  uint64_t total = 0;
  for (uint32_t e = 0; e < c.epochs; ++e) {
    core::EpochStats s = trainer.RunEpoch();
    r.hinge.push_back(s.mean_hinge);
    secs += s.seconds;
    total += s.total_pairs;
  }
  r.tps = secs > 0 ? static_cast<double>(total) / secs : 0.0;
  return r;
}

struct DistResult {
  TrainResult train;
  uint64_t pulls = 0;
  uint64_t pushes = 0;
  bool ok = false;
};

// The true distributed path, run in-process for the bench: each shard is a
// ParamServer behind its own epoll NetServer on an ephemeral loopback port,
// and the DistTrainer drives them over real TCP — full wire encode / CRC /
// decode cost on every pull and push, unlike the in-memory ShardedTrainer
// it is compared against.
DistResult RunDistributed(const kg::SyntheticPkg& pkg,
                          const PretrainConfig& c, uint32_t num_shards) {
  DistResult r;
  std::vector<std::unique_ptr<dist::ParamServer>> shards;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<std::string> endpoints;
  for (uint32_t s = 0; s < num_shards; ++s) {
    dist::ParamServerOptions popt;
    popt.shard_index = s;
    popt.num_shards = num_shards;
    popt.model = ModelOptionsFor(pkg, c);
    popt.optimizer = core::OptimizerKind::kSgd;
    popt.learning_rate = c.lr;
    shards.push_back(std::make_unique<dist::ParamServer>(popt));
    net::NetServerOptions nopt;
    nopt.bind_address = "127.0.0.1";
    nopt.port = 0;
    servers.push_back(
        std::make_unique<net::NetServer>(shards.back().get(), nopt));
    Status started = servers.back()->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "distributed shard %u: %s\n", s,
                   started.ToString().c_str());
      for (size_t i = 0; i < servers.size() - 1; ++i) servers[i]->Stop();
      return r;
    }
    endpoints.push_back(
        StrFormat("127.0.0.1:%u", servers.back()->port()));
  }

  {
    dist::DistTrainerOptions dopt;
    dopt.shard_endpoints = endpoints;
    dopt.num_workers = c.workers;
    dopt.batch_size = c.batch;
    dopt.learning_rate = c.lr;
    dopt.margin = c.margin;
    dopt.seed = c.seed;
    dist::DistTrainer trainer(&pkg.observed, dopt);
    Status st = trainer.Connect();
    if (st.ok()) {
      double secs = 0.0;
      uint64_t total = 0;
      for (uint32_t e = 0; e < c.epochs && st.ok(); ++e) {
        StatusOr<core::EpochStats> s = trainer.RunEpoch();
        if (!s.ok()) {
          st = s.status();
          break;
        }
        r.train.hinge.push_back(s->mean_hinge);
        secs += s->seconds;
        total += s->total_pairs;
      }
      if (st.ok()) {
        r.train.tps = secs > 0 ? static_cast<double>(total) / secs : 0.0;
        r.pulls = trainer.pulls();
        r.pushes = trainer.pushes();
        r.ok = true;
      }
    }
    if (!st.ok()) {
      std::fprintf(stderr, "distributed training: %s\n",
                   st.ToString().c_str());
    }
  }

  // Parked barrier responds count as outstanding frames: abort before the
  // drain waits on them.
  for (auto& shard : shards) shard->AbortBarriers();
  for (auto& server : servers) server->Stop();
  return r;
}

void PrintHingeArray(std::FILE* f, const std::vector<double>& hinge) {
  std::fprintf(f, "[");
  for (size_t i = 0; i < hinge.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? ", " : "", hinge[i]);
  }
  std::fprintf(f, "]");
}

int RunJson(const char* argv0, const char* path, bool smoke,
            uint32_t dist_shards) {
  const PretrainConfig c = MakeConfig(smoke);
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(c.pkg).Generate();

  std::printf("bench_table2_pretraining: %s triples, d=%u, %u epochs%s\n",
              WithThousandsSeparators(pkg.observed.size()).c_str(), c.dim,
              c.epochs, smoke ? " (smoke)" : "");

  const std::string tmp_base = path != nullptr ? path : "bench_pretraining";
  const double seed_tps = SeedBaselineTps(argv0, tmp_base, smoke);
  const TrainResult single = RunFusedSingle(pkg, c);
  const TrainResult sharded = RunSharded(pkg, c);
  DistResult dist;
  if (dist_shards > 0) dist = RunDistributed(pkg, c, dist_shards);

  const double single_speedup = seed_tps > 0 ? single.tps / seed_tps : 0.0;
  const double sharded_speedup = seed_tps > 0 ? sharded.tps / seed_tps : 0.0;
  const double hinge_ratio =
      single.hinge.back() != 0.0 ? sharded.hinge.back() / single.hinge.back()
                                 : 0.0;

  std::printf("  seed baseline (scalar, SparseGrad): %12.0f triples/s\n",
              seed_tps);
  std::printf("  fused single-threaded trainer:      %12.0f triples/s "
              "(%.2fx)\n",
              single.tps, single_speedup);
  std::printf("  pipelined sharded, %u workers:       %12.0f triples/s "
              "(%.2fx)\n",
              c.workers, sharded.tps, sharded_speedup);
  std::printf("  final mean hinge: single %.4f, sharded %.4f (ratio %.3f)\n",
              single.hinge.back(), sharded.hinge.back(), hinge_ratio);
  double dist_speedup = 0.0, dist_hinge_ratio = 0.0;
  if (dist_shards > 0 && dist.ok) {
    dist_speedup = seed_tps > 0 ? dist.train.tps / seed_tps : 0.0;
    dist_hinge_ratio = sharded.hinge.back() != 0.0
                           ? dist.train.hinge.back() / sharded.hinge.back()
                           : 0.0;
    std::printf("  distributed PS, %u shards x %u wrk:  %12.0f triples/s "
                "(%.2fx; %llu pulls, %llu pushes)\n",
                dist_shards, c.workers, dist.train.tps, dist_speedup,
                static_cast<unsigned long long>(dist.pulls),
                static_cast<unsigned long long>(dist.pushes));
    std::printf("  final mean hinge: distributed %.4f vs sharded %.4f "
                "(ratio %.3f)\n",
                dist.train.hinge.back(), sharded.hinge.back(),
                dist_hinge_ratio);
  }

  if (path != nullptr) {
    std::FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr,
                   "bench_table2_pretraining: cannot open %s for writing\n",
                   path);
      return 1;
    }
    std::fprintf(f, "{\n  \"kernel_isa\": \"%s\",\n",
                 simd::ActiveIsaName());
    std::fprintf(f,
                 "  \"config\": {\"dim\": %u, \"epochs\": %u, "
                 "\"batch_size\": %u, \"workers\": %u, "
                 "\"learning_rate\": %g, \"margin\": %g, "
                 "\"optimizer\": \"sgd\", \"triples\": %llu, "
                 "\"smoke\": %s},\n",
                 c.dim, c.epochs, c.batch, c.workers,
                 static_cast<double>(c.lr), static_cast<double>(c.margin),
                 static_cast<unsigned long long>(pkg.observed.size()),
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"seed_baseline_triples_per_sec\": %.1f,\n"
                 "  \"single_thread\": {\"triples_per_sec\": %.1f, "
                 "\"mean_hinge_per_epoch\": ",
                 seed_tps, single.tps);
    PrintHingeArray(f, single.hinge);
    std::fprintf(f,
                 "},\n  \"sharded\": {\"triples_per_sec\": %.1f, "
                 "\"workers\": %u, \"mean_hinge_per_epoch\": ",
                 sharded.tps, c.workers);
    PrintHingeArray(f, sharded.hinge);
    std::fprintf(f, "},\n");
    if (dist_shards > 0 && dist.ok) {
      std::fprintf(f,
                   "  \"distributed\": {\"triples_per_sec\": %.1f, "
                   "\"shards\": %u, \"workers\": %u, \"pulls\": %llu, "
                   "\"pushes\": %llu, \"mean_hinge_per_epoch\": ",
                   dist.train.tps, dist_shards, c.workers,
                   static_cast<unsigned long long>(dist.pulls),
                   static_cast<unsigned long long>(dist.pushes));
      PrintHingeArray(f, dist.train.hinge);
      std::fprintf(f,
                   "},\n  \"speedup_distributed_vs_seed_baseline\": %.2f,\n"
                   "  \"distributed_vs_sharded_final_hinge_ratio\": %.3f,\n",
                   dist_speedup, dist_hinge_ratio);
    }
    std::fprintf(f,
                 "  \"speedup_single_vs_seed_baseline\": %.2f,\n"
                 "  \"speedup_sharded_vs_seed_baseline\": %.2f,\n"
                 "  \"sharded_vs_single_final_hinge_ratio\": %.3f\n}\n",
                 single_speedup, sharded_speedup, hinge_ratio);
    std::fclose(f);
    std::printf("bench_table2_pretraining: wrote %s (kernels=%s)\n", path,
                simd::ActiveIsaName());
  }

  if (smoke) {
    int failures = 0;
    const auto expect = [&](bool ok, const char* what) {
      std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
      if (!ok) ++failures;
    };
    expect(single.tps > 0.0, "single-threaded throughput measured");
    expect(sharded.tps > 0.0, "sharded throughput measured");
    expect(single.hinge.back() < single.hinge.front(),
           "single-threaded mean hinge decreases over training");
    expect(sharded.hinge.back() < sharded.hinge.front(),
           "sharded mean hinge decreases over training");
    if (dist_shards > 0) {
      expect(dist.ok, "distributed training completed");
      if (dist.ok) {
        expect(dist.train.tps > 0.0, "distributed throughput measured");
        expect(dist.train.hinge.back() < dist.train.hinge.front(),
               "distributed mean hinge decreases over training");
        // Acceptance bound: the distributed trajectory lands within 2% of
        // the in-process ShardedTrainer at the same seed budget.
        expect(dist_hinge_ratio > 0.98 && dist_hinge_ratio < 1.02,
               "distributed final hinge within 2% of sharded");
        expect(dist.pulls > 0 && dist.pushes > 0,
               "wire traffic counters populated");
      }
    }
    if (failures > 0) {
      std::printf("bench_table2_pretraining: %d smoke check(s) FAILED\n",
                  failures);
      return 1;
    }
    std::printf("bench_table2_pretraining: smoke checks passed\n");
  }
  return 0;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  bool smoke = false;
  bool seed_tps = false;
  const char* json = nullptr;
  uint32_t dist_shards = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json = argv[++i];
    } else if (std::strcmp(argv[i], "--distributed") == 0) {
      // Optional shard count (default 2): in-process loopback parameter
      // servers measured against the sharded in-memory plateau.
      dist_shards = 2;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        dist_shards = static_cast<uint32_t>(std::atoi(argv[++i]));
        if (dist_shards == 0) {
          std::fprintf(stderr, "--distributed wants a shard count >= 1\n");
          return 2;
        }
      }
    } else if (std::strcmp(argv[i], "--seed-trainer-tps") == 0) {
      // Internal: print the seed-era trainer's triples/sec; used by --json
      // to measure the scalar baseline in a child process.
      seed_tps = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (seed_tps) {
    std::printf("%.3f\n", pkgm::SeedTrainerTps(pkgm::MakeConfig(smoke)));
    return 0;
  }
  if (smoke || json != nullptr || dist_shards > 0) {
    return pkgm::RunJson(argv[0], json, smoke, dist_shards);
  }
  pkgm::Run();
  return 0;
}
