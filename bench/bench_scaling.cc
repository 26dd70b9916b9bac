// Scaling study of the parameter-server training simulation (§III-A2's
// 50-PS / 200-worker deployment): pre-training throughput vs worker count,
// batch size and dimension on a fixed synthetic KG.

#include <cstdio>

#include "bench/bench_common.h"
#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

core::PkgmModelOptions ModelOptionsFor(const kg::SyntheticPkg& pkg,
                                       uint32_t dim) {
  core::PkgmModelOptions opt;
  opt.num_entities = pkg.entities.size();
  opt.num_relations = pkg.relations.size();
  opt.dim = dim;
  opt.seed = 5;
  return opt;
}

void Run() {
  bench::PrintHeader("Scaling: PS-simulation training throughput");

  tasks::PipelineOptions opt = bench::BenchPipelineOptions();
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt.pkg).Generate();
  std::printf("KG: %s triples, %s entities, %u relations, d=%u\n",
              WithThousandsSeparators(pkg.observed.size()).c_str(),
              WithThousandsSeparators(pkg.entities.size()).c_str(),
              pkg.relations.size(), opt.dim);

  const uint32_t epochs = 2;

  // Single-threaded reference.
  {
    core::PkgmModel model(ModelOptionsFor(pkg, opt.dim));
    core::Trainer trainer(&model, &pkg.observed, opt.trainer);
    core::EpochStats s = trainer.Train(epochs);
    std::printf("\nsingle-threaded reference: %s triples/s\n",
                WithThousandsSeparators(
                    static_cast<uint64_t>(s.triples_per_second))
                    .c_str());
  }

  // Workers sweep.
  {
    TablePrinter t({"workers", "triples/s", "final mean hinge"});
    for (uint32_t workers : {1u, 2u, 4u, 8u}) {
      core::PkgmModel model(ModelOptionsFor(pkg, opt.dim));
      core::TrainerOptions topt;
      topt.num_workers = workers;
      topt.learning_rate = 0.05f;
      topt.optimizer = core::OptimizerKind::kSgd;
      topt.seed = 17;
      core::Trainer trainer(&model, &pkg.observed, topt);
      core::EpochStats s = trainer.Train(epochs);
      t.AddRow({StrFormat("%u", workers),
                WithThousandsSeparators(
                    static_cast<uint64_t>(s.triples_per_second)),
                StrFormat("%.4f", s.mean_hinge)});
    }
    std::printf("\nworker sweep (single-core host: expect flat or worse —\n"
                "the sweep measures coordination overhead, not speedup):\n%s",
                t.ToString().c_str());
  }

  // Batch-size sweep on the single-threaded trainer.
  {
    TablePrinter t({"batch", "triples/s", "final mean hinge"});
    for (uint32_t batch : {64u, 256u, 1024u, 4096u}) {
      core::PkgmModel model(ModelOptionsFor(pkg, opt.dim));
      core::TrainerOptions topt = opt.trainer;
      topt.batch_size = batch;
      core::Trainer trainer(&model, &pkg.observed, topt);
      core::EpochStats s = trainer.Train(epochs);
      t.AddRow({StrFormat("%u", batch),
                WithThousandsSeparators(
                    static_cast<uint64_t>(s.triples_per_second)),
                StrFormat("%.4f", s.mean_hinge)});
    }
    std::printf("\nbatch-size sweep (paper uses batch 1000):\n%s",
                t.ToString().c_str());
  }

  // Dimension sweep: throughput vs d (the d^2 transfer matrices dominate).
  {
    TablePrinter t({"dim", "triples/s", "params (M)"});
    for (uint32_t dim : {16u, 32u, 64u}) {
      core::PkgmModel model(ModelOptionsFor(pkg, dim));
      core::TrainerOptions topt = opt.trainer;
      core::Trainer trainer(&model, &pkg.observed, topt);
      core::EpochStats s = trainer.Train(1);
      const double params =
          static_cast<double>(model.num_entities()) * dim +
          static_cast<double>(model.num_relations()) * dim * (1 + dim);
      t.AddRow({StrFormat("%u", dim),
                WithThousandsSeparators(
                    static_cast<uint64_t>(s.triples_per_second)),
                StrFormat("%.2f", params / 1e6)});
    }
    std::printf("\ndimension sweep (paper d=64):\n%s", t.ToString().c_str());
  }
}

}  // namespace
}  // namespace pkgm

int main() {
  pkgm::Run();
  return 0;
}
