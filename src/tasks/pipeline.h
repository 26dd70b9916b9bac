#ifndef PKGM_TASKS_PIPELINE_H_
#define PKGM_TASKS_PIPELINE_H_

#include <memory>

#include "core/pkgm_model.h"
#include "core/service.h"
#include "core/trainer.h"
#include "kg/synthetic_pkg.h"

namespace pkgm::tasks {

/// End-to-end pre-training pipeline shared by the examples, tests and
/// benches: generate the synthetic PKG, pre-train PKGM on its observed
/// triples, select per-item key relations, and stand up the service-vector
/// provider.
struct PipelineOptions {
  kg::SyntheticPkgOptions pkg;
  /// Embedding dimension of PKGM (and hence of all service vectors).
  uint32_t dim = 32;
  /// Triple query module scoring family (TransE per the paper by default).
  core::TripleScorerKind scorer = core::TripleScorerKind::kTransE;
  /// TransE-only ablation switch.
  bool use_relation_module = true;
  core::TrainerOptions trainer;
  uint32_t pretrain_epochs = 8;
  /// Key relations per category (paper: 10).
  uint32_t service_k = 10;
  uint64_t seed = 53;
};

/// Everything downstream tasks need, with stable ownership: the provider
/// holds a pointer into `model`, which lives on the heap.
struct PretrainedPkgm {
  kg::SyntheticPkg pkg;
  std::unique_ptr<core::PkgmModel> model;
  std::unique_ptr<core::ServiceVectorProvider> services;
  core::EpochStats last_epoch;
};

/// Runs the full pipeline. Deterministic given the seeds in `options`.
PretrainedPkgm BuildAndPretrain(const PipelineOptions& options);

}  // namespace pkgm::tasks

#endif  // PKGM_TASKS_PIPELINE_H_
