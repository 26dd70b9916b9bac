#ifndef PKGM_INFER_PIPELINE_H_
#define PKGM_INFER_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tasks/item_alignment.h"
#include "tasks/item_classification.h"
#include "tasks/pipeline.h"
#include "tasks/recommendation.h"
#include "tasks/variant.h"

namespace pkgm::infer {

/// Serving-scale downstream training: small datasets (20 titles per
/// category to classify, 120 alignment pairs from category 0, 60 users'
/// interactions) and few epochs, so pkgm_netd, pkgm_tool, the loopback
/// tests and the serving bench can all stand up the three models in
/// seconds (ASan included). The models only need to be *real* (exact task
/// arithmetic), not accurate. Deterministic given `seed`.
struct InferPipelineOptions {
  tasks::PkgmVariant variant = tasks::PkgmVariant::kPkgmAll;
  tasks::ItemClassificationOptions classify;
  tasks::ItemAlignmentOptions align;
  tasks::RecommendationOptions recommend;
  uint64_t seed = 71;

  InferPipelineOptions() {
    classify.max_len = 20;
    classify.bert_layers = 1;
    classify.bert_heads = 2;
    classify.bert_ff = 32;
    classify.epochs = 2;
    classify.mlm_pretrain_epochs = 1;
    align.max_len = 32;
    align.bert_layers = 1;
    align.bert_heads = 2;
    align.bert_ff = 32;
    align.epochs = 2;
    align.mlm_pretrain_epochs = 0;
    recommend.epochs = 3;
  }
};

/// The trained downstream models plus everything the serving side needs to
/// execute them: the canonical per-item title catalog and the id spaces the
/// load generator draws from. Move-only (the bundles own their models).
struct InferBundle {
  tasks::PkgmVariant variant = tasks::PkgmVariant::kBase;
  /// item index -> TitleGenerator::Stable title, for every item of the PKG.
  std::vector<std::string> titles;
  uint32_t num_users = 0;
  uint32_t num_classes = 0;
  tasks::TrainedRecommender recommender;
  tasks::TrainedClassifier classifier;
  tasks::TrainedAligner aligner;
};

/// Builds the three downstream datasets over `pkgm`'s synthetic PKG and
/// trains one model per task through the exact offline task code
/// (ItemClassificationTask::Train etc.), so anything served from the bundle
/// is bit-identical to what offline evaluation would compute.
InferBundle TrainInferModels(const tasks::PretrainedPkgm& pkgm,
                             const InferPipelineOptions& options);

}  // namespace pkgm::infer

#endif  // PKGM_INFER_PIPELINE_H_
