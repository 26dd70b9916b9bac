#ifndef PKGM_TASKS_RECOMMENDATION_H_
#define PKGM_TASKS_RECOMMENDATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/service.h"
#include "data/interaction_dataset.h"
#include "rec/ncf.h"
#include "tasks/variant.h"

namespace pkgm::tasks {

/// A trained NCF ready for serving. The model's Forward caches per-batch
/// activations, so concurrent callers must serialize on it. `item_features`
/// (row = item index) holds the condensed PKGM vectors the model was
/// trained against; empty when config.pkgm_dim == 0 (kBase variant).
struct TrainedRecommender {
  rec::NcfConfig config;
  std::unique_ptr<rec::NcfModel> model;
  Mat item_features;
  double train_loss = 0.0;
};

/// Metrics for Table VIII: HR@k and NDCG@k, k in {1, 3, 5, 10, 30}.
struct RecommendationMetrics {
  std::map<int, double> hr;
  std::map<int, double> ndcg;
  double train_loss = 0.0;
};

/// Item recommendation (paper §III-D): NCF on implicit feedback, with the
/// PKGM variants concatenating the condensed service vector into the MLP
/// tower (Eq. 20-21). Leave-one-out evaluation against sampled negatives.
struct RecommendationOptions {
  uint32_t epochs = 15;       // paper: 100; synthetic data converges earlier
  uint32_t batch_size = 256;  // paper: 256
  float learning_rate = 1e-3f;
  uint32_t negative_ratio = 4;    // paper: 4
  uint32_t eval_negatives = 100;  // paper: 100
  std::vector<int> ks = {1, 3, 5, 10, 30};
  uint32_t gmf_dim = 8;
  uint32_t mlp_dim = 32;
  std::vector<uint32_t> mlp_hidden = {32, 16, 8};
  float embedding_l2 = 0.001f;
  uint64_t seed = 431;
};

class RecommendationTask {
 public:
  /// Pointers must outlive the task; `services` is item-index aligned with
  /// the dataset's item indexes.
  RecommendationTask(const data::InteractionDataset* dataset,
                     const core::ServiceVectorProvider* services,
                     const RecommendationOptions& options);

  /// Trains a fresh NCF for the variant and evaluates leave-one-out.
  RecommendationMetrics Run(PkgmVariant variant) const;

  /// Trains the same NCF Run() would (identical seeds and arithmetic) and
  /// returns it for serving instead of evaluating.
  TrainedRecommender Train(PkgmVariant variant) const;

 private:
  const data::InteractionDataset* dataset_;
  const core::ServiceVectorProvider* services_;
  RecommendationOptions options_;
};

}  // namespace pkgm::tasks

#endif  // PKGM_TASKS_RECOMMENDATION_H_
