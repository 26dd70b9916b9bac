#include "tasks/recommendation.h"

#include <unordered_set>

#include "nn/optimizer.h"
#include "rec/ranking_metrics.h"
#include "util/logging.h"

namespace pkgm::tasks {

namespace {

/// Per-user full interaction sets (train + valid + test) so negative
/// sampling never draws an observed item.
std::vector<std::unordered_set<uint32_t>> BuildObserved(
    const data::InteractionDataset& dataset) {
  std::vector<std::unordered_set<uint32_t>> observed(dataset.num_users);
  for (uint32_t u = 0; u < dataset.num_users; ++u) {
    for (uint32_t i : dataset.train[u]) observed[u].insert(i);
    observed[u].insert(dataset.valid[u]);
    observed[u].insert(dataset.test[u]);
  }
  return observed;
}

/// The rows of `trained.item_features` for `items`, the NCF's PKGM input
/// (Eq. 21); null for a model trained without PKGM features.
const Mat* GatherItemFeatures(const TrainedRecommender& trained,
                              const std::vector<uint32_t>& items, Mat* rows) {
  const uint32_t pkgm_dim = trained.config.pkgm_dim;
  if (pkgm_dim == 0) return nullptr;
  *rows = Mat(items.size(), pkgm_dim);
  for (size_t b = 0; b < items.size(); ++b) {
    const float* src = trained.item_features.Row(items[b]);
    float* dst = rows->Row(b);
    for (uint32_t j = 0; j < pkgm_dim; ++j) dst[j] = src[j];
  }
  return rows;
}

}  // namespace

RecommendationTask::RecommendationTask(
    const data::InteractionDataset* dataset,
    const core::ServiceVectorProvider* services,
    const RecommendationOptions& options)
    : dataset_(dataset), services_(services), options_(options) {
  PKGM_CHECK(dataset != nullptr);
}

TrainedRecommender RecommendationTask::Train(PkgmVariant variant) const {
  PKGM_CHECK(variant == PkgmVariant::kBase || services_ != nullptr);
  Rng rng(options_.seed);

  const uint32_t num_users = dataset_->num_users;
  const uint32_t num_items = dataset_->num_items;

  TrainedRecommender trained;

  // Precompute per-item condensed PKGM features (Eq. 20) — fixed inputs.
  uint32_t pkgm_dim = 0;
  if (variant != PkgmVariant::kBase) {
    const core::ServiceMode mode = VariantServiceMode(variant);
    pkgm_dim = services_->CondensedDim(mode);
    trained.item_features = Mat(num_items, pkgm_dim);
    for (uint32_t i = 0; i < num_items; ++i) {
      Vec s = services_->Condensed(i, mode);
      float* dst = trained.item_features.Row(i);
      for (uint32_t j = 0; j < pkgm_dim; ++j) dst[j] = s[j];
    }
  }

  rec::NcfConfig cfg;
  cfg.num_users = num_users;
  cfg.num_items = num_items;
  cfg.gmf_dim = options_.gmf_dim;
  cfg.mlp_dim = options_.mlp_dim;
  cfg.mlp_hidden = options_.mlp_hidden;
  cfg.pkgm_dim = pkgm_dim;
  cfg.embedding_l2 = options_.embedding_l2;
  cfg.seed = options_.seed + 1;
  trained.config = cfg;
  trained.model = std::make_unique<rec::NcfModel>(cfg);
  rec::NcfModel& model = *trained.model;

  nn::AdamOptimizer::Options adam;
  adam.lr = options_.learning_rate;
  nn::AdamOptimizer optimizer(model.Params(), adam);

  std::vector<std::unordered_set<uint32_t>> observed = BuildObserved(*dataset_);
  std::vector<std::pair<uint32_t, uint32_t>> positives;
  for (uint32_t u = 0; u < num_users; ++u) {
    for (uint32_t i : dataset_->train[u]) positives.emplace_back(u, i);
  }

  auto sample_negative = [&](uint32_t user) {
    for (;;) {
      const uint32_t cand = static_cast<uint32_t>(rng.Uniform(num_items));
      if (!observed[user].count(cand)) return cand;
    }
  };

  std::vector<uint32_t> batch_users, batch_items;
  std::vector<float> batch_labels;

  for (uint32_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(&positives);
    double loss_sum = 0.0;
    uint64_t batches = 0;
    size_t idx = 0;
    while (idx < positives.size()) {
      batch_users.clear();
      batch_items.clear();
      batch_labels.clear();
      // Each positive contributes itself + negative_ratio negatives
      // (paper §III-D2 sampling strategy).
      while (idx < positives.size() &&
             batch_users.size() + options_.negative_ratio + 1 <=
                 options_.batch_size) {
        const auto [u, i] = positives[idx++];
        batch_users.push_back(u);
        batch_items.push_back(i);
        batch_labels.push_back(1.0f);
        for (uint32_t n = 0; n < options_.negative_ratio; ++n) {
          batch_users.push_back(u);
          batch_items.push_back(sample_negative(u));
          batch_labels.push_back(0.0f);
        }
      }
      if (batch_users.empty()) break;

      Mat pkgm;
      const Mat* pkgm_ptr = GatherItemFeatures(trained, batch_items, &pkgm);
      loss_sum +=
          model.ForwardBackward(batch_users, batch_items, pkgm_ptr, batch_labels);
      optimizer.Step();
      ++batches;
    }
    trained.train_loss =
        batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
  }
  return trained;
}

RecommendationMetrics RecommendationTask::Run(PkgmVariant variant) const {
  TrainedRecommender trained = Train(variant);
  rec::NcfModel& model = *trained.model;
  const uint32_t num_users = dataset_->num_users;
  const uint32_t num_items = dataset_->num_items;
  const std::vector<std::unordered_set<uint32_t>> observed =
      BuildObserved(*dataset_);

  RecommendationMetrics metrics;
  metrics.train_loss = trained.train_loss;

  // Leave-one-out evaluation (paper §III-D4): the held-out item is ranked
  // against eval_negatives unobserved items.
  rec::RankingMetricsAccumulator acc(options_.ks);
  std::vector<uint32_t> cand_users, cand_items;
  Rng eval_rng(options_.seed + 7);
  for (uint32_t u = 0; u < num_users; ++u) {
    cand_users.assign(options_.eval_negatives + 1, u);
    cand_items.clear();
    cand_items.push_back(dataset_->test[u]);
    while (cand_items.size() < options_.eval_negatives + 1) {
      const uint32_t cand = static_cast<uint32_t>(eval_rng.Uniform(num_items));
      if (!observed[u].count(cand)) cand_items.push_back(cand);
    }
    Mat pkgm;
    const Mat* pkgm_ptr = GatherItemFeatures(trained, cand_items, &pkgm);
    Mat logits;
    model.Forward(cand_users, cand_items, pkgm_ptr, &logits);
    const float pos = logits(0, 0);
    std::vector<float> negs;
    negs.reserve(options_.eval_negatives);
    for (size_t b = 1; b < cand_items.size(); ++b) negs.push_back(logits(b, 0));
    acc.AddScores(pos, negs);
  }
  for (int k : options_.ks) {
    metrics.hr[k] = acc.HitRatio(k);
    metrics.ndcg[k] = acc.Ndcg(k);
  }
  return metrics;
}

}  // namespace pkgm::tasks
