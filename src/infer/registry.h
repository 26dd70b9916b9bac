#ifndef PKGM_INFER_REGISTRY_H_
#define PKGM_INFER_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "tasks/encoder_model.h"
#include "tasks/recommendation.h"
#include "tasks/variant.h"

namespace pkgm::infer {

/// One published downstream-model generation. The models cache per-batch
/// activations (NcfModel::Forward, TrainedEncoder::Logits), so every
/// forward pass on a generation must hold its `mu` — the InferenceEngine
/// takes it once per batch. Everything else is immutable after Publish.
///
/// The shared_ptr handed out by InferModelRegistry pins the generation for
/// the duration of a batch, so a hot swap never frees weights under an
/// in-flight forward (same discipline as store::ServingGeneration).
template <typename TrainedModel>
struct InferGeneration {
  uint64_t generation = 0;
  tasks::PkgmVariant variant = tasks::PkgmVariant::kBase;
  TrainedModel model;
  std::mutex mu;
};

using RecommenderGeneration = InferGeneration<tasks::TrainedRecommender>;
/// Classify and align publish the one encoder-with-head model kind.
using EncoderGeneration = InferGeneration<tasks::TrainedEncoder>;

/// Publication point for the three downstream models, mirroring
/// store::ModelRegistry: each task slot is a shared_ptr that a publish
/// swaps and a serving batch copies once, both under a mutex held for
/// nothing else — so per-task weight refreshes are zero-downtime and
/// independent (swapping the classifier never perturbs recommend traffic).
/// Generation numbers are per-task and monotonically increasing.
class InferModelRegistry {
 public:
  InferModelRegistry() = default;
  InferModelRegistry(const InferModelRegistry&) = delete;
  InferModelRegistry& operator=(const InferModelRegistry&) = delete;

  /// Latest published generation for the task; null until first publish.
  std::shared_ptr<RecommenderGeneration> recommender() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recommender_;
  }
  std::shared_ptr<EncoderGeneration> classifier() const {
    std::lock_guard<std::mutex> lock(mu_);
    return classifier_;
  }
  std::shared_ptr<EncoderGeneration> aligner() const {
    std::lock_guard<std::mutex> lock(mu_);
    return aligner_;
  }

  /// Publish a trained bundle; returns its generation number.
  uint64_t PublishRecommender(tasks::TrainedRecommender model,
                              tasks::PkgmVariant variant);
  uint64_t PublishClassifier(tasks::TrainedEncoder model,
                             tasks::PkgmVariant variant);
  uint64_t PublishAligner(tasks::TrainedEncoder model,
                          tasks::PkgmVariant variant);

 private:
  mutable std::mutex mu_;  // guards the three slots
  std::shared_ptr<RecommenderGeneration> recommender_;
  std::shared_ptr<EncoderGeneration> classifier_;
  std::shared_ptr<EncoderGeneration> aligner_;
  std::atomic<uint64_t> next_recommender_{1};
  std::atomic<uint64_t> next_classifier_{1};
  std::atomic<uint64_t> next_aligner_{1};
};

}  // namespace pkgm::infer

#endif  // PKGM_INFER_REGISTRY_H_
