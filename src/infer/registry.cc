#include "infer/registry.h"

#include <utility>

namespace pkgm::infer {
namespace {

template <typename Generation, typename TrainedModel>
uint64_t PublishTo(std::mutex* mu, std::shared_ptr<Generation>* slot,
                   std::atomic<uint64_t>* next, TrainedModel model,
                   tasks::PkgmVariant variant) {
  const uint64_t number = next->fetch_add(1, std::memory_order_relaxed);
  auto generation = std::make_shared<Generation>();
  generation->generation = number;
  generation->variant = variant;
  generation->model = std::move(model);
  {
    std::lock_guard<std::mutex> lock(*mu);
    slot->swap(generation);
  }
  // `generation` now holds the previous one: released outside the lock.
  return number;
}

}  // namespace

uint64_t InferModelRegistry::PublishRecommender(tasks::TrainedRecommender model,
                                                tasks::PkgmVariant variant) {
  return PublishTo(&mu_, &recommender_, &next_recommender_, std::move(model),
                   variant);
}

uint64_t InferModelRegistry::PublishClassifier(tasks::TrainedClassifier model,
                                               tasks::PkgmVariant variant) {
  return PublishTo(&mu_, &classifier_, &next_classifier_, std::move(model),
                   variant);
}

uint64_t InferModelRegistry::PublishAligner(tasks::TrainedAligner model,
                                            tasks::PkgmVariant variant) {
  return PublishTo(&mu_, &aligner_, &next_aligner_, std::move(model), variant);
}

}  // namespace pkgm::infer
