#include "store/model_registry.h"

#include <utility>

#include "util/logging.h"

namespace pkgm::store {

uint64_t ModelRegistry::Publish(
    std::shared_ptr<const core::EmbeddingSource> source,
    std::shared_ptr<const core::ServiceVectorProvider> provider,
    StoreBackendInfo info) {
  PKGM_CHECK(source != nullptr);
  PKGM_CHECK(provider != nullptr);
  auto generation = std::make_shared<ServingGeneration>();
  generation->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  generation->source = std::move(source);
  generation->provider = std::move(provider);
  generation->info = std::move(info);
  const uint64_t number = generation->generation;
  // The swap itself: one pointer exchange. Readers holding the old
  // generation keep it alive until their requests drain; the registry's
  // own reference to it is dropped after the lock is released.
  std::shared_ptr<const ServingGeneration> previous = std::move(generation);
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(previous);
  }
  return number;
}

}  // namespace pkgm::store
