#ifndef PKGM_STORE_MODEL_REGISTRY_H_
#define PKGM_STORE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "core/embedding_source.h"
#include "core/service.h"
#include "store/store_format.h"

namespace pkgm::store {

/// Where a generation's parameters physically live — surfaced in
/// ServerStats reports so a serving run shows which backend answered it.
struct StoreBackendInfo {
  /// "heap-fp32", "mmap-fp32", "mmap-int8", ...
  std::string load_mode = "heap-fp32";
  StoreDtype dtype = StoreDtype::kFloat32;
  /// Bytes of the backing store file; 0 for in-heap models.
  uint64_t file_bytes = 0;
  /// Store path, empty for in-heap models.
  std::string path;
};

/// One immutable published model generation: the parameter backend, the
/// provider computing service vectors over it, and its metadata. The
/// shared_ptr handed out by ModelRegistry::Current() pins everything an
/// in-flight request touches, so a generation is destroyed (tables freed /
/// store unmapped) only after the last request using it completes.
struct ServingGeneration {
  uint64_t generation = 0;
  std::shared_ptr<const core::EmbeddingSource> source;
  std::shared_ptr<const core::ServiceVectorProvider> provider;
  StoreBackendInfo info;
};

/// Publication point for model refreshes — the zero-downtime swap of the
/// deployment story: a refresher process exports a new store file, opens
/// it, and Publish()es; serving workers snapshot Current() per request, so
/// the swap is one shared_ptr exchange under a mutex that is held only to
/// copy or swap the pointer, never across a request. In-flight requests
/// finish on the generation they snapshotted; the KnowledgeServer
/// invalidates its condensed-vector cache when it first observes a newer
/// generation.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The latest published generation; null until the first Publish.
  std::shared_ptr<const ServingGeneration> Current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Publishes a new generation, assigning it the next monotonically
  /// increasing generation number (returned). Thread-safe; later
  /// publishes win.
  uint64_t Publish(std::shared_ptr<const core::EmbeddingSource> source,
                   std::shared_ptr<const core::ServiceVectorProvider> provider,
                   StoreBackendInfo info);

  /// Generation number of the latest publish; 0 before the first.
  uint64_t generation() const {
    auto current = Current();
    return current == nullptr ? 0 : current->generation;
  }

 private:
  mutable std::mutex mu_;  // guards current_
  std::shared_ptr<const ServingGeneration> current_;
  std::atomic<uint64_t> next_generation_{1};
};

}  // namespace pkgm::store

#endif  // PKGM_STORE_MODEL_REGISTRY_H_
