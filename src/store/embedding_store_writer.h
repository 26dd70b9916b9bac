#ifndef PKGM_STORE_EMBEDDING_STORE_WRITER_H_
#define PKGM_STORE_EMBEDDING_STORE_WRITER_H_

#include <cstdint>
#include <string>

#include "core/embedding_source.h"
#include "store/store_format.h"
#include "util/status.h"

namespace pkgm::store {

struct StoreWriterOptions {
  /// On-disk element type. kInt8 applies symmetric per-row quantization to
  /// every table (entities, relations, transfers, hyperplanes).
  StoreDtype dtype = StoreDtype::kFloat32;
  /// Model generation stamped into META; ModelRegistry publishes
  /// monotonically increasing generations to swap stores under traffic.
  uint64_t generation = 1;
};

/// Exports any EmbeddingSource — a freshly trained PkgmModel or an already
/// open MmapEmbeddingStore (which is how `pkgm_tool export-store` re-encodes
/// a store at another dtype or generation, fp32 -> int8 included) — into
/// the versioned .pkgs store format. An fp32 export is also the training
/// checkpoint (store::LoadModel).
///
/// The tables stream out section by section (one row materialized at a
/// time) through util's SectionWriter, so exporting never needs a second
/// copy of the tables in memory.
class EmbeddingStoreWriter {
 public:
  explicit EmbeddingStoreWriter(StoreWriterOptions options = {})
      : options_(options) {}

  Status Write(const core::EmbeddingSource& source,
               const std::string& path) const;

  const StoreWriterOptions& options() const { return options_; }

 private:
  StoreWriterOptions options_;
};

/// Symmetric per-row quantization used by the writer (exposed for tests):
/// scale = max|v|/127 (0 for an all-zero row), q_i = round(v_i/scale)
/// clamped to [-127, 127]. Returns the scale.
float QuantizeRowInt8(const float* row, uint32_t n, int8_t* out);

}  // namespace pkgm::store

#endif  // PKGM_STORE_EMBEDDING_STORE_WRITER_H_
