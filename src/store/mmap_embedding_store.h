#ifndef PKGM_STORE_MMAP_EMBEDDING_STORE_H_
#define PKGM_STORE_MMAP_EMBEDDING_STORE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/embedding_source.h"
#include "core/pkgm_model.h"
#include "store/store_format.h"
#include "util/section_file.h"
#include "util/status.h"

namespace pkgm::store {

struct MmapStoreOptions {
  /// Verify every section's CRC32C at open. This touches every page once
  /// (streaming read), so it is the safe default for checkpointed models;
  /// disable for very large stores where lazily faulting pages in is the
  /// point, and call VerifyChecksum() later.
  bool verify_checksum = true;
};

/// Read-only memory-mapped view of a .pkgs embedding store.
///
/// Implements core::EmbeddingSource: fp32 stores hand out zero-copy row
/// pointers straight into the mapping; int8 stores dequantize rows into
/// the caller's scratch (per-row symmetric scales). Opening validates the
/// container (util/section_file.h), then META (dtype, scorer, sizes) and
/// every table section's size against it, before any row is touched, so a
/// truncated or bit-flipped store fails with a clear Status instead of
/// serving garbage.
///
/// The mapping is immutable and safe for any number of concurrent reader
/// threads; generations are swapped by opening a new store and publishing
/// it through ModelRegistry, never by mutating a live one.
class MmapEmbeddingStore : public core::EmbeddingSource {
 public:
  static StatusOr<MmapEmbeddingStore> Open(const std::string& path,
                                           MmapStoreOptions options = {});

  // EmbeddingSource.
  uint32_t num_entities() const override { return meta_.num_entities; }
  uint32_t num_relations() const override { return meta_.num_relations; }
  uint32_t dim() const override { return meta_.dim; }
  core::TripleScorerKind scorer() const override {
    return static_cast<core::TripleScorerKind>(meta_.scorer);
  }
  bool has_relation_module() const override { return transfers_ != nullptr; }
  const float* EntityRow(uint32_t e, float* scratch) const override;
  const float* EntityRowsBlock(uint32_t first, uint32_t count,
                               float* scratch) const override;
  const float* RelationRow(uint32_t r, float* scratch) const override;
  const float* TransferRow(uint32_t r, float* scratch) const override;
  const float* HyperplaneRow(uint32_t r, float* scratch) const override;

  // Store metadata.
  StoreDtype dtype() const { return static_cast<StoreDtype>(meta_.dtype); }
  uint64_t generation() const { return meta_.generation; }
  uint64_t file_size() const { return file_.file_size(); }
  const std::string& path() const { return file_.path(); }
  const SectionFile& file() const { return file_; }

  /// Re-reads every section against its CRC32C. Used by `pkgm_tool
  /// inspect-store` and after a lazy open.
  Status VerifyChecksum() const { return file_.VerifyChecksum(); }

 private:
  explicit MmapEmbeddingStore(SectionFile file) : file_(std::move(file)) {}

  /// Returns row `row` of the table at `table` (rows x cols), either
  /// zero-copy (fp32) or dequantized into `scratch` (int8).
  const float* Row(const unsigned char* table, uint32_t rows, uint32_t row,
                   uint64_t cols, float* scratch) const;

  SectionFile file_;
  StoreMeta meta_;
  // Table sections inside the mapping; nullptr when absent.
  const unsigned char* entities_ = nullptr;
  const unsigned char* relations_ = nullptr;
  const unsigned char* transfers_ = nullptr;
  const unsigned char* hyperplanes_ = nullptr;
};

/// Loads an fp32 .pkgs store into a trainable heap model: the checkpoint
/// format. Refuses int8 stores (InvalidArgument) and validates META against
/// every section size before the tables are allocated.
StatusOr<core::PkgmModel> LoadModel(const std::string& path);

}  // namespace pkgm::store

#endif  // PKGM_STORE_MMAP_EMBEDDING_STORE_H_
