#ifndef PKGM_STORE_STORE_FORMAT_H_
#define PKGM_STORE_STORE_FORMAT_H_

#include <cstdint>

#include "util/section_file.h"

namespace pkgm::store {

/// On-disk element type of the embedding tables.
///   kFloat32: rows are stored verbatim (row-major fp32).
///   kInt8:    symmetric per-row quantization — each table section starts
///             with one fp32 scale per row, followed by the int8 rows;
///             value = scale * q with q in [-127, 127], scale = maxabs/127.
///             ~4x smaller than fp32 at cosine similarity >= 0.99 for the
///             condensed service vectors (see bench/bench_store.cc).
enum class StoreDtype : uint32_t { kFloat32 = 0, kInt8 = 1 };

inline const char* StoreDtypeName(StoreDtype dtype) {
  switch (dtype) {
    case StoreDtype::kFloat32: return "fp32";
    case StoreDtype::kInt8: return "int8";
  }
  return "unknown";
}

/// A .pkgs embedding store is a util/section_file.h container with magic
/// "PKGS" and these sections, in order (DESIGN.md §9):
///   META  StoreMeta
///   ENTS  entity table        num_entities x d
///   RELS  relation table      num_relations x d
///   XFER  transfer matrices   num_relations x d*d  (relation module only)
///   HYPL  hyperplane normals  num_relations x d    (TransH only)
/// Each table section holds SectionBytes(dtype, rows, cols) bytes. An fp32
/// store is also the training checkpoint (store::LoadModel).
constexpr uint32_t kStoreMagic = 0x504b4753u;
constexpr uint32_t kStoreFormatVersion = 2;

constexpr uint32_t kEntitySection = SectionTag("ENTS");
constexpr uint32_t kRelationSection = SectionTag("RELS");
constexpr uint32_t kTransferSection = SectionTag("XFER");
constexpr uint32_t kHyperplaneSection = SectionTag("HYPL");

/// The META section of a .pkgs store (little-endian, 32 bytes).
struct StoreMeta {
  uint32_t dtype = 0;  // StoreDtype
  uint32_t dim = 0;
  uint32_t num_entities = 0;
  uint32_t num_relations = 0;
  uint32_t scorer = 0;  // core::TripleScorerKind
  uint32_t reserved = 0;
  uint64_t generation = 0;
};
static_assert(sizeof(StoreMeta) == 32, "StoreMeta must be packed to 32B");

/// Bytes one table section occupies: int8 sections carry a per-row fp32
/// scale array ahead of the quantized rows.
inline uint64_t SectionBytes(StoreDtype dtype, uint64_t rows, uint64_t cols) {
  switch (dtype) {
    case StoreDtype::kFloat32: return rows * cols * sizeof(float);
    case StoreDtype::kInt8: return rows * sizeof(float) + rows * cols;
  }
  return 0;
}

}  // namespace pkgm::store

#endif  // PKGM_STORE_STORE_FORMAT_H_
