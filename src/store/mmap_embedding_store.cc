#include "store/mmap_embedding_store.h"

#include <cstring>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::store {
namespace {

/// The table in `section` (nullptr when absent) must hold exactly rows x
/// cols elements of `dtype`. The element count is bounded by the section
/// size before it is scaled, so no product can overflow.
Status CheckTable(const SectionFile& file, uint32_t tag, StoreDtype dtype,
                  uint64_t rows, uint64_t cols) {
  const SectionEntry* section = file.Find(tag);
  uint64_t cells = 0;
  if (section == nullptr || __builtin_mul_overflow(rows, cols, &cells) ||
      cells > section->bytes ||
      section->bytes != SectionBytes(dtype, rows, cols)) {
    return Status::Corruption(StrFormat(
        "%s: section %s does not hold a %llu x %llu %s table", file.path().c_str(),
        SectionTagName(tag).c_str(), static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(cols), StoreDtypeName(dtype)));
  }
  return Status::Ok();
}

}  // namespace

StatusOr<MmapEmbeddingStore> MmapEmbeddingStore::Open(
    const std::string& path, MmapStoreOptions options) {
  auto file = SectionFile::Open(path, kStoreMagic, kStoreFormatVersion,
                                options.verify_checksum);
  if (!file.ok()) return file.status();
  MmapEmbeddingStore store(std::move(file.value()));
  const SectionFile& f = store.file_;
  StoreMeta& m = store.meta_;
  PKGM_RETURN_IF_ERROR(ReadMetaSection(f, &m));

  if (m.dtype > static_cast<uint32_t>(StoreDtype::kInt8)) {
    return Status::Corruption(StrFormat("unknown store dtype %u", m.dtype));
  }
  if (m.scorer > static_cast<uint32_t>(core::TripleScorerKind::kTransH)) {
    return Status::Corruption(StrFormat("unknown scorer kind %u", m.scorer));
  }
  if (m.dim == 0 || m.num_entities == 0 || m.num_relations == 0) {
    return Status::Corruption("store META has zero-sized tables");
  }
  if (store.scorer() == core::TripleScorerKind::kComplEx && m.dim % 2 != 0) {
    return Status::Corruption("ComplEx store with odd dimension");
  }
  if (m.reserved != 0) {
    return Status::Corruption("store META reserved field is not zero");
  }

  // Presence: the transfer section is the relation-module flag; TransH
  // (and only TransH) carries hyperplanes.
  std::vector<uint32_t> tags = {kMetaSection, kEntitySection,
                                kRelationSection};
  if (f.Find(kTransferSection) != nullptr) tags.push_back(kTransferSection);
  if (store.has_hyperplanes()) tags.push_back(kHyperplaneSection);
  PKGM_RETURN_IF_ERROR(f.ExpectSections(tags));

  const StoreDtype dtype = store.dtype();
  const uint64_t d = m.dim;
  const auto table = [&](uint32_t tag, uint64_t rows, uint64_t cols,
                         const unsigned char** out) -> Status {
    PKGM_RETURN_IF_ERROR(CheckTable(f, tag, dtype, rows, cols));
    *out = f.data(*f.Find(tag));
    return Status::Ok();
  };
  PKGM_RETURN_IF_ERROR(
      table(kEntitySection, m.num_entities, d, &store.entities_));
  PKGM_RETURN_IF_ERROR(
      table(kRelationSection, m.num_relations, d, &store.relations_));
  if (f.Find(kTransferSection) != nullptr) {
    PKGM_RETURN_IF_ERROR(
        table(kTransferSection, m.num_relations, d * d, &store.transfers_));
  }
  if (store.has_hyperplanes()) {
    PKGM_RETURN_IF_ERROR(
        table(kHyperplaneSection, m.num_relations, d, &store.hyperplanes_));
  }
  return store;
}

const float* MmapEmbeddingStore::Row(const unsigned char* table,
                                     uint32_t rows, uint32_t row,
                                     uint64_t cols, float* scratch) const {
  PKGM_CHECK_LT(row, rows);
  if (dtype() == StoreDtype::kFloat32) {
    return reinterpret_cast<const float*>(table) + row * cols;
  }
  // int8: [rows x fp32 scale][rows x cols x int8].
  const float scale = reinterpret_cast<const float*>(table)[row];
  const auto* q = reinterpret_cast<const int8_t*>(
      table + static_cast<uint64_t>(rows) * sizeof(float) + row * cols);
  for (uint64_t i = 0; i < cols; ++i) {
    scratch[i] = scale * static_cast<float>(q[i]);
  }
  return scratch;
}

const float* MmapEmbeddingStore::EntityRow(uint32_t e, float* scratch) const {
  return Row(entities_, meta_.num_entities, e, meta_.dim, scratch);
}

const float* MmapEmbeddingStore::EntityRowsBlock(uint32_t first,
                                                 uint32_t count,
                                                 float* scratch) const {
  PKGM_CHECK_LE(static_cast<uint64_t>(first) + count, meta_.num_entities);
  if (dtype() == StoreDtype::kFloat32) {
    // The fp32 entity section is row-major in the mapping: hand the block
    // back zero-copy, same as the single-row accessor.
    return reinterpret_cast<const float*>(entities_) +
           static_cast<uint64_t>(first) * meta_.dim;
  }
  // int8: dequantize row by row via the base implementation.
  return core::EmbeddingSource::EntityRowsBlock(first, count, scratch);
}

const float* MmapEmbeddingStore::RelationRow(uint32_t r,
                                             float* scratch) const {
  return Row(relations_, meta_.num_relations, r, meta_.dim, scratch);
}

const float* MmapEmbeddingStore::TransferRow(uint32_t r,
                                             float* scratch) const {
  PKGM_CHECK(has_relation_module());
  return Row(transfers_, meta_.num_relations, r,
             static_cast<uint64_t>(meta_.dim) * meta_.dim, scratch);
}

const float* MmapEmbeddingStore::HyperplaneRow(uint32_t r,
                                               float* scratch) const {
  PKGM_CHECK(has_hyperplanes());
  return Row(hyperplanes_, meta_.num_relations, r, meta_.dim, scratch);
}

StatusOr<core::PkgmModel> LoadModel(const std::string& path) {
  auto store = MmapEmbeddingStore::Open(path);
  if (!store.ok()) return store.status();
  const MmapEmbeddingStore& s = store.value();
  if (s.dtype() != StoreDtype::kFloat32) {
    return Status::InvalidArgument(StrFormat(
        "%s is an %s store; a checkpoint must be fp32", path.c_str(),
        StoreDtypeName(s.dtype())));
  }
  core::PkgmModelOptions opt;
  opt.num_entities = s.num_entities();
  opt.num_relations = s.num_relations();
  opt.dim = s.dim();
  opt.scorer = s.scorer();
  opt.use_relation_module = s.has_relation_module();
  // fp32 sections hold the heap tables' exact bytes (Open checked sizes),
  // so the tables are copied straight out of the mapping.
  const auto table = [](const float* rows, size_t num_rows, size_t cols) {
    Mat m(num_rows, cols);
    std::memcpy(m.data(), rows, m.size() * sizeof(float));
    return m;
  };
  const uint32_t d = s.dim();
  Mat entities = table(s.EntityRow(0, nullptr), opt.num_entities, d);
  Mat relations = table(s.RelationRow(0, nullptr), opt.num_relations, d);
  Mat transfers(0, static_cast<size_t>(d) * d), hyperplanes(0, d);
  if (s.has_relation_module()) {
    transfers = table(s.TransferRow(0, nullptr), opt.num_relations,
                      static_cast<size_t>(d) * d);
  }
  if (s.has_hyperplanes()) {
    hyperplanes = table(s.HyperplaneRow(0, nullptr), opt.num_relations, d);
  }
  return core::PkgmModel(opt, std::move(entities), std::move(relations),
                         std::move(transfers), std::move(hyperplanes));
}

}  // namespace pkgm::store
