#include "store/embedding_store_writer.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace pkgm::store {

float QuantizeRowInt8(const float* row, uint32_t n, int8_t* out) {
  float maxabs = 0.0f;
  for (uint32_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::fabs(row[i]));
  }
  if (maxabs == 0.0f) {
    for (uint32_t i = 0; i < n; ++i) out[i] = 0;
    return 0.0f;
  }
  const float scale = maxabs / 127.0f;
  const float inv = 127.0f / maxabs;
  for (uint32_t i = 0; i < n; ++i) {
    const float q = std::nearbyint(row[i] * inv);
    out[i] = static_cast<int8_t>(q < -127.0f ? -127.0f
                                             : (q > 127.0f ? 127.0f : q));
  }
  return scale;
}

namespace {

/// Streams one table (rows x cols) into a new section of `file`. Row
/// accessor signature matches the EmbeddingSource row methods.
template <typename RowFn>
void WriteSection(SectionWriter* file, uint32_t tag, StoreDtype dtype,
                  uint32_t rows, uint32_t cols, RowFn row_fn) {
  file->Begin(tag);
  std::vector<float> scratch(cols);
  if (dtype == StoreDtype::kFloat32) {
    for (uint32_t r = 0; r < rows; ++r) {
      file->Write(row_fn(r, scratch.data()), cols * sizeof(float));
    }
    return;
  }
  // int8: the per-row scale array precedes the quantized rows, so both are
  // computed in a first pass over the rows... but a two-pass layout would
  // read every row twice through a possibly-dequantizing source. Instead
  // buffer the quantized rows (1 byte/element) and write scales first.
  std::vector<int8_t> quantized(static_cast<size_t>(rows) * cols);
  std::vector<float> scales(rows);
  for (uint32_t r = 0; r < rows; ++r) {
    const float* row = row_fn(r, scratch.data());
    scales[r] = QuantizeRowInt8(row, cols, quantized.data() +
                                               static_cast<size_t>(r) * cols);
  }
  file->Write(scales.data(), scales.size() * sizeof(float));
  file->Write(quantized.data(), quantized.size());
}

}  // namespace

Status EmbeddingStoreWriter::Write(const core::EmbeddingSource& source,
                                   const std::string& path) const {
  const uint32_t d = source.dim();
  const uint32_t num_entities = source.num_entities();
  const uint32_t num_relations = source.num_relations();
  if (d == 0 || num_entities == 0 || num_relations == 0) {
    return Status::InvalidArgument("refusing to export an empty model");
  }

  StoreMeta meta;
  meta.dtype = static_cast<uint32_t>(options_.dtype);
  meta.dim = d;
  meta.num_entities = num_entities;
  meta.num_relations = num_relations;
  meta.scorer = static_cast<uint32_t>(source.scorer());
  meta.generation = options_.generation;

  SectionWriter file(path, kStoreMagic, kStoreFormatVersion);
  file.Add(kMetaSection, &meta, sizeof(meta));
  const StoreDtype dtype = options_.dtype;
  WriteSection(&file, kEntitySection, dtype, num_entities, d,
               [&](uint32_t r, float* scratch) {
                 return source.EntityRow(r, scratch);
               });
  WriteSection(&file, kRelationSection, dtype, num_relations, d,
               [&](uint32_t r, float* scratch) {
                 return source.RelationRow(r, scratch);
               });
  if (source.has_relation_module()) {
    WriteSection(&file, kTransferSection, dtype, num_relations, d * d,
                 [&](uint32_t r, float* scratch) {
                   return source.TransferRow(r, scratch);
                 });
  }
  if (source.has_hyperplanes()) {
    WriteSection(&file, kHyperplaneSection, dtype, num_relations, d,
                 [&](uint32_t r, float* scratch) {
                   return source.HyperplaneRow(r, scratch);
                 });
  }
  return file.Finish();
}

}  // namespace pkgm::store
