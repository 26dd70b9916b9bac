// Seeded input mutation shared by the parser mutation tests (dist_test's
// parameter-server frames and blobs, net_test's serving request frames, and
// the .pkgs, .pkgt and .pkgi files of store_test, kg_index_test and
// infer_test), plus the file helpers those file tests patch with.
#ifndef PKGM_TESTS_MUTATION_H_
#define PKGM_TESTS_MUTATION_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "util/rng.h"
#include "util/section_file.h"

namespace pkgm {

/// Mutations each input gets, after one pass over the valid input.
constexpr int kMutationsPerInput = 2000;

/// One random mutation of `in`: bit flips, a truncation, a splice of a
/// prefix of `in` onto a suffix of `other`, or an inflated u32 at one of
/// `fields` (the offsets of counts, row sizes and lengths).
inline std::string Mutate(const std::string& in, const std::string& other,
                          const std::vector<size_t>& fields, Rng* rng) {
  std::string out = in;
  switch (rng->Uniform(4)) {
    case 0:
      for (uint64_t f = rng->Uniform(3); f < 3 && !out.empty(); ++f) {
        out[rng->Uniform(out.size())] ^=
            static_cast<char>(1u << rng->Uniform(8));
      }
      break;
    case 1:
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case 2:
      out = in.substr(0, rng->Uniform(in.size() + 1)) +
            other.substr(rng->Uniform(other.size() + 1));
      break;
    default: {
      const size_t at = fields[rng->Uniform(fields.size())];
      if (at + 4 > out.size()) break;
      uint32_t v;
      std::memcpy(&v, &out[at], sizeof(v));
      const uint32_t inflated[] = {v + 1,        2 * v + 1,   v + 0x10000u,
                                   0x40000000u, 0x7fffffffu, 0xffffffffu};
      v = inflated[rng->Uniform(6)];
      std::memcpy(&out[at], &v, sizeof(v));
      break;
    }
  }
  return out;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::string out;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[1 << 16];
    for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
      out.append(buf, n);
    }
    std::fclose(f);
  }
  return out;
}

inline bool WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

/// Recomputes every section's CRC32C and the table's CRC32C of the
/// util/section_file.h container in `file`, so a patched field reaches the
/// format's own checks instead of the checksum. Entries or tables that do
/// not fit the bytes are left as they are.
inline void ResealSections(std::string* file) {
  SectionFileHeader h;
  if (file->size() < sizeof(h)) return;
  std::memcpy(&h, file->data(), sizeof(h));
  const uint64_t table_bytes =
      static_cast<uint64_t>(h.num_sections) * sizeof(SectionEntry);
  if (h.table_offset > file->size() ||
      file->size() - h.table_offset < table_bytes) {
    return;
  }
  for (uint64_t at = h.table_offset; at < h.table_offset + table_bytes;
       at += sizeof(SectionEntry)) {
    SectionEntry e;
    std::memcpy(&e, file->data() + at, sizeof(e));
    if (e.offset > file->size() || e.bytes > file->size() - e.offset) continue;
    e.crc = Crc32c(file->data() + e.offset, e.bytes);
    std::memcpy(file->data() + at, &e, sizeof(e));
  }
  h.table_crc = Crc32c(file->data() + h.table_offset, table_bytes);
  std::memcpy(file->data(), &h, sizeof(h));
}

/// Overwrites `n` bytes at `offset` of the container at `path` and re-seals
/// its CRCs.
inline bool PatchSealed(const std::string& path, uint64_t offset,
                        const void* data, size_t n) {
  std::string bytes = ReadFileBytes(path);
  if (offset > bytes.size() || n > bytes.size() - offset) return false;
  std::memcpy(bytes.data() + offset, data, n);
  ResealSections(&bytes);
  return WriteFileBytes(path, bytes);
}

/// Offsets of the table entries' offset and bytes fields (low u32 each)
/// of the container in `file`: the `fields` its mutation tests inflate.
inline std::vector<size_t> SectionTableFields(const std::string& file) {
  SectionFileHeader h;
  std::memcpy(&h, file.data(), sizeof(h));
  std::vector<size_t> fields;
  for (uint32_t i = 0; i < h.num_sections; ++i) {
    const size_t entry = h.table_offset + i * sizeof(SectionEntry);
    fields.push_back(entry + offsetof(SectionEntry, offset));
    fields.push_back(entry + offsetof(SectionEntry, bytes));
  }
  return fields;
}

}  // namespace pkgm

#endif  // PKGM_TESTS_MUTATION_H_
