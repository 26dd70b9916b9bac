#ifndef PKGM_UTIL_SECTION_FILE_H_
#define PKGM_UTIL_SECTION_FILE_H_

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pkgm {

/// The one on-disk container behind every file the project writes: the
/// `.pkgs` embedding store (which is also the training checkpoint), the
/// `.pkgt` triple index and the `.pkgi` downstream model. A file is a
/// fixed header, tagged sections and a section table:
///
///   [0, 64)            header: magic, version, section count, table
///                      CRC32C, table offset, file size, zero padding
///   [64, ...)          sections back to back, each starting on a
///                      64-byte boundary (zero padding between them), so
///                      tables read straight out of the mapping are
///                      aligned for vectorized loads
///   [table_offset, +)  one SectionEntry per section, in file order; the
///                      table ends the file
///
/// Each format picks its magic and version and gives its sections
/// four-character tags; its scalars live in a fixed "META" section.
constexpr uint64_t kSectionAlignment = 64;

struct SectionFileHeader {
  uint32_t magic = 0;
  uint32_t version = 0;
  uint32_t num_sections = 0;
  uint32_t table_crc = 0;  // CRC32C over the section table
  uint64_t table_offset = 0;
  uint64_t file_size = 0;
  uint8_t reserved[32] = {};
};
static_assert(sizeof(SectionFileHeader) == kSectionAlignment,
              "SectionFileHeader must be packed to 64B");

struct SectionEntry {
  uint32_t tag = 0;
  uint32_t crc = 0;  // CRC32C over the section's bytes
  uint64_t offset = 0;
  uint64_t bytes = 0;
};
static_assert(sizeof(SectionEntry) == 24, "SectionEntry must be packed");

/// Four-character section tag, first character in the low byte (so the
/// tag reads as its name in a hex dump).
constexpr uint32_t SectionTag(const char (&name)[5]) {
  return static_cast<uint32_t>(static_cast<uint8_t>(name[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(name[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(name[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(name[3])) << 24;
}
constexpr uint32_t kMetaSection = SectionTag("META");

/// The tag as its four characters ('?' for unprintable bytes).
std::string SectionTagName(uint32_t tag);

/// Streams a container to disk, one section at a time: Begin(tag) opens a
/// section at the next aligned offset, Write appends to it and feeds its
/// CRC32C, and Finish writes the section table and seals the header. No
/// section is ever held in memory as a whole. The first failure sticks:
/// later calls do nothing and Finish returns it.
class SectionWriter {
 public:
  SectionWriter(const std::string& path, uint32_t magic, uint32_t version);
  ~SectionWriter();
  SectionWriter(const SectionWriter&) = delete;
  SectionWriter& operator=(const SectionWriter&) = delete;

  void Begin(uint32_t tag);
  void Write(const void* data, size_t bytes);
  /// Begin(tag) + Write(data, bytes).
  void Add(uint32_t tag, const void* data, size_t bytes) {
    Begin(tag);
    Write(data, bytes);
  }
  Status Finish();

  /// File bytes written so far (the whole file after Finish).
  uint64_t bytes_written() const { return pos_; }

 private:
  void Put(const void* data, size_t bytes);
  void PadToAlignment();

  std::string path_;
  std::FILE* f_ = nullptr;
  Status status_;
  SectionFileHeader header_;
  std::vector<SectionEntry> entries_;
  uint64_t pos_ = 0;
};

/// Read-only, move-only mapping of a container. Open checks the magic,
/// the version, the file size, the table's CRC32C and every entry (unique
/// tag, bounds, alignment, overflow, and placement: each section starts at
/// the first aligned offset past the one before it, so sections never
/// overlap) before it exposes any section, and — unless `verify_checksum`
/// is false, for files where lazily faulting pages in is the point —
/// every section's CRC32C and the zero padding too. The mapping is
/// immutable and safe for any number of concurrent reader threads.
class SectionFile {
 public:
  static StatusOr<SectionFile> Open(const std::string& path, uint32_t magic,
                                    uint32_t version,
                                    bool verify_checksum = true);

  ~SectionFile();
  SectionFile(SectionFile&& other) noexcept;
  SectionFile& operator=(SectionFile&& other) noexcept;
  SectionFile(const SectionFile&) = delete;
  SectionFile& operator=(const SectionFile&) = delete;

  /// Re-reads every section and the padding against the table's CRCs.
  Status VerifyChecksum() const;

  /// Corruption unless the file holds exactly `tags`, in this order.
  Status ExpectSections(const std::vector<uint32_t>& tags) const;

  /// The section tagged `tag`, or nullptr.
  const SectionEntry* Find(uint32_t tag) const;
  /// Section bytes, zero-copy out of the mapping (64-byte aligned).
  const unsigned char* data(const SectionEntry& section) const {
    return base_ + section.offset;
  }
  std::string_view bytes(const SectionEntry& section) const {
    return {reinterpret_cast<const char*>(data(section)),
            static_cast<size_t>(section.bytes)};
  }

  const std::vector<SectionEntry>& sections() const { return sections_; }
  uint32_t version() const { return version_; }
  uint64_t file_size() const { return mapped_bytes_; }
  const std::string& path() const { return path_; }

 private:
  SectionFile() = default;
  void Release() noexcept;

  std::string path_;
  uint32_t version_ = 0;
  std::vector<SectionEntry> sections_;
  const unsigned char* base_ = nullptr;  // whole-file mapping
  uint64_t mapped_bytes_ = 0;
};

/// Reads the fixed-size META section of `file` into `*meta`: Corruption
/// when it is missing or is not exactly sizeof(Meta) bytes.
template <typename Meta>
Status ReadMetaSection(const SectionFile& file, Meta* meta) {
  const SectionEntry* section = file.Find(kMetaSection);
  if (section == nullptr || section->bytes != sizeof(Meta)) {
    return Status::Corruption(file.path() + ": missing or misfit META section");
  }
  std::memcpy(meta, file.data(*section), sizeof(Meta));
  return Status::Ok();
}

}  // namespace pkgm

#endif  // PKGM_UTIL_SECTION_FILE_H_
