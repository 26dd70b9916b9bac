#include "util/section_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/crc32c.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm {
namespace {

constexpr uint64_t kHeaderBytes = sizeof(SectionFileHeader);
// Far above any format's section count; bounds the table walk of a
// corrupt file.
constexpr uint32_t kMaxSections = 256;

uint64_t AlignUpToSection(uint64_t offset) {
  return (offset + kSectionAlignment - 1) & ~(kSectionAlignment - 1);
}

bool AllZero(const unsigned char* p, uint64_t n) {
  return std::all_of(p, p + n, [](unsigned char c) { return c == 0; });
}

}  // namespace

std::string SectionTagName(uint32_t tag) {
  std::string name(4, '?');
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xff);
    if (c >= 0x20 && c < 0x7f) name[i] = c;
  }
  return name;
}

// ------------------------------------------------------------- writing --

SectionWriter::SectionWriter(const std::string& path, uint32_t magic,
                             uint32_t version)
    : path_(path), f_(std::fopen(path.c_str(), "wb")) {
  header_.magic = magic;
  header_.version = version;
  if (f_ == nullptr) {
    status_ = Status::IoError(
        StrFormat("cannot open %s for writing", path.c_str()));
    return;
  }
  // Placeholder header; Finish rewrites it once the table is known.
  Put(&header_, sizeof(header_));
}

SectionWriter::~SectionWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void SectionWriter::Put(const void* data, size_t bytes) {
  if (!status_.ok() || bytes == 0) return;
  if (std::fwrite(data, 1, bytes, f_) != bytes) {
    status_ = Status::IoError(StrFormat("short write to %s", path_.c_str()));
    return;
  }
  pos_ += bytes;
}

void SectionWriter::PadToAlignment() {
  static constexpr char kZeros[kSectionAlignment] = {};
  Put(kZeros, AlignUpToSection(pos_) - pos_);
}

void SectionWriter::Begin(uint32_t tag) {
  PadToAlignment();
  SectionEntry entry;
  entry.tag = tag;
  entry.offset = pos_;
  entries_.push_back(entry);
}

void SectionWriter::Write(const void* data, size_t bytes) {
  PKGM_CHECK(!entries_.empty()) << "Write before Begin";
  if (!status_.ok()) return;
  SectionEntry& entry = entries_.back();
  entry.crc = Crc32c(data, bytes, entry.crc);
  entry.bytes += bytes;
  Put(data, bytes);
}

Status SectionWriter::Finish() {
  PadToAlignment();
  header_.num_sections = static_cast<uint32_t>(entries_.size());
  header_.table_offset = pos_;
  const size_t table_bytes = entries_.size() * sizeof(SectionEntry);
  header_.table_crc = Crc32c(entries_.data(), table_bytes);
  Put(entries_.data(), table_bytes);
  header_.file_size = pos_;
  if (status_.ok() && (std::fseek(f_, 0, SEEK_SET) != 0 ||
                       std::fwrite(&header_, 1, sizeof(header_), f_) !=
                           sizeof(header_))) {
    status_ = Status::IoError(
        StrFormat("cannot seal the header of %s", path_.c_str()));
  }
  if (f_ != nullptr && std::fclose(f_) != 0 && status_.ok()) {
    status_ = Status::IoError(StrFormat("close failed for %s", path_.c_str()));
  }
  f_ = nullptr;
  return status_;
}

// ------------------------------------------------------------- reading --

StatusOr<SectionFile> SectionFile::Open(const std::string& path,
                                        uint32_t magic, uint32_t version,
                                        bool verify_checksum) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(StrFormat("cannot open %s", path.c_str()));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError(StrFormat("cannot stat %s", path.c_str()));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);
    return Status::Corruption(
        StrFormat("%s: %llu bytes is too short for a file header",
                  path.c_str(), static_cast<unsigned long long>(size)));
  }
  void* mapping = ::mmap(nullptr, size, PROT_READ, MAP_SHARED, fd, 0);
  // The mapping pins the file contents; the descriptor is no longer needed.
  ::close(fd);
  if (mapping == MAP_FAILED) {
    return Status::IoError(StrFormat("mmap failed for %s", path.c_str()));
  }
  SectionFile file;
  file.base_ = static_cast<const unsigned char*>(mapping);
  file.mapped_bytes_ = size;
  file.path_ = path;

  SectionFileHeader h;
  std::memcpy(&h, file.base_, sizeof(h));
  if (h.magic != magic) {
    return Status::Corruption(StrFormat("%s: bad magic %08x, expected %08x",
                                        path.c_str(), h.magic, magic));
  }
  if (h.version != version) {
    return Status::Corruption(
        StrFormat("%s: format version %u; this build reads version %u",
                  path.c_str(), h.version, version));
  }
  file.version_ = h.version;
  if (h.file_size != size) {
    return Status::Corruption(StrFormat(
        "%s is truncated or extended: header says %llu bytes, file has %llu",
        path.c_str(), static_cast<unsigned long long>(h.file_size),
        static_cast<unsigned long long>(size)));
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(h.num_sections) * sizeof(SectionEntry);
  // The table's own placement is checked after the sections'.
  if (h.num_sections > kMaxSections ||
      !AllZero(h.reserved, sizeof(h.reserved)) || h.table_offset > size ||
      size - h.table_offset != table_bytes) {
    return Status::Corruption(
        StrFormat("%s: malformed section table header", path.c_str()));
  }
  const unsigned char* table = file.base_ + h.table_offset;
  if (Crc32c(table, table_bytes) != h.table_crc) {
    return Status::Corruption(
        StrFormat("%s: section table checksum mismatch", path.c_str()));
  }
  file.sections_.resize(h.num_sections);
  std::memcpy(file.sections_.data(), table, table_bytes);

  uint64_t end = kHeaderBytes;  // end of the previous section
  for (size_t i = 0; i < file.sections_.size(); ++i) {
    const SectionEntry& s = file.sections_[i];
    const std::string name = SectionTagName(s.tag);
    for (size_t j = 0; j < i; ++j) {
      if (file.sections_[j].tag == s.tag) {
        return Status::Corruption(StrFormat(
            "%s: section %s appears twice", path.c_str(), name.c_str()));
      }
    }
    if (s.offset % kSectionAlignment != 0 || s.offset > h.table_offset ||
        s.bytes > h.table_offset - s.offset) {
      return Status::Corruption(StrFormat(
          "%s: section %s [%llu, +%llu) escapes the %llu-byte file",
          path.c_str(), name.c_str(), static_cast<unsigned long long>(s.offset),
          static_cast<unsigned long long>(s.bytes),
          static_cast<unsigned long long>(size)));
    }
    // Overlap (and stray gaps): each section starts at the first aligned
    // offset past the previous one.
    if (s.offset != AlignUpToSection(end)) {
      return Status::Corruption(StrFormat(
          "%s: section %s at %llu overlaps or is detached from the one "
          "before it (expected offset %llu)",
          path.c_str(), name.c_str(), static_cast<unsigned long long>(s.offset),
          static_cast<unsigned long long>(AlignUpToSection(end))));
    }
    end = s.offset + s.bytes;
  }
  if (h.table_offset != AlignUpToSection(end)) {
    return Status::Corruption(StrFormat(
        "%s: section table is detached from the last section", path.c_str()));
  }
  if (verify_checksum) PKGM_RETURN_IF_ERROR(file.VerifyChecksum());
  return file;
}

Status SectionFile::VerifyChecksum() const {
  for (const SectionEntry& s : sections_) {
    if (Crc32c(data(s), s.bytes) != s.crc) {
      return Status::Corruption(
          StrFormat("%s: section %s checksum mismatch", path_.c_str(),
                    SectionTagName(s.tag).c_str()));
    }
    // Open placed every section right behind the previous one, so only the
    // alignment padding after each section is left unchecked.
    const uint64_t end = s.offset + s.bytes;
    if (!AllZero(base_ + end, AlignUpToSection(end) - end)) {
      return Status::Corruption(
          StrFormat("%s: nonzero padding after section %s", path_.c_str(),
                    SectionTagName(s.tag).c_str()));
    }
  }
  return Status::Ok();
}

Status SectionFile::ExpectSections(const std::vector<uint32_t>& tags) const {
  bool same = tags.size() == sections_.size();
  for (size_t i = 0; same && i < tags.size(); ++i) {
    same = sections_[i].tag == tags[i];
  }
  if (same) return Status::Ok();
  std::string want, have;
  for (uint32_t tag : tags) want += " " + SectionTagName(tag);
  for (const SectionEntry& s : sections_) have += " " + SectionTagName(s.tag);
  return Status::Corruption(StrFormat("%s: sections [%s ] where [%s ] belong",
                                      path_.c_str(), have.c_str(),
                                      want.c_str()));
}

const SectionEntry* SectionFile::Find(uint32_t tag) const {
  for (const SectionEntry& s : sections_) {
    if (s.tag == tag) return &s;
  }
  return nullptr;
}

void SectionFile::Release() noexcept {
  if (base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(base_), mapped_bytes_);
    base_ = nullptr;
    mapped_bytes_ = 0;
  }
}

SectionFile::~SectionFile() { Release(); }

SectionFile::SectionFile(SectionFile&& other) noexcept
    : path_(std::move(other.path_)),
      version_(other.version_),
      sections_(std::move(other.sections_)),
      base_(std::exchange(other.base_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

SectionFile& SectionFile::operator=(SectionFile&& other) noexcept {
  if (this != &other) {
    Release();
    path_ = std::move(other.path_);
    version_ = other.version_;
    sections_ = std::move(other.sections_);
    base_ = std::exchange(other.base_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  }
  return *this;
}

}  // namespace pkgm
