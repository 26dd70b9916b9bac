#ifndef PKGM_KG_MMAP_TRIPLE_INDEX_H_
#define PKGM_KG_MMAP_TRIPLE_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>

#include "kg/pkgt_format.h"
#include "kg/triple_source.h"
#include "util/section_file.h"
#include "util/status.h"

namespace pkgm::kg {

struct MmapTripleIndexOptions {
  /// Verify every section's CRC32C at open. Touches every page once
  /// (streaming read) — the safe default; disable for very large indexes
  /// where lazily faulting pages in is the point.
  bool verify_checksum = true;
};

/// Read-only memory-mapped view of a `.pkgt` triple index.
///
/// Implements TripleSource entirely by binary search over the sorted
/// permutation runs in the mapping — Tails/Heads/RelationsOf hand out
/// zero-copy IdSpans, Contains is two binary searches, and nothing is
/// materialized in RAM beyond the page cache, so the index serves graphs
/// far larger than memory.
///
/// Opening validates the container (util/section_file.h), META against
/// the section sizes, and the structural invariants binary search relies
/// on (strictly increasing run keys, monotone offset tables) before any
/// query runs, plus optionally the section checksums; a truncated,
/// bit-flipped, or out-of-order index fails with a clear Status instead of
/// answering queries wrong. The mapping is immutable and safe for any
/// number of concurrent reader threads.
class MmapTripleIndex : public TripleSource {
 public:
  static StatusOr<MmapTripleIndex> Open(const std::string& path,
                                        MmapTripleIndexOptions options = {});

  // TripleSource.
  uint64_t NumTriples() const override { return meta_.num_triples; }
  EntityId MaxEntityId() const override { return meta_.num_entities; }
  RelationId MaxRelationId() const override { return meta_.num_relations; }
  bool Contains(EntityId h, RelationId r, EntityId t) const override;
  using TripleSource::Contains;
  bool HasRelation(EntityId h, RelationId r) const override;
  IdSpan Tails(EntityId h, RelationId r) const override;
  IdSpan Heads(RelationId r, EntityId t) const override;
  IdSpan RelationsOf(EntityId h) const override;
  uint64_t RelationCount(RelationId r) const override;
  void AppendTriples(std::vector<Triple>* out) const override;

  // Index metadata.
  const SectionFile& file() const { return file_; }
  uint64_t file_size() const { return file_.file_size(); }
  const std::string& path() const { return file_.path(); }

  /// Re-reads every section against its CRC32C. Used by `pkgm_tool
  /// inspect-kg-index` and after a lazy open.
  Status VerifyChecksum() const { return file_.VerifyChecksum(); }

  /// Deep structural validation beyond what Open checks: every value run
  /// sorted ascending, per-predicate table consistent with the POS keys.
  /// O(num_triples) — used by the inspect tool and the corruption tests.
  Status Validate() const;

 private:
  /// One permutation's mapped arrays.
  struct Permutation {
    const uint64_t* keys = nullptr;
    const uint64_t* offsets = nullptr;
    const uint32_t* values = nullptr;
    uint64_t num_runs = 0;

    /// Index of the run with exactly `key`, or num_runs if absent.
    uint64_t FindRun(uint64_t key) const;
    /// Values slice of run i.
    IdSpan Run(uint64_t i) const {
      return {values + offsets[i],
              static_cast<size_t>(offsets[i + 1] - offsets[i])};
    }
    /// Run-index range whose keys lead with `first`.
    void FirstRange(uint32_t first, uint64_t* begin, uint64_t* end) const;
  };

  explicit MmapTripleIndex(SectionFile file) : file_(std::move(file)) {}

  Status MapPermutation(const PkgtPermutationTags& tags, const char* name,
                        Permutation* out) const;

  SectionFile file_;
  PkgtMeta meta_;

  Permutation spo_, pos_, osp_;
  const uint32_t* spo_run_relations_ = nullptr;
  const uint64_t* pred_runs_ = nullptr;
};

}  // namespace pkgm::kg

#endif  // PKGM_KG_MMAP_TRIPLE_INDEX_H_
