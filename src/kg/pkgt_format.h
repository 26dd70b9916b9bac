#ifndef PKGM_KG_PKGT_FORMAT_H_
#define PKGM_KG_PKGT_FORMAT_H_

#include <cstdint>

#include "util/section_file.h"

namespace pkgm::kg {

// "PKGT" — distinct from the .pkgs embedding-store magic "PKGS" and the
// .pkgi magic "PKGI", so the on-disk formats can never be confused for one
// another.
constexpr uint32_t kPkgtMagic = 0x504b4754u;
constexpr uint32_t kPkgtFormatVersion = 2;

/// A .pkgt triple index is a util/section_file.h container holding, in
/// order (DESIGN.md §13): META (PkgtMeta), the SPO, POS and OSP
/// permutations' keys/offsets/values sections, SPRR and PRED.
///
/// One sorted permutation sub-index of the triple set. Triples are
/// dictionary-encoded (dense uint32 ids) and grouped into *runs*: all
/// triples sharing the permutation's leading pair collapse to one run.
///
///   keys    uint64[num_runs]      (first << 32) | second, strictly increasing
///   offsets uint64[num_runs + 1]  run i's values are values[offsets[i],
///                                 offsets[i+1]); offsets[num_runs] = N
///   values  uint32[N]             the third component, ascending per run
///
/// The run count is the keys section's size over 8.
///
/// SPO: key (head, relation)   -> tail values   (triple queries, Contains)
/// POS: key (relation, tail)   -> head values   (inverse lookups, joins)
/// OSP: key (tail, head)       -> relation vals (entity-pair probes)
struct PkgtPermutationTags {
  uint32_t keys;
  uint32_t offsets;
  uint32_t values;
};
constexpr PkgtPermutationTags kSpoSections = {
    SectionTag("SPOK"), SectionTag("SPOO"), SectionTag("SPOV")};
constexpr PkgtPermutationTags kPosSections = {
    SectionTag("POSK"), SectionTag("POSO"), SectionTag("POSV")};
constexpr PkgtPermutationTags kOspSections = {
    SectionTag("OSPK"), SectionTag("OSPO"), SectionTag("OSPV")};
/// uint32[SPO runs]: the relation half of each SPO run key, so
/// RelationsOf(h) is one zero-copy slice of this array.
constexpr uint32_t kSpoRunRelationsSection = SectionTag("SPRR");
/// uint64[num_relations + 1]: the per-predicate range of POS run indices
/// (POS keys lead with the relation, so each predicate's runs are
/// contiguous).
constexpr uint32_t kPredRunsSection = SectionTag("PRED");

/// The META section of a .pkgt index (little-endian, 16 bytes).
struct PkgtMeta {
  uint32_t num_entities = 0;   // max entity id + 1
  uint32_t num_relations = 0;  // max relation id + 1
  uint64_t num_triples = 0;
};
static_assert(sizeof(PkgtMeta) == 16, "PkgtMeta must be packed to 16B");

/// Composes/decomposes the uint64 run key of a permutation.
inline uint64_t PkgtRunKey(uint32_t first, uint32_t second) {
  return (static_cast<uint64_t>(first) << 32) | second;
}
inline uint32_t PkgtKeyFirst(uint64_t key) {
  return static_cast<uint32_t>(key >> 32);
}
inline uint32_t PkgtKeySecond(uint64_t key) {
  return static_cast<uint32_t>(key & 0xffffffffu);
}

}  // namespace pkgm::kg

#endif  // PKGM_KG_PKGT_FORMAT_H_
