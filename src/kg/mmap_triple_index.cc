#include "kg/mmap_triple_index.h"

#include <algorithm>

#include "util/string_util.h"

namespace pkgm::kg {

uint64_t MmapTripleIndex::Permutation::FindRun(uint64_t key) const {
  const uint64_t* end = keys + num_runs;
  const uint64_t* it = std::lower_bound(keys, end, key);
  return (it != end && *it == key) ? static_cast<uint64_t>(it - keys)
                                   : num_runs;
}

void MmapTripleIndex::Permutation::FirstRange(uint32_t first, uint64_t* begin,
                                              uint64_t* end) const {
  const uint64_t* last = keys + num_runs;
  const uint64_t* lo = std::lower_bound(keys, last, PkgtRunKey(first, 0));
  const uint64_t* hi =
      std::upper_bound(lo, last, PkgtRunKey(first, 0xffffffffu));
  *begin = static_cast<uint64_t>(lo - keys);
  *end = static_cast<uint64_t>(hi - keys);
}

Status MmapTripleIndex::MapPermutation(const PkgtPermutationTags& tags,
                                       const char* name,
                                       Permutation* out) const {
  const uint64_t n = meta_.num_triples;
  const SectionEntry& keys = *file_.Find(tags.keys);
  const SectionEntry& offsets = *file_.Find(tags.offsets);
  const SectionEntry& values = *file_.Find(tags.values);
  const uint64_t num_runs = keys.bytes / sizeof(uint64_t);
  if (keys.bytes % sizeof(uint64_t) != 0 || num_runs == 0 || num_runs > n ||
      offsets.bytes % sizeof(uint64_t) != 0 ||
      offsets.bytes / sizeof(uint64_t) != num_runs + 1 ||
      values.bytes % sizeof(uint32_t) != 0 ||
      values.bytes / sizeof(uint32_t) != n) {
    return Status::Corruption(StrFormat(
        "%s permutation sections do not fit %llu runs over %llu triples", name,
        static_cast<unsigned long long>(num_runs),
        static_cast<unsigned long long>(n)));
  }
  out->keys = reinterpret_cast<const uint64_t*>(file_.data(keys));
  out->offsets = reinterpret_cast<const uint64_t*>(file_.data(offsets));
  out->values = reinterpret_cast<const uint32_t*>(file_.data(values));
  out->num_runs = num_runs;

  // Structural invariants binary search relies on: strictly increasing run
  // keys, and a monotone offset table that starts at 0, ends at the triple
  // count, and gives every run at least one value. O(num_runs).
  if (out->offsets[0] != 0 || out->offsets[out->num_runs] != n) {
    return Status::Corruption(
        StrFormat("%s permutation offsets do not span the value array", name));
  }
  for (uint64_t i = 0; i < out->num_runs; ++i) {
    if (i + 1 < out->num_runs && out->keys[i] >= out->keys[i + 1]) {
      return Status::Corruption(StrFormat(
          "%s permutation run keys out of order at run %llu", name,
          static_cast<unsigned long long>(i)));
    }
    if (out->offsets[i] >= out->offsets[i + 1]) {
      return Status::Corruption(
          StrFormat("%s permutation has an empty or reversed run %llu", name,
                    static_cast<unsigned long long>(i)));
    }
  }
  return Status::Ok();
}

StatusOr<MmapTripleIndex> MmapTripleIndex::Open(
    const std::string& path, MmapTripleIndexOptions options) {
  auto file = SectionFile::Open(path, kPkgtMagic, kPkgtFormatVersion,
                                options.verify_checksum);
  if (!file.ok()) return file.status();
  MmapTripleIndex index(std::move(file.value()));
  const SectionFile& f = index.file_;
  const PkgtMeta& m = index.meta_;
  PKGM_RETURN_IF_ERROR(ReadMetaSection(f, &index.meta_));
  if (m.num_triples == 0 || m.num_entities == 0 || m.num_relations == 0) {
    return Status::Corruption("triple index META has empty tables");
  }
  PKGM_RETURN_IF_ERROR(f.ExpectSections(
      {kMetaSection, kSpoSections.keys, kSpoSections.offsets,
       kSpoSections.values, kPosSections.keys, kPosSections.offsets,
       kPosSections.values, kOspSections.keys, kOspSections.offsets,
       kOspSections.values, kSpoRunRelationsSection, kPredRunsSection}));

  PKGM_RETURN_IF_ERROR(index.MapPermutation(kSpoSections, "SPO", &index.spo_));
  PKGM_RETURN_IF_ERROR(index.MapPermutation(kPosSections, "POS", &index.pos_));
  PKGM_RETURN_IF_ERROR(index.MapPermutation(kOspSections, "OSP", &index.osp_));
  // The largest ids lead the last SPO (head), OSP (tail) and POS
  // (relation) keys; META's counts must be exactly one past them, so a
  // consumer sizing tables from MaxEntityId() allocates what the data needs.
  const auto last_first = [](const Permutation& p) -> uint64_t {
    return PkgtKeyFirst(p.keys[p.num_runs - 1]);
  };
  if (m.num_entities !=
          std::max(last_first(index.spo_), last_first(index.osp_)) + 1 ||
      m.num_relations != last_first(index.pos_) + 1) {
    return Status::Corruption("triple index META counts disagree with its ids");
  }

  const SectionEntry& run_relations = *f.Find(kSpoRunRelationsSection);
  if (run_relations.bytes != index.spo_.num_runs * sizeof(uint32_t)) {
    return Status::Corruption("SPO run relations do not match the SPO runs");
  }
  index.spo_run_relations_ =
      reinterpret_cast<const uint32_t*>(f.data(run_relations));
  const SectionEntry& pred_runs = *f.Find(kPredRunsSection);
  if (pred_runs.bytes !=
      (static_cast<uint64_t>(m.num_relations) + 1) * sizeof(uint64_t)) {
    return Status::Corruption("predicate run table does not match META");
  }
  index.pred_runs_ = reinterpret_cast<const uint64_t*>(f.data(pred_runs));
  for (uint32_t r = 0; r < m.num_relations; ++r) {
    if (index.pred_runs_[r] > index.pred_runs_[r + 1] ||
        index.pred_runs_[r + 1] > index.pos_.num_runs) {
      return Status::Corruption(
          StrFormat("predicate run table out of order at relation %u", r));
    }
  }
  return index;
}

Status MmapTripleIndex::Validate() const {
  const auto check_runs = [](const Permutation& p,
                             const char* name) -> Status {
    for (uint64_t i = 0; i < p.num_runs; ++i) {
      const IdSpan run = p.Run(i);
      for (size_t j = 1; j < run.size(); ++j) {
        if (run[j - 1] >= run[j]) {
          return Status::Corruption(StrFormat(
              "%s permutation run %llu values out of order", name,
              static_cast<unsigned long long>(i)));
        }
      }
    }
    return Status::Ok();
  };
  PKGM_RETURN_IF_ERROR(check_runs(spo_, "SPO"));
  PKGM_RETURN_IF_ERROR(check_runs(pos_, "POS"));
  PKGM_RETURN_IF_ERROR(check_runs(osp_, "OSP"));
  for (uint64_t i = 0; i < spo_.num_runs; ++i) {
    if (spo_run_relations_[i] != PkgtKeySecond(spo_.keys[i])) {
      return Status::Corruption(StrFormat(
          "SPO run relation array disagrees with run key %llu",
          static_cast<unsigned long long>(i)));
    }
  }
  for (uint64_t i = 0; i < pos_.num_runs; ++i) {
    const uint32_t r = PkgtKeyFirst(pos_.keys[i]);
    if (r >= meta_.num_relations || i < pred_runs_[r] ||
        i >= pred_runs_[r + 1]) {
      return Status::Corruption(StrFormat(
          "predicate run table misplaces POS run %llu",
          static_cast<unsigned long long>(i)));
    }
  }
  return Status::Ok();
}

bool MmapTripleIndex::Contains(EntityId h, RelationId r, EntityId t) const {
  const IdSpan tails = Tails(h, r);
  return std::binary_search(tails.begin(), tails.end(), t);
}

bool MmapTripleIndex::HasRelation(EntityId h, RelationId r) const {
  return spo_.FindRun(PkgtRunKey(h, r)) != spo_.num_runs;
}

IdSpan MmapTripleIndex::Tails(EntityId h, RelationId r) const {
  const uint64_t run = spo_.FindRun(PkgtRunKey(h, r));
  return run == spo_.num_runs ? IdSpan{} : spo_.Run(run);
}

IdSpan MmapTripleIndex::Heads(RelationId r, EntityId t) const {
  const uint64_t run = pos_.FindRun(PkgtRunKey(r, t));
  return run == pos_.num_runs ? IdSpan{} : pos_.Run(run);
}

IdSpan MmapTripleIndex::RelationsOf(EntityId h) const {
  uint64_t begin = 0, end = 0;
  spo_.FirstRange(h, &begin, &end);
  return {spo_run_relations_ + begin, static_cast<size_t>(end - begin)};
}

uint64_t MmapTripleIndex::RelationCount(RelationId r) const {
  if (r >= meta_.num_relations) return 0;
  return pos_.offsets[pred_runs_[r + 1]] - pos_.offsets[pred_runs_[r]];
}

void MmapTripleIndex::AppendTriples(std::vector<Triple>* out) const {
  out->reserve(out->size() + meta_.num_triples);
  for (uint64_t i = 0; i < spo_.num_runs; ++i) {
    const EntityId h = PkgtKeyFirst(spo_.keys[i]);
    const RelationId r = PkgtKeySecond(spo_.keys[i]);
    for (uint32_t t : spo_.Run(i)) out->push_back(Triple{h, r, t});
  }
}

}  // namespace pkgm::kg
