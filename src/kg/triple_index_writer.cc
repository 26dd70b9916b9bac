#include "kg/triple_index_writer.h"

#include <algorithm>

#include "kg/pkgt_format.h"
#include "util/stopwatch.h"

namespace pkgm::kg {
namespace {

/// Component order of one permutation: (first, second) is the run key,
/// third is the stored value.
struct PermSpec {
  uint32_t (*first)(const Triple&);
  uint32_t (*second)(const Triple&);
  uint32_t (*third)(const Triple&);
};

constexpr PermSpec kSpo = {[](const Triple& t) { return t.head; },
                           [](const Triple& t) { return t.relation; },
                           [](const Triple& t) { return t.tail; }};
constexpr PermSpec kPos = {[](const Triple& t) { return t.relation; },
                           [](const Triple& t) { return t.tail; },
                           [](const Triple& t) { return t.head; }};
constexpr PermSpec kOsp = {[](const Triple& t) { return t.tail; },
                           [](const Triple& t) { return t.head; },
                           [](const Triple& t) { return t.relation; }};

void SortPermutation(const PermSpec& p, std::vector<Triple>* triples) {
  std::sort(triples->begin(), triples->end(),
            [&p](const Triple& a, const Triple& b) {
              if (p.first(a) != p.first(b)) return p.first(a) < p.first(b);
              if (p.second(a) != p.second(b)) return p.second(a) < p.second(b);
              return p.third(a) < p.third(b);
            });
}

/// Streams one sorted permutation out as its keys / offsets / values
/// sections and returns its run count. `triples` must already be in this
/// permutation's order. `on_run(run_index, key)` fires once per run in
/// order, letting the caller derive the SPO run-relation array and the POS
/// per-predicate table without a second scan.
template <typename RunFn>
uint64_t WritePermutation(SectionWriter* out, const PermSpec& p,
                          const PkgtPermutationTags& tags,
                          const std::vector<Triple>& triples, RunFn on_run) {
  std::vector<uint64_t> keys;
  std::vector<uint64_t> offsets;
  for (size_t i = 0; i < triples.size(); ++i) {
    const uint64_t key = PkgtRunKey(p.first(triples[i]), p.second(triples[i]));
    if (keys.empty() || key != keys.back()) {
      on_run(keys.size(), key);
      keys.push_back(key);
      offsets.push_back(i);
    }
  }
  offsets.push_back(triples.size());

  out->Add(tags.keys, keys.data(), keys.size() * sizeof(uint64_t));
  out->Add(tags.offsets, offsets.data(), offsets.size() * sizeof(uint64_t));
  out->Begin(tags.values);
  // Values stream straight out of the sorted triple vector in chunks.
  std::vector<uint32_t> chunk;
  chunk.reserve(4096);
  for (const Triple& t : triples) {
    chunk.push_back(p.third(t));
    if (chunk.size() == chunk.capacity()) {
      out->Write(chunk.data(), chunk.size() * sizeof(uint32_t));
      chunk.clear();
    }
  }
  out->Write(chunk.data(), chunk.size() * sizeof(uint32_t));
  return keys.size();
}

}  // namespace

StatusOr<TripleIndexBuildStats> TripleIndexWriter::Write(
    const TripleSource& source, const std::string& path) const {
  std::vector<Triple> triples;
  triples.reserve(source.NumTriples());
  source.AppendTriples(&triples);
  return WriteTriples(std::move(triples), path);
}

StatusOr<TripleIndexBuildStats> TripleIndexWriter::WriteTriples(
    std::vector<Triple> triples, const std::string& path) const {
  if (triples.empty()) {
    return Status::InvalidArgument("refusing to index an empty triple set");
  }
  Stopwatch sw;

  // Canonicalize: SPO order, duplicates collapsed. Later sorts permute the
  // same deduped set.
  SortPermutation(kSpo, &triples);
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  const uint64_t n = triples.size();

  PkgtMeta meta;
  meta.num_triples = n;
  for (const Triple& t : triples) {
    meta.num_entities =
        std::max(meta.num_entities, std::max(t.head, t.tail) + 1);
    meta.num_relations = std::max(meta.num_relations, t.relation + 1);
  }

  SectionWriter file(path, kPkgtMagic, kPkgtFormatVersion);
  file.Add(kMetaSection, &meta, sizeof(meta));
  std::vector<uint32_t> spo_run_relations;
  const uint64_t spo_runs = WritePermutation(
      &file, kSpo, kSpoSections, triples, [&](size_t, uint64_t key) {
        spo_run_relations.push_back(PkgtKeySecond(key));
      });
  SortPermutation(kPos, &triples);
  std::vector<uint64_t> pred_runs;
  const uint64_t pos_runs = WritePermutation(
      &file, kPos, kPosSections, triples, [&](size_t run, uint64_t key) {
        // First run of each predicate closes every predicate before it
        // (empty ones included).
        while (pred_runs.size() <= PkgtKeyFirst(key)) pred_runs.push_back(run);
      });
  pred_runs.resize(static_cast<size_t>(meta.num_relations) + 1, pos_runs);
  SortPermutation(kOsp, &triples);
  const uint64_t osp_runs = WritePermutation(&file, kOsp, kOspSections,
                                             triples, [](size_t, uint64_t) {});
  file.Add(kSpoRunRelationsSection, spo_run_relations.data(),
           spo_run_relations.size() * sizeof(uint32_t));
  file.Add(kPredRunsSection, pred_runs.data(),
           pred_runs.size() * sizeof(uint64_t));
  PKGM_RETURN_IF_ERROR(file.Finish());

  TripleIndexBuildStats stats;
  stats.num_triples = n;
  stats.spo_runs = spo_runs;
  stats.pos_runs = pos_runs;
  stats.osp_runs = osp_runs;
  stats.file_bytes = file.bytes_written();
  stats.seconds = sw.ElapsedSeconds();
  return stats;
}

}  // namespace pkgm::kg
