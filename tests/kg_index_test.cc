// Tests for the on-disk triple index tier (src/kg/*.pkgt*): round-trip
// parity between the in-memory TripleStore and the memory-mapped
// MmapTripleIndex, corrupt-file rejection mirroring the .pkgs suite, and
// bit-identical training and filtered evaluation across the two
// TripleSource backends.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/link_prediction.h"
#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "kg/mmap_triple_index.h"
#include "kg/pkgt_format.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_index_writer.h"
#include "kg/triple_store.h"
#include "mutation.h"
#include "util/rng.h"
#include "util/section_file.h"
#include "util/status.h"

namespace pkgm {
namespace {

std::string TempIndexPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// A small deterministic product KG exercised by most tests here.
kg::SyntheticPkg SmallPkg(uint64_t seed = 5) {
  kg::SyntheticPkgOptions opt;
  opt.seed = seed;
  opt.num_categories = 4;
  opt.items_per_category = 30;
  return kg::SyntheticPkgGenerator(opt).Generate();
}

/// Builds a .pkgt from `store` and opens it; asserts success.
kg::MmapTripleIndex BuildAndOpen(const kg::TripleStore& store,
                                 const std::string& path) {
  auto stats = kg::TripleIndexWriter().Write(store, path);
  EXPECT_TRUE(stats.ok()) << stats.status().message();
  auto opened = kg::MmapTripleIndex::Open(path);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  return std::move(opened.value());
}

std::vector<uint32_t> Sorted(kg::IdSpan span) {
  std::vector<uint32_t> v(span.begin(), span.end());
  std::sort(v.begin(), v.end());
  return v;
}

/// Offset of section `tag` in the index at `path` (opened without the
/// checksum pass).
uint64_t SectionOffset(const std::string& path, uint32_t tag) {
  kg::MmapTripleIndexOptions lazy;
  lazy.verify_checksum = false;
  auto opened = kg::MmapTripleIndex::Open(path, lazy);
  EXPECT_TRUE(opened.ok()) << opened.status().message();
  if (!opened.ok()) return 0;
  const SectionEntry* section = opened.value().file().Find(tag);
  EXPECT_NE(section, nullptr);
  return section == nullptr ? 0 : section->offset;
}

void FlipByteAt(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, offset, SEEK_SET);
  int c = std::fgetc(f);
  ASSERT_NE(c, EOF);
  std::fseek(f, offset, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

// ------------------------------------------------------ backend parity --

TEST(KgIndexParity, AnswersMatchTripleStoreOnSyntheticPkg) {
  kg::SyntheticPkg pkg = SmallPkg();
  const kg::TripleStore& store = pkg.observed;
  const std::string path = TempIndexPath("parity.pkgt");
  kg::MmapTripleIndex index = BuildAndOpen(store, path);

  EXPECT_EQ(index.NumTriples(), store.NumTriples());
  EXPECT_EQ(index.MaxEntityId(), store.MaxEntityId());
  EXPECT_EQ(index.MaxRelationId(), store.MaxRelationId());
  ASSERT_TRUE(index.Validate().ok());

  // Every stored triple answers identically through both backends; probe
  // the full cross product of access paths per triple.
  for (const kg::Triple& t : store.triples()) {
    EXPECT_TRUE(index.Contains(t.head, t.relation, t.tail));
    EXPECT_TRUE(index.HasRelation(t.head, t.relation));
    EXPECT_EQ(Sorted(index.Tails(t.head, t.relation)),
              Sorted(store.Tails(t.head, t.relation)));
    EXPECT_EQ(Sorted(index.Heads(t.relation, t.tail)),
              Sorted(store.Heads(t.relation, t.tail)));
    EXPECT_EQ(Sorted(index.RelationsOf(t.head)),
              Sorted(store.RelationsOf(t.head)));
  }
  for (uint32_t r = 0; r < store.MaxRelationId(); ++r) {
    EXPECT_EQ(index.RelationCount(r), store.RelationCount(r));
  }

  // Negative probes: perturbed triples must agree (nearly all absent).
  for (const kg::Triple& t : pkg.held_out) {
    EXPECT_EQ(index.Contains(t.head, t.relation, t.tail),
              store.Contains(t.head, t.relation, t.tail));
  }
  EXPECT_FALSE(index.Contains(store.MaxEntityId() + 5, 0, 0));
  EXPECT_TRUE(index.Tails(store.MaxEntityId() + 5, 0).empty());
  EXPECT_TRUE(index.RelationsOf(store.MaxEntityId() + 5).empty());
  EXPECT_EQ(index.RelationCount(store.MaxRelationId() + 3), 0u);

  // AppendTriples round-trips the full triple set (as a sorted multiset).
  std::vector<kg::Triple> from_index, from_store;
  index.AppendTriples(&from_index);
  store.AppendTriples(&from_store);
  const auto spo_less = [](const kg::Triple& a, const kg::Triple& b) {
    return std::tie(a.head, a.relation, a.tail) <
           std::tie(b.head, b.relation, b.tail);
  };
  std::sort(from_store.begin(), from_store.end(), spo_less);
  ASSERT_EQ(from_index.size(), from_store.size());
  EXPECT_TRUE(std::is_sorted(from_index.begin(), from_index.end(), spo_less));
  for (size_t i = 0; i < from_index.size(); ++i) {
    EXPECT_EQ(from_index[i], from_store[i]);
  }
  std::remove(path.c_str());
}

TEST(KgIndexWriter, DeduplicatesAndRejectsEmptyInput) {
  const std::string path = TempIndexPath("dedup.pkgt");
  auto stats = kg::TripleIndexWriter().WriteTriples(
      {{1, 0, 2}, {1, 0, 2}, {3, 1, 4}, {1, 0, 2}}, path);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->num_triples, 2u);

  auto empty = kg::TripleIndexWriter().WriteTriples({}, path);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ------------------------------------------------------- corrupt files --

TEST(KgIndexCorruption, TruncatedIndexIsRejected) {
  kg::SyntheticPkg pkg = SmallPkg();
  const std::string path = TempIndexPath("trunc.pkgt");
  ASSERT_TRUE(kg::TripleIndexWriter().Write(pkg.observed, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  auto opened = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(KgIndexCorruption, BadMagicIsRejected) {
  kg::SyntheticPkg pkg = SmallPkg();
  const std::string path = TempIndexPath("magic.pkgt");
  ASSERT_TRUE(kg::TripleIndexWriter().Write(pkg.observed, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint32_t bogus = 0xDEADBEEFu;
  std::fwrite(&bogus, sizeof(bogus), 1, f);
  std::fclose(f);

  auto opened = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(KgIndexCorruption, UnsupportedVersionIsRejected) {
  kg::SyntheticPkg pkg = SmallPkg();
  const std::string path = TempIndexPath("version.pkgt");
  ASSERT_TRUE(kg::TripleIndexWriter().Write(pkg.observed, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint32_t future = kg::kPkgtFormatVersion + 1;
  std::fseek(f, 4, SEEK_SET);  // header byte layout: version at [4, 8)
  std::fwrite(&future, sizeof(future), 1, f);
  std::fclose(f);

  auto opened = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(KgIndexCorruption, PayloadBitFlipFailsChecksum) {
  kg::SyntheticPkg pkg = SmallPkg();
  const std::string path = TempIndexPath("flip.pkgt");
  ASSERT_TRUE(kg::TripleIndexWriter().Write(pkg.observed, path).ok());
  // Flip a value byte near the start of the SPO values section.
  FlipByteAt(path, static_cast<long>(
                       SectionOffset(path, kg::kSpoSections.values) + 1));

  auto strict = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  // Lazy mode maps it anyway (large-index fast path) but an explicit
  // VerifyChecksum still catches the flip.
  kg::MmapTripleIndexOptions lazy;
  lazy.verify_checksum = false;
  auto opened = kg::MmapTripleIndex::Open(path, lazy);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  Status s = opened.value().VerifyChecksum();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(KgIndexCorruption, OutOfOrderRunKeysAreRejected) {
  kg::SyntheticPkg pkg = SmallPkg();
  const std::string path = TempIndexPath("order.pkgt");
  ASSERT_TRUE(kg::TripleIndexWriter().Write(pkg.observed, path).ok());
  // Overwrite the first SPO run key with the maximum key and re-seal the
  // CRCs: keys are no longer strictly increasing, which must fail the
  // structural check at open, not the checksum.
  const uint64_t huge = ~UINT64_C(0);
  ASSERT_TRUE(PatchSealed(path, SectionOffset(path, kg::kSpoSections.keys),
                          &huge, sizeof(huge)));

  auto opened = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("run keys out of order"),
            std::string::npos)
      << opened.status().message();
  std::remove(path.c_str());
}

TEST(KgIndexCorruption, InflatedEntityCountIsRejected) {
  // META claiming a billion entities over a small graph (CRCs re-sealed)
  // would make a trainer size its tables from it; the count must be one
  // past the largest id the permutations hold.
  kg::SyntheticPkg pkg = SmallPkg();
  const std::string path = TempIndexPath("count.pkgt");
  ASSERT_TRUE(kg::TripleIndexWriter().Write(pkg.observed, path).ok());
  const uint32_t billion = 1000000000u;
  ASSERT_TRUE(PatchSealed(path,
                          SectionOffset(path, kMetaSection) +
                              offsetof(kg::PkgtMeta, num_entities),
                          &billion, sizeof(billion)));

  auto opened = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(KgIndexCorruption, ParentVersionIsRejected) {
  // The version-1 layout: a 160-byte header (magic, version, ...) and the
  // permutation arrays behind it. Only the version refuses it.
  std::string parent(4096, '\0');
  const uint32_t magic = kg::kPkgtMagic, version = 1;
  std::memcpy(&parent[0], &magic, sizeof(magic));
  std::memcpy(&parent[4], &version, sizeof(version));
  const std::string path = TempIndexPath("v1.pkgt");
  ASSERT_TRUE(WriteFileBytes(path, parent));

  auto opened = kg::MmapTripleIndex::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("format version 1; this build "
                                           "reads version 2"),
            std::string::npos)
      << opened.status().message();
  std::remove(path.c_str());
}

// Every mutant of a .pkgt opens or returns Corruption, never a crash or a
// sanitizer report. Half the mutants get their CRCs re-sealed so the
// mutation reaches the container's entry checks and the index's META and
// structure checks; an accepted index answers queries over its mapping.
TEST(MutationTest, TripleIndexFilesOpenOrFailCleanly) {
  kg::TripleStore small;
  small.Add(1, 0, 2);
  small.Add(1, 0, 3);
  small.Add(4, 1, 2);
  small.Add(5, 2, 1);
  const std::string path =
      TempIndexPath(("mutant." + std::to_string(::getpid()) + ".pkgt").c_str());
  ASSERT_TRUE(kg::TripleIndexWriter().Write(small, path).ok());
  const std::string other = ReadFileBytes(path);
  ASSERT_TRUE(kg::TripleIndexWriter().Write(SmallPkg().observed, path).ok());
  const std::string input = ReadFileBytes(path);
  const std::vector<size_t> fields = SectionTableFields(input);

  Rng rng(20241);
  size_t accepted = 0;
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    std::string mutant = iter == 0 ? input : Mutate(input, other, fields, &rng);
    if (iter % 2 == 1) ResealSections(&mutant);
    ASSERT_TRUE(WriteFileBytes(path, mutant));
    auto opened = kg::MmapTripleIndex::Open(path);
    if (!opened.ok()) {
      EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
          << opened.status().message();
      continue;
    }
    ++accepted;
    const kg::MmapTripleIndex& index = opened.value();
    (void)index.Validate();
    std::vector<kg::Triple> triples;
    index.AppendTriples(&triples);
    EXPECT_EQ(triples.size(), index.NumTriples());
    for (const kg::Triple& t : triples) {
      EXPECT_FALSE(index.Tails(t.head, t.relation).empty());
      (void)index.Heads(t.relation, t.tail);
      (void)index.RelationsOf(t.head);
      (void)index.RelationCount(t.relation);
    }
  }
  EXPECT_GT(accepted, 2u);
  std::remove(path.c_str());
}

// ------------------------------------------- training / eval via source --

TEST(KgIndexTraining, SeededLossIsBitIdenticalAcrossBackends) {
  // Insert the triples into the in-memory store in SPO order, matching the
  // order the index's AppendTriples produces — with identical epoch triple
  // order and a fixed seed the two backends must yield bit-identical
  // trajectories.
  kg::SyntheticPkg pkg = SmallPkg(23);
  std::vector<kg::Triple> triples = pkg.observed.triples();
  std::sort(triples.begin(), triples.end(),
            [](const kg::Triple& a, const kg::Triple& b) {
              return std::tie(a.head, a.relation, a.tail) <
                     std::tie(b.head, b.relation, b.tail);
            });
  kg::TripleStore sorted_store;
  for (const kg::Triple& t : triples) sorted_store.Add(t);

  const std::string path = TempIndexPath("train.pkgt");
  kg::MmapTripleIndex index = BuildAndOpen(sorted_store, path);

  core::PkgmModelOptions mopt;
  mopt.num_entities = sorted_store.MaxEntityId();
  mopt.num_relations = sorted_store.MaxRelationId();
  mopt.dim = 16;
  mopt.seed = 77;
  core::TrainerOptions topt;
  topt.seed = 31;

  core::PkgmModel model_mem(mopt);
  core::Trainer trainer_mem(&model_mem, &sorted_store, topt);
  core::PkgmModel model_idx(mopt);
  core::Trainer trainer_idx(&model_idx, &index, topt);

  for (int epoch = 0; epoch < 2; ++epoch) {
    const core::EpochStats mem = trainer_mem.RunEpoch();
    const core::EpochStats idx = trainer_idx.RunEpoch();
    EXPECT_EQ(mem.mean_hinge, idx.mean_hinge);
    EXPECT_EQ(mem.active_pairs, idx.active_pairs);
  }
  for (uint32_t e = 0; e < mopt.num_entities; ++e) {
    ASSERT_EQ(std::memcmp(model_mem.entity(e), model_idx.entity(e),
                          mopt.dim * sizeof(float)),
              0);
  }
  std::remove(path.c_str());
}

TEST(KgIndexEval, FilteredRankingMatchesAcrossBackends) {
  kg::SyntheticPkg pkg = SmallPkg(29);
  const kg::TripleStore& store = pkg.observed;
  const std::string path = TempIndexPath("eval.pkgt");
  kg::MmapTripleIndex index = BuildAndOpen(store, path);

  core::PkgmModelOptions mopt;
  mopt.num_entities = store.MaxEntityId();
  mopt.num_relations = store.MaxRelationId();
  mopt.dim = 16;
  mopt.seed = 3;
  core::PkgmModel model(mopt);

  std::vector<kg::Triple> test(store.triples().begin(),
                               store.triples().begin() + 50);
  core::LinkPredictionEvaluator::Options eopt;
  eopt.num_threads = 1;
  core::LinkPredictionEvaluator eval_mem(&model, &store, eopt);
  core::LinkPredictionEvaluator eval_idx(&model, &index, eopt);

  const core::LinkPredictionResult mem = eval_mem.EvaluateTails(test);
  const core::LinkPredictionResult idx = eval_idx.EvaluateTails(test);
  EXPECT_EQ(mem.mrr, idx.mrr);
  EXPECT_EQ(mem.mean_rank, idx.mean_rank);
  EXPECT_EQ(mem.hits, idx.hits);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pkgm
