// Failure-injection and edge-case tests across modules: corrupt/truncated
// checkpoints, degenerate datasets and stores, masked-attention gradient
// correctness, optimizer weight decay, and cross-scorer service identities.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>

#include "core/link_prediction.h"
#include "core/pkgm_model.h"
#include "core/service.h"
#include "data/classification_dataset.h"
#include "kg/etl.h"
#include "kg/split.h"
#include "kg/synthetic_pkg.h"
#include "mutation.h"
#include "nn/optimizer.h"
#include "nn/transformer.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "tensor/init.h"
#include "text/title_generator.h"
#include "util/section_file.h"

namespace pkgm {
namespace {

// ------------------------------------------------- checkpoint corruption --

core::PkgmModelOptions TinyModel() {
  core::PkgmModelOptions opt;
  opt.num_entities = 6;
  opt.num_relations = 2;
  opt.dim = 4;
  return opt;
}

/// Writes `model` as a checkpoint: an fp32 .pkgs store.
void SaveCheckpoint(const core::PkgmModel& model, const std::string& path) {
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
}

/// File offset of the META field at `field` in the checkpoint at `path`.
uint64_t MetaFieldOffset(const std::string& path, size_t field) {
  auto file = SectionFile::Open(path, store::kStoreMagic,
                                store::kStoreFormatVersion);
  EXPECT_TRUE(file.ok()) << file.status().ToString();
  if (!file.ok()) return 0;
  return file.value().Find(kMetaSection)->offset + field;
}

TEST(CheckpointRobustness, TruncatedFileIsCorruption) {
  core::PkgmModel model(TinyModel());
  const std::string path = ::testing::TempDir() + "/trunc.pkgs";
  SaveCheckpoint(model, path);
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  auto loaded = store::LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, TruncatedMidHeaderIsCorruption) {
  core::PkgmModel model(TinyModel());
  const std::string path = ::testing::TempDir() + "/trunc_hdr.pkgs";
  SaveCheckpoint(model, path);
  ASSERT_EQ(truncate(path.c_str(), 9), 0);  // shorter than the header

  auto loaded = store::LoadModel(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, GarbageHeaderCountsRejectedWithoutAllocating) {
  // META advertising billions of rows must come back as a clean Corruption
  // status (the section-size check fires before any table allocation), not
  // an OOM or a crash. The patch re-seals the CRCs, so it is the size check
  // that rejects it, not the checksum.
  core::PkgmModel model(TinyModel());
  const std::string path = ::testing::TempDir() + "/garbage.pkgs";
  SaveCheckpoint(model, path);
  const uint32_t huge = 0xFFFFFFFEu;
  ASSERT_TRUE(PatchSealed(
      path, MetaFieldOffset(path, offsetof(store::StoreMeta, num_entities)),
      &huge, sizeof(huge)));

  auto loaded = store::LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("does not hold"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, TrailingGarbageRejected) {
  core::PkgmModel model(TinyModel());
  const std::string path = ::testing::TempDir() + "/tail.pkgs";
  SaveCheckpoint(model, path);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[16] = {0};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  auto loaded = store::LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, WrongVersionRejected) {
  core::PkgmModel model(TinyModel());
  const std::string path = ::testing::TempDir() + "/ver.pkgs";
  SaveCheckpoint(model, path);
  // Patch the version word (offset 4) to 999.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  uint32_t bogus = 999;
  std::fseek(f, 4, SEEK_SET);
  std::fwrite(&bogus, sizeof(bogus), 1, f);
  std::fclose(f);

  auto loaded = store::LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, BogusScorerRejected) {
  core::PkgmModel model(TinyModel());
  const std::string path = ::testing::TempDir() + "/scorer.pkgs";
  SaveCheckpoint(model, path);
  const uint32_t bogus = 42;  // not a TripleScorerKind
  ASSERT_TRUE(PatchSealed(
      path, MetaFieldOffset(path, offsetof(store::StoreMeta, scorer)), &bogus,
      sizeof(bogus)));

  auto loaded = store::LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("unknown scorer kind"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, ParentCheckpointFormatIsRefused) {
  // The retired "PKGM" checkpoint: seven u32 (magic, version 2, entities,
  // relations, dim, relation module, scorer) and the fp32 tables, with no
  // checksum. No compatibility reader is kept: its magic is refused.
  const core::PkgmModelOptions opt = TinyModel();
  const uint32_t header[7] = {0x504b474du, 2, opt.num_entities,
                              opt.num_relations, opt.dim, 1, 0};
  std::string parent(reinterpret_cast<const char*>(header), sizeof(header));
  parent.resize(parent.size() +
                    sizeof(float) * opt.dim *
                        (opt.num_entities + opt.num_relations +
                         opt.num_relations * opt.dim),
                '\0');
  const std::string path = ::testing::TempDir() + "/parent_ckpt.bin";
  ASSERT_TRUE(WriteFileBytes(path, parent));

  auto loaded = store::LoadModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(CheckpointRobustness, SaveToUnwritablePathFails) {
  core::PkgmModel model(TinyModel());
  Status s = store::EmbeddingStoreWriter().Write(model,
                                                 "/nonexistent-dir/x/y.pkgs");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ------------------------------------------------------- degenerate data --

TEST(DegenerateData, EtlOnEmptyStore) {
  kg::TripleStore empty;
  kg::EtlStats stats;
  kg::TripleStore out = kg::FilterByRelationFrequency(empty, 4, 10, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.input_triples, 0u);
  EXPECT_EQ(stats.dropped_relations, 0u);
}

TEST(DegenerateData, SplitAllToTrain) {
  kg::TripleStore s;
  for (uint32_t i = 0; i < 10; ++i) s.Add(i, 0, i + 100);
  Rng rng(1);
  kg::TripleSplit split = kg::SplitTriples(s, 1.0, 0.0, &rng);
  EXPECT_EQ(split.train.size(), 10u);
  EXPECT_TRUE(split.valid.empty());
  EXPECT_TRUE(split.test.empty());
}

TEST(DegenerateData, SingleCategoryGeneratorWorks) {
  kg::SyntheticPkgOptions opt;
  opt.seed = 3;
  opt.num_categories = 1;
  opt.items_per_category = 20;
  opt.properties_per_category = 4;
  opt.shared_property_pool = 4;
  opt.values_per_property = 5;
  opt.products_per_category = 4;
  opt.identity_properties = 2;
  opt.etl_min_occurrence = 1;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt).Generate();
  EXPECT_EQ(pkg.num_categories, 1u);
  EXPECT_GE(pkg.items.size(), 20u);
  EXPECT_FALSE(pkg.observed.empty());
}

TEST(DegenerateData, FullFillRateLeavesNothingHeldOut) {
  kg::SyntheticPkgOptions opt;
  opt.seed = 5;
  opt.num_categories = 2;
  opt.items_per_category = 15;
  opt.properties_per_category = 4;
  opt.values_per_property = 5;
  opt.products_per_category = 4;
  opt.identity_properties = 2;
  opt.observed_fill_rate = 1.0;
  opt.noise_properties = 0;
  opt.etl_min_occurrence = 1;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt).Generate();
  EXPECT_TRUE(pkg.held_out.empty());
}

TEST(DegenerateData, ClassificationFromTinyPkg) {
  kg::SyntheticPkgOptions opt;
  opt.seed = 7;
  opt.num_categories = 2;
  opt.items_per_category = 10;
  opt.properties_per_category = 3;
  opt.values_per_property = 4;
  opt.products_per_category = 3;
  opt.identity_properties = 1;
  opt.etl_min_occurrence = 1;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt).Generate();
  text::TitleGenerator titles(&pkg, text::TitleGeneratorOptions{});
  data::ClassificationDatasetOptions copt;
  copt.max_per_category = 5;
  data::ClassificationDataset ds =
      BuildClassificationDataset(pkg, titles, copt);
  EXPECT_GT(ds.train.size() + ds.test.size() + ds.dev.size(), 0u);
}

// ------------------------------------------- masked attention correctness --

// The valid_len mask must hold through backward too: gradients flowing to
// embeddings must be identical whether or not garbage sits past valid_len.
TEST(MaskedAttention, BackwardIgnoresPaddedKeys) {
  Rng rng(11);
  nn::TransformerEncoderLayer layer(8, 2, 16, &rng, "m");
  Mat x1(5, 8), dy(5, 8);
  UniformInit(x1.size(), -1, 1, &rng, x1.data());
  UniformInit(dy.size(), -1, 1, &rng, dy.data());
  // Zero the gradient rows of padded queries: only valid tokens get loss.
  for (size_t j = 0; j < 8; ++j) {
    dy(3, j) = 0;
    dy(4, j) = 0;
  }

  Mat x2 = x1;
  for (size_t j = 0; j < 8; ++j) x2(4, j) += 3.0f;  // corrupt padding

  Mat y1, dx1;
  layer.Forward(x1, 3, &y1);
  layer.Backward(x1, dy, &dx1);
  Mat y2, dx2;
  layer.Forward(x2, 3, &y2);
  layer.Backward(x2, dy, &dx2);

  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(y1(i, j), y2(i, j)) << i << "," << j;
      EXPECT_FLOAT_EQ(dx1(i, j), dx2(i, j)) << i << "," << j;
    }
  }
}

// ------------------------------------------------------ optimizer extras --

TEST(OptimizerExtras, SgdWeightDecayShrinksWeights) {
  nn::Parameter p("p", 1, 1);
  p.value(0, 0) = 1.0f;
  nn::SgdOptimizer opt({&p}, 0.1f, /*weight_decay=*/0.5f);
  // Zero gradient: only decay acts. w -= lr * wd * w.
  opt.Step();
  EXPECT_NEAR(p.value(0, 0), 1.0f - 0.1f * 0.5f, 1e-6);
}

TEST(OptimizerExtras, AdamDecoupledWeightDecay) {
  nn::Parameter p("p", 1, 1);
  p.value(0, 0) = 2.0f;
  nn::AdamOptimizer::Options cfg;
  cfg.lr = 0.1f;
  cfg.weight_decay = 0.5f;
  nn::AdamOptimizer opt({&p}, cfg);
  opt.Step();  // zero grad -> only the decoupled decay term
  EXPECT_NEAR(p.value(0, 0), 2.0f - 0.1f * 0.5f * 2.0f, 1e-5);
}

// -------------------------------------- service identities across scorers --

class ServiceScorerSweep
    : public ::testing::TestWithParam<core::TripleScorerKind> {};

TEST_P(ServiceScorerSweep, CondensedEqualsMeanOfSequence) {
  core::PkgmModelOptions opt;
  opt.num_entities = 12;
  opt.num_relations = 5;
  opt.dim = 8;
  opt.scorer = GetParam();
  core::PkgmModel model(opt);
  core::ServiceVectorProvider provider(&model, {3, 7},
                                       {{0, 1, 4}, {2, 3}});
  for (uint32_t item : {0u, 1u}) {
    auto seq = provider.Sequence(item, core::ServiceMode::kAll);
    Vec cond = provider.Condensed(item, core::ServiceMode::kAll);
    const uint32_t k = provider.NumKeyRelations(item);
    const uint32_t d = model.dim();
    for (uint32_t j = 0; j < d; ++j) {
      float mean_t = 0, mean_r = 0;
      for (uint32_t i = 0; i < k; ++i) {
        mean_t += seq[i][j];
        mean_r += seq[k + i][j];
      }
      EXPECT_NEAR(cond[j], mean_t / k, 1e-5);
      EXPECT_NEAR(cond[d + j], mean_r / k, 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scorers, ServiceScorerSweep,
                         ::testing::Values(core::TripleScorerKind::kTransE,
                                           core::TripleScorerKind::kDistMult,
                                           core::TripleScorerKind::kComplEx,
                                           core::TripleScorerKind::kTransH));

// ---------------------------------------------- link prediction edge cases --

TEST(LinkPredictionEdge, EmptyTestSet) {
  core::PkgmModel model(TinyModel());
  kg::TripleStore known;
  core::LinkPredictionEvaluator::Options opt;
  opt.filtered = false;
  core::LinkPredictionEvaluator eval(&model, &known, opt);
  auto result = eval.EvaluateTails({});
  EXPECT_EQ(result.count, 0u);
  EXPECT_DOUBLE_EQ(result.mrr, 0.0);
}

TEST(LinkPredictionEdge, SingleCandidateAlwaysRankOne) {
  core::PkgmModel model(TinyModel());
  kg::TripleStore known;
  core::LinkPredictionEvaluator::Options opt;
  opt.filtered = false;
  core::LinkPredictionEvaluator eval(&model, &known, opt);
  std::unordered_map<kg::RelationId, std::vector<kg::EntityId>> candidates;
  candidates[0] = {3};
  auto result = eval.EvaluateTails({{0, 0, 3}}, &candidates);
  EXPECT_DOUBLE_EQ(result.mrr, 1.0);
}

}  // namespace
}  // namespace pkgm
