// Edge-case coverage across modules that the per-module suites leave
// implicit: single-element samplers, trainer evaluation helpers, NCF
// batching consistency, pair-input length sweeps, and vocabulary limits.

#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.h"
#include "kg/triple_store.h"
#include "nn/optimizer.h"
#include "rec/ncf.h"
#include "text/tokenizer.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace pkgm {
namespace {

// ---------------------------------------------------------------- samplers --

TEST(SamplerEdge, ZipfSingleElement) {
  Rng rng(1);
  ZipfSampler sampler(1, 1.0);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(SamplerEdge, AliasSingleElement) {
  Rng rng(2);
  AliasSampler sampler({3.5});
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(SamplerEdge, UniformOfOne) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.Uniform(1), 0u);
}

TEST(SamplerEdge, SampleWithoutReplacementZero) {
  Rng rng(4);
  EXPECT_TRUE(rng.SampleWithoutReplacement(10, 0).empty());
}

TEST(SamplerEdge, ShuffleSingleAndEmpty) {
  Rng rng(5);
  std::vector<int> one = {7};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 7);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
}

// --------------------------------------------------------------- histogram --

TEST(HistogramEdge, EmptySummaryAndMean) {
  Histogram h;
  EXPECT_EQ(h.Summary(), "count=0");
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
}

TEST(HistogramEdge, SingleSample) {
  Histogram h;
  h.Record(3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 3.5);
  EXPECT_DOUBLE_EQ(h.Stddev(), 0.0);
}

// ----------------------------------------------------------------- trainer --

TEST(TrainerEdge, EvaluateMeanHingeNonNegativeAndDropsWithTraining) {
  kg::TripleStore store;
  for (uint32_t i = 0; i < 8; ++i) store.Add(i, 0, 8 + i % 4);

  core::PkgmModelOptions mopt;
  mopt.num_entities = 12;
  mopt.num_relations = 1;
  mopt.dim = 8;
  core::PkgmModel model(mopt);

  core::TrainerOptions topt;
  topt.learning_rate = 0.05f;
  topt.batch_size = 4;
  topt.seed = 5;
  core::Trainer trainer(&model, &store, topt);

  const double before = trainer.EvaluateMeanHinge(store.triples());
  EXPECT_GE(before, 0.0);
  trainer.Train(40);
  const double after = trainer.EvaluateMeanHinge(store.triples());
  EXPECT_GE(after, 0.0);
  EXPECT_LT(after, before);
}

TEST(TrainerEdge, EvaluateMeanHingeEmptyListIsZero) {
  kg::TripleStore store;
  store.Add(0, 0, 1);
  core::PkgmModelOptions mopt;
  mopt.num_entities = 2;
  mopt.num_relations = 1;
  mopt.dim = 4;
  core::PkgmModel model(mopt);
  core::Trainer trainer(&model, &store, core::TrainerOptions{});
  EXPECT_DOUBLE_EQ(trainer.EvaluateMeanHinge({}), 0.0);
}

// --------------------------------------------------------------------- NCF --

TEST(NcfEdge, BatchForwardMatchesSinglePredictions) {
  rec::NcfConfig cfg;
  cfg.num_users = 6;
  cfg.num_items = 9;
  cfg.gmf_dim = 4;
  cfg.mlp_dim = 6;
  cfg.mlp_hidden = {6, 3};
  cfg.seed = 9;
  rec::NcfModel model(cfg);

  std::vector<uint32_t> users = {0, 3, 5};
  std::vector<uint32_t> items = {2, 8, 1};
  Mat logits;
  model.Forward(users, items, nullptr, &logits);
  for (size_t i = 0; i < users.size(); ++i) {
    const float p_batch = 1.0f / (1.0f + std::exp(-logits(i, 0)));
    const float p_single = model.Predict(users[i], items[i], nullptr);
    EXPECT_NEAR(p_batch, p_single, 1e-5);
  }
}

TEST(NcfEdge, ParamCountMatchesArchitecture) {
  rec::NcfConfig cfg;
  cfg.num_users = 4;
  cfg.num_items = 5;
  cfg.gmf_dim = 2;
  cfg.mlp_dim = 3;
  cfg.mlp_hidden = {4};
  cfg.pkgm_dim = 2;
  cfg.seed = 11;
  rec::NcfModel model(cfg);
  // 4 embedding tables + (W,b) per hidden layer + (W,b) output layer.
  auto params = model.Params();
  EXPECT_EQ(params.size(), 4u + 2u + 2u);
  // The first MLP layer consumes 2*mlp_dim + pkgm_dim inputs.
  size_t total = 0;
  for (auto* p : params) total += p->size();
  const size_t expected = 4 * 2 + 5 * 2 + 4 * 3 + 5 * 3     // embeddings
                          + (2 * 3 + 2) * 4 + 4              // mlp0 W+b
                          + (2 + 4) * 1 + 1;                 // out W+b
  EXPECT_EQ(total, expected);
}

// --------------------------------------------------------------- tokenizer --

class PairInputLengthSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PairInputLengthSweep, AlwaysFitsAndTerminatesWithSep) {
  const size_t max_len = GetParam();
  std::vector<uint32_t> a(40, 8), b(40, 9);
  size_t valid = 0;
  std::vector<uint32_t> segs;
  auto ids = text::BuildPairInput(a, b, max_len, &valid, &segs);
  EXPECT_EQ(ids.size(), max_len);
  EXPECT_EQ(segs.size(), max_len);
  EXPECT_LE(valid, max_len);
  EXPECT_EQ(ids[0], text::kClsId);
  EXPECT_EQ(ids[valid - 1], text::kSepId);
  // Segments are monotone 0 -> 1 over the valid prefix.
  bool seen_one = false;
  for (size_t i = 0; i < valid; ++i) {
    if (segs[i] == 1) seen_one = true;
    if (seen_one) {
      EXPECT_EQ(segs[i], 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, PairInputLengthSweep,
                         ::testing::Values(5, 8, 16, 33, 100));

TEST(TokenizerEdge, EncodeEmptyString) {
  text::Tokenizer tok;
  tok.CountCorpusLine("a");
  tok.BuildVocab(1);
  EXPECT_TRUE(tok.Encode("").empty());
  EXPECT_TRUE(tok.Encode("   \t ").empty());
}

// ------------------------------------------------------------- adam extras --

TEST(AdamEdge, HandlesZeroGradientSteps) {
  nn::Parameter p("p", 2, 2);
  p.value.Fill(1.0f);
  nn::AdamOptimizer::Options cfg;
  cfg.lr = 0.1f;
  nn::AdamOptimizer opt({&p}, cfg);
  for (int i = 0; i < 5; ++i) opt.Step();  // all-zero grads
  for (size_t i = 0; i < p.size(); ++i) {
    EXPECT_FLOAT_EQ(p.value.data()[i], 1.0f);
  }
}

}  // namespace
}  // namespace pkgm
