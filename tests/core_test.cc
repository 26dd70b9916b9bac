#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/epoch_engine.h"
#include "core/gradients.h"
#include "core/link_prediction.h"
#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "core/service.h"
#include "core/service_math.h"
#include "core/sharded_trainer.h"
#include "core/trainer.h"
#include "kg/triple_store.h"
#include "tensor/ops.h"

namespace pkgm::core {
namespace {

PkgmModelOptions SmallModel(uint32_t entities = 20, uint32_t relations = 4,
                            uint32_t dim = 8, bool rel_module = true) {
  PkgmModelOptions opt;
  opt.num_entities = entities;
  opt.num_relations = relations;
  opt.dim = dim;
  opt.use_relation_module = rel_module;
  opt.seed = 11;
  return opt;
}

// A small chain-structured KG for training tests: entities 0..9 are
// "items", 10..19 are "values"; items link to values through relations.
kg::TripleStore SmallKg() {
  kg::TripleStore store;
  for (uint32_t i = 0; i < 10; ++i) {
    store.Add(i, 0, 10 + i % 5);
    store.Add(i, 1, 15 + i % 3);
    if (i % 2 == 0) store.Add(i, 2, 18);
  }
  return store;
}

// ------------------------------------------------------------- PkgmModel --

TEST(PkgmModelTest, ScoreDecomposition) {
  PkgmModel model(SmallModel());
  kg::Triple t{1, 2, 3};
  EXPECT_NEAR(model.Score(t),
              model.TripleScore(t) + model.RelationScore(1, 2), 1e-5);
}

TEST(PkgmModelTest, TripleScoreIsL1OfTranslation) {
  PkgmModel model(SmallModel());
  kg::Triple t{0, 0, 1};
  float expected = 0.0f;
  for (uint32_t j = 0; j < model.dim(); ++j) {
    expected += std::fabs(model.entity(0)[j] + model.relation(0)[j] -
                          model.entity(1)[j]);
  }
  EXPECT_NEAR(model.TripleScore(t), expected, 1e-5);
}

TEST(PkgmModelTest, TripleServiceIsExactlyHPlusR) {
  PkgmModel model(SmallModel());
  std::vector<float> s(model.dim());
  model.TripleService(4, 2, s.data());
  for (uint32_t j = 0; j < model.dim(); ++j) {
    EXPECT_FLOAT_EQ(s[j], model.entity(4)[j] + model.relation(2)[j]);
  }
}

TEST(PkgmModelTest, RelationServiceIsMrHMinusR) {
  PkgmModel model(SmallModel());
  const uint32_t d = model.dim();
  std::vector<float> s(d), mh(d);
  model.RelationService(3, 1, s.data());
  GemvRaw(d, d, model.transfer(1), model.entity(3), mh.data());
  for (uint32_t j = 0; j < d; ++j) {
    EXPECT_NEAR(s[j], mh[j] - model.relation(1)[j], 1e-5);
  }
}

TEST(PkgmModelTest, RelationScoreIsNormOfRelationService) {
  PkgmModel model(SmallModel());
  const uint32_t d = model.dim();
  std::vector<float> s(d);
  model.RelationService(5, 2, s.data());
  EXPECT_NEAR(model.RelationScore(5, 2), L1Norm(d, s.data()), 1e-4);
}

TEST(PkgmModelTest, TransEOnlyModeZeroesRelationModule) {
  PkgmModel model(SmallModel(20, 4, 8, /*rel_module=*/false));
  EXPECT_FLOAT_EQ(model.RelationScore(1, 1), 0.0f);
  std::vector<float> s(model.dim(), 123.0f);
  model.RelationService(1, 1, s.data());
  for (float x : s) EXPECT_FLOAT_EQ(x, 0.0f);
  kg::Triple t{0, 1, 2};
  EXPECT_FLOAT_EQ(model.Score(t), model.TripleScore(t));
}

TEST(PkgmModelTest, NormalizeEntityProjectsToUnitBall) {
  PkgmModel model(SmallModel());
  float* e = model.entity(0);
  for (uint32_t j = 0; j < model.dim(); ++j) e[j] = 10.0f;
  model.NormalizeEntity(0);
  EXPECT_NEAR(L2Norm(model.dim(), e), 1.0f, 1e-5);
}

TEST(PkgmModelTest, CheckpointRoundTrip) {
  PkgmModel model(SmallModel());
  const std::string path = ::testing::TempDir() + "/pkgm_ckpt.bin";
  ASSERT_TRUE(model.SaveToFile(path).ok());
  auto loaded = PkgmModel::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_entities(), model.num_entities());
  EXPECT_EQ(loaded->dim(), model.dim());
  kg::Triple t{3, 1, 7};
  EXPECT_FLOAT_EQ(loaded->Score(t), model.Score(t));
  std::remove(path.c_str());
}

TEST(PkgmModelTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/pkgm_garbage.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a checkpoint at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  auto loaded = PkgmModel::LoadFromFile(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(PkgmModelTest, LoadMissingFileIsIoError) {
  auto loaded = PkgmModel::LoadFromFile("/nonexistent/dir/x.bin");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// --------------------------------------------------------- NegativeSampler --

TEST(NegativeSamplerTest, CorruptsExactlyOneSlot) {
  kg::TripleStore store = SmallKg();
  NegativeSampler::Options opt;
  opt.num_entities = 20;
  opt.num_relations = 4;
  NegativeSampler sampler(opt, &store);
  Rng rng(3);
  kg::Triple pos{0, 0, 10};
  for (int i = 0; i < 200; ++i) {
    NegativeSample neg = sampler.Sample(pos, &rng);
    int changed = (neg.triple.head != pos.head) +
                  (neg.triple.relation != pos.relation) +
                  (neg.triple.tail != pos.tail);
    EXPECT_EQ(changed, 1);
    switch (neg.slot) {
      case CorruptionSlot::kHead:
        EXPECT_NE(neg.triple.head, pos.head);
        break;
      case CorruptionSlot::kTail:
        EXPECT_NE(neg.triple.tail, pos.tail);
        break;
      case CorruptionSlot::kRelation:
        EXPECT_NE(neg.triple.relation, pos.relation);
        break;
    }
  }
}

TEST(NegativeSamplerTest, FilteredSamplerAvoidsKnownPositives) {
  kg::TripleStore store = SmallKg();
  NegativeSampler::Options opt;
  opt.num_entities = 20;
  opt.num_relations = 4;
  opt.filter_known_positives = true;
  NegativeSampler sampler(opt, &store);
  Rng rng(5);
  kg::Triple pos = store.triples()[0];
  int false_negatives = 0;
  for (int i = 0; i < 500; ++i) {
    NegativeSample neg = sampler.Sample(pos, &rng);
    if (store.Contains(neg.triple)) ++false_negatives;
  }
  // Bounded retries make false negatives possible but very rare.
  EXPECT_LE(false_negatives, 5);
}

TEST(NegativeSamplerTest, RelationCorruptionRateFollowsOption) {
  kg::TripleStore store = SmallKg();
  NegativeSampler::Options opt;
  opt.num_entities = 20;
  opt.num_relations = 4;
  opt.relation_corruption_prob = 0.5;
  opt.filter_known_positives = false;
  NegativeSampler sampler(opt, &store);
  Rng rng(7);
  int rel = 0;
  const int n = 4000;
  kg::Triple pos{0, 0, 10};
  for (int i = 0; i < n; ++i) {
    if (sampler.Sample(pos, &rng).slot == CorruptionSlot::kRelation) ++rel;
  }
  EXPECT_NEAR(rel / static_cast<double>(n), 0.5, 0.05);
}

// --------------------------------------------------------------- Gradients --

TEST(GradientsTest, HingeInactiveWhenNegativeFarWorse) {
  PkgmModel model(SmallModel());
  // Construct pos == neg scores by reusing the same triple; margin 0 makes
  // the hinge exactly 0 (pos + 0 - neg = 0, not > 0).
  kg::Triple t{0, 0, 1};
  SparseGrad grad;
  float hinge = AccumulateHingeGradients(model, t, t, 0.0f, &grad);
  EXPECT_FLOAT_EQ(hinge, 0.0f);
  EXPECT_TRUE(grad.empty());
}

TEST(GradientsTest, FiniteDifferenceOnEntityEmbedding) {
  PkgmModel model(SmallModel(10, 3, 6));
  kg::Triple pos{0, 0, 1};
  kg::Triple neg{0, 0, 2};
  const float margin = 50.0f;  // guarantee the hinge is active everywhere

  SparseGrad grad;
  float hinge = AccumulateHingeGradients(model, pos, neg, margin, &grad);
  ASSERT_GT(hinge, 0.0f);

  auto loss = [&] {
    return static_cast<double>(
        AccumulateHingeGradients(model, pos, neg, margin, nullptr));
  };

  // Check gradients for every touched entity/relation/transfer row.
  const double eps = 1e-3;
  auto check_span = [&](float* values, const std::vector<float>& g) {
    for (size_t i = 0; i < g.size(); ++i) {
      const float saved = values[i];
      values[i] = saved + static_cast<float>(eps);
      const double plus = loss();
      values[i] = saved - static_cast<float>(eps);
      const double minus = loss();
      values[i] = saved;
      const double numeric = (plus - minus) / (2 * eps);
      EXPECT_NEAR(numeric, g[i], 5e-2);
    }
  };
  for (const auto& [id, g] : grad.entities()) check_span(model.entity(id), g);
  for (const auto& [id, g] : grad.relations()) {
    check_span(model.relation(id), g);
  }
  for (const auto& [id, g] : grad.transfers()) {
    check_span(model.transfer(id), g);
  }
}

// ----------------------------------------------------------------- Trainer --

TEST(TrainerTest, HingeDecreasesOverEpochs) {
  kg::TripleStore store = SmallKg();
  PkgmModel model(SmallModel(20, 4, 16));
  TrainerOptions opt;
  opt.batch_size = 8;
  opt.learning_rate = 0.05f;
  opt.margin = 1.0f;
  opt.seed = 3;
  Trainer trainer(&model, &store, opt);
  EpochStats first = trainer.RunEpoch();
  EpochStats last;
  for (int i = 0; i < 30; ++i) last = trainer.RunEpoch();
  EXPECT_LT(last.mean_hinge, first.mean_hinge);
  EXPECT_LT(last.active_pairs, first.active_pairs + 1);
  EXPECT_GT(trainer.global_step(), 0u);
}

TEST(TrainerTest, SgdAlsoLearns) {
  kg::TripleStore store = SmallKg();
  PkgmModel model(SmallModel(20, 4, 16));
  TrainerOptions opt;
  opt.optimizer = OptimizerKind::kSgd;
  opt.learning_rate = 0.1f;
  opt.batch_size = 8;
  opt.seed = 5;
  Trainer trainer(&model, &store, opt);
  EpochStats first = trainer.RunEpoch();
  EpochStats last = trainer.Train(30);
  EXPECT_LT(last.mean_hinge, first.mean_hinge);
}

TEST(TrainerTest, TrainedPositivesScoreBelowRandomNegatives) {
  kg::TripleStore store = SmallKg();
  PkgmModel model(SmallModel(20, 4, 16));
  TrainerOptions opt;
  opt.learning_rate = 0.05f;
  opt.seed = 7;
  Trainer trainer(&model, &store, opt);
  trainer.Train(40);

  Rng rng(9);
  double pos_sum = 0, neg_sum = 0;
  int n = 0;
  for (const kg::Triple& t : store.triples()) {
    pos_sum += model.Score(t);
    kg::Triple corrupted = t;
    corrupted.tail = static_cast<kg::EntityId>(rng.Uniform(20));
    if (store.Contains(corrupted)) continue;
    neg_sum += model.Score(corrupted);
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_LT(pos_sum / n, neg_sum / n);
}

TEST(TrainerTest, RelationServiceNearZeroForOwnedRelations) {
  kg::TripleStore store = SmallKg();
  PkgmModel model(SmallModel(20, 4, 16));
  TrainerOptions opt;
  opt.learning_rate = 0.05f;
  opt.seed = 11;
  Trainer trainer(&model, &store, opt);
  trainer.Train(60);

  // f_R for (h, r) pairs present in the KG must be clearly smaller than for
  // absent pairs (relation 3 is never used by any head).
  double owned = 0, unowned = 0;
  int n_owned = 0, n_unowned = 0;
  for (uint32_t h = 0; h < 10; ++h) {
    owned += model.RelationScore(h, 0);
    ++n_owned;
    unowned += model.RelationScore(h, 3);
    ++n_unowned;
  }
  EXPECT_LT(owned / n_owned, unowned / n_unowned);
}

TEST(ShardedTrainerTest, LearnsLikeSingleThreaded) {
  kg::TripleStore store = SmallKg();
  PkgmModel model(SmallModel(20, 4, 16));
  ShardedTrainerOptions opt;
  opt.num_workers = 3;
  opt.batch_size = 4;
  opt.learning_rate = 0.1f;
  opt.seed = 13;
  ShardedTrainer trainer(&model, &store, opt);
  EpochStats first = trainer.RunEpoch();
  EpochStats last = trainer.Train(40);
  EXPECT_LT(last.mean_hinge, first.mean_hinge);
  EXPECT_GT(last.triples_per_second, 0.0);
}

// ------------------------------------------------- Fused gradient engine --

// Bit-equality of two models' parameter tables.
bool ModelsBitIdentical(const PkgmModel& a, const PkgmModel& b) {
  const auto same = [](const Mat& x, const Mat& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
  };
  return same(a.entity_table(), b.entity_table()) &&
         same(a.relation_table(), b.relation_table()) &&
         same(a.transfer_table(), b.transfer_table());
}

TEST(GradientsTest, FusedPathMatchesReferenceBitForBit) {
  // The fused forward+backward (GradArena + dispatch-table kernels) must
  // reproduce the map-based reference exactly: both sides run on the same
  // process-wide kernel table, and every fused composition mirrors the
  // reference's rounding sequence (DESIGN.md §12). Holds under every
  // PKGM_KERNEL CI matrix leg.
  PkgmModel model(SmallModel(30, 5, 24));
  const float margin = 50.0f;  // active hinge for every pair
  Rng rng(123);

  GradArena arena;
  HingeWorkspace ws;
  SparseGrad ref;
  for (int iter = 0; iter < 20; ++iter) {
    kg::Triple pos{static_cast<kg::EntityId>(rng.Uniform(30)),
                   static_cast<kg::RelationId>(rng.Uniform(5)),
                   static_cast<kg::EntityId>(rng.Uniform(30))};
    kg::Triple neg{static_cast<kg::EntityId>(rng.Uniform(30)),
                   pos.relation,
                   static_cast<kg::EntityId>(rng.Uniform(30))};
    const float want = AccumulateHingeGradients(model, pos, neg, margin, &ref);
    const float got = FusedHingeGradients(model, pos, neg, margin,
                                          simd::Active(), &ws, &arena);
    EXPECT_EQ(got, want) << "iter " << iter;
  }

  const auto check_slab = [&](const GradSlab& slab,
                              const std::unordered_map<uint32_t,
                                                       std::vector<float>>& m,
                              const char* what) {
    ASSERT_EQ(slab.size(), m.size()) << what;
    for (size_t i = 0; i < slab.size(); ++i) {
      const auto it = m.find(slab.id_at(i));
      ASSERT_NE(it, m.end()) << what << " id " << slab.id_at(i);
      ASSERT_EQ(it->second.size(), slab.row_size());
      EXPECT_EQ(0, std::memcmp(slab.row_at(i), it->second.data(),
                               slab.row_size() * sizeof(float)))
          << what << " id " << slab.id_at(i);
    }
  };
  check_slab(arena.entities(), ref.entities(), "entities");
  check_slab(arena.relations(), ref.relations(), "relations");
  check_slab(arena.transfers(), ref.transfers(), "transfers");
}

// Every usable kernel table: the batch engine and the per-pair loop must
// agree on each of them, not only on the process-wide one.
std::vector<const simd::KernelTable*> UsableKernelTables() {
  std::vector<const simd::KernelTable*> tables;
  for (simd::KernelIsa isa :
       {simd::KernelIsa::kScalar, simd::KernelIsa::kAvx2,
        simd::KernelIsa::kAvx512, simd::KernelIsa::kNeon}) {
    if (const simd::KernelTable* t = simd::KernelsForIsa(isa)) {
      tables.push_back(t);
    }
  }
  return tables;
}

// The batch engine's arena `got` against the per-pair loop's `want`. The
// entity, relation and hyperplane slabs are equal slab for slab: the same
// ids in the same first-touch order, and the same bytes in every row. The
// engine claims no dense transfer row; its factor groups cover exactly the
// ids of want's transfer slab, and each group, rebuilt on the table it was
// recorded with, equals want's dense dM_r row byte for byte.
void ExpectBatchMatchesPerPair(const GradArena& got, const GradArena& want) {
  const GradSlab* got_slabs[] = {&got.entities(), &got.relations(),
                                 &got.hyperplanes()};
  const GradSlab* want_slabs[] = {&want.entities(), &want.relations(),
                                  &want.hyperplanes()};
  for (int t = 0; t < 3; ++t) {
    SCOPED_TRACE("slab " + std::to_string(t));
    const GradSlab& g = *got_slabs[t];
    const GradSlab& w = *want_slabs[t];
    ASSERT_EQ(g.size(), w.size());
    for (size_t i = 0; i < g.size(); ++i) {
      ASSERT_EQ(g.id_at(i), w.id_at(i)) << "row " << i;
      ASSERT_EQ(g.row_size(), w.row_size());
      ASSERT_EQ(0, std::memcmp(g.row_at(i), w.row_at(i),
                               g.row_size() * sizeof(float)))
          << "row " << i << " id " << g.id_at(i);
    }
  }

  ASSERT_TRUE(got.transfers().empty());
  const TransferFactors& factors = got.transfer_factors();
  const GradSlab& dense = want.transfers();
  std::vector<uint32_t> group_ids, dense_ids;
  for (size_t g = 0; g < factors.num_groups(); ++g) {
    group_ids.push_back(factors.relation(g));
  }
  for (size_t i = 0; i < dense.size(); ++i) dense_ids.push_back(dense.id_at(i));
  std::sort(group_ids.begin(), group_ids.end());
  std::sort(dense_ids.begin(), dense_ids.end());
  ASSERT_EQ(group_ids, dense_ids);
  TransferRebuildScratch scratch;
  for (size_t g = 0; g < factors.num_groups(); ++g) {
    const uint32_t rel = factors.relation(g);
    size_t i = 0;
    while (dense.id_at(i) != rel) ++i;
    ASSERT_EQ(factors.dim() * factors.dim(), dense.row_size());
    ASSERT_EQ(0, std::memcmp(factors.Rebuild(g, &scratch), dense.row_at(i),
                             dense.row_size() * sizeof(float)))
        << "transfer row of relation " << rel;
  }
}

// The transfer gradients of a serialized batch-engine arena recorded on `k`:
// each dense row, and each factor group rebuilt on `k`, equals the per-pair
// loop's dense row in `want`, and together they cover want's ids once.
void ExpectBlobTransfersMatch(const std::string& blob,
                              const simd::KernelTable& k,
                              const GradSlab& want) {
  std::vector<uint32_t> seen;
  const auto check = [&](uint32_t id, const float* row) {
    size_t i = 0;
    while (i < want.size() && want.id_at(i) != id) ++i;
    EXPECT_LT(i, want.size()) << "relation " << id;
    if (i < want.size()) {
      EXPECT_EQ(0, std::memcmp(row, want.row_at(i),
                               want.row_size() * sizeof(float)))
          << "relation " << id;
    }
    seen.push_back(id);
  };
  TransferRebuildScratch scratch;
  ASSERT_TRUE(VisitGradArenaBlob(
                  blob,
                  [&](uint32_t slab, uint32_t id, const float* row,
                      uint32_t) {
                    if (slab == 2) check(id, row);
                    return Status::Ok();
                  },
                  [&](const BlobFactorGroup& group) {
                    check(group.relation,
                          RebuildTransferRow(group, k, &scratch));
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(seen.size(), want.size());
}

TEST(GradientsTest, FusedBatchMatchesPerPairBitForBit) {
  // The relation-grouped batch engine reorders the forward and the
  // transfer-matrix backward by relation, but must reproduce the per-pair
  // loop exactly: the hinges, every dense slab's row order and every
  // gradient byte, with each transfer gradient rebuilt from its factors
  // (DESIGN.md §12). d = 30 leaves a partial s' code word.
  constexpr uint32_t kEntities = 40;
  constexpr uint32_t kRelations = 6;
  kg::TripleStore store;
  Rng kg_rng(31);
  while (store.size() < 150) {
    store.Add(static_cast<kg::EntityId>(kg_rng.Uniform(kEntities)),
              static_cast<kg::RelationId>(kg_rng.Uniform(kRelations)),
              static_cast<kg::EntityId>(kg_rng.Uniform(kEntities)));
  }
  NegativeSampler::Options nopt;
  nopt.num_entities = kEntities;
  nopt.num_relations = kRelations;
  // Relation corruption puts a pair's two sides in different groups.
  nopt.relation_corruption_prob = 0.5;
  const NegativeSampler sampler(nopt, &store);

  // Batch 0: sampled negatives. Batch 1: self-loops (head == tail), sides
  // sharing entities, a repeated pair and a negative that only swaps
  // head and tail.
  std::vector<std::vector<kg::Triple>> positives(2);
  std::vector<std::vector<NegativeSample>> negatives(2);
  positives[0].assign(store.triples().begin(), store.triples().begin() + 64);
  negatives[0].resize(positives[0].size());
  Rng neg_rng(37);
  sampler.SampleBatch(positives[0].data(), positives[0].size(), &neg_rng,
                      negatives[0].data());
  const auto add_pair = [&](kg::Triple pos, kg::Triple neg) {
    positives[1].push_back(pos);
    negatives[1].push_back({neg, CorruptionSlot::kTail});
  };
  add_pair({3, 1, 3}, {3, 1, 7});
  add_pair({7, 1, 3}, {3, 1, 7});
  add_pair({3, 2, 7}, {3, 1, 3});
  add_pair({3, 1, 3}, {3, 1, 7});
  add_pair({5, 0, 5}, {5, 4, 5});
  add_pair({7, 2, 5}, {7, 1, 5});

  for (TripleScorerKind scorer :
       {TripleScorerKind::kTransE, TripleScorerKind::kDistMult,
        TripleScorerKind::kComplEx, TripleScorerKind::kTransH}) {
    for (bool rel_module : {true, false}) {
      for (uint32_t dim : {16u, 30u, 64u}) {
        PkgmModelOptions mopt =
            SmallModel(kEntities, kRelations, dim, rel_module);
        mopt.scorer = scorer;
        const PkgmModel model(mopt);
        for (size_t b = 0; b < positives.size(); ++b) {
          const std::vector<kg::Triple>& pos = positives[b];
          const std::vector<NegativeSample>& neg = negatives[b];
          const size_t n = pos.size();
          // Margins making every pair active, about half of them, none.
          std::vector<float> gaps;
          for (size_t i = 0; i < n; ++i) {
            gaps.push_back(model.Score(neg[i].triple) - model.Score(pos[i]));
          }
          std::sort(gaps.begin(), gaps.end());
          for (float margin : {1e4f, gaps[n / 2], -1e4f}) {
            for (const simd::KernelTable* k : UsableKernelTables()) {
              SCOPED_TRACE(::testing::Message()
                           << "scorer " << static_cast<int>(scorer)
                           << " rel_module " << rel_module << " dim " << dim
                           << " batch " << b << " margin " << margin
                           << " isa " << simd::KernelIsaName(k->isa));
              GradArena want;
              HingeWorkspace ws;
              std::vector<float> want_hinges(n);
              size_t active = 0;
              for (size_t i = 0; i < n; ++i) {
                want_hinges[i] = FusedHingeGradients(
                    model, pos[i], neg[i].triple, margin, *k, &ws, &want);
                if (want_hinges[i] > 0.0f) ++active;
              }
              if (margin == 1e4f) ASSERT_EQ(active, n);
              if (margin == -1e4f) ASSERT_EQ(active, 0u);
              if (margin == gaps[n / 2]) {
                ASSERT_GT(active, 0u);
                ASSERT_LT(active, n);
              }

              GradArena got;
              BatchHingeWorkspace bws;
              std::vector<float> hinges(n, -1.0f);
              FusedBatchHingeGradients(model, pos.data(), neg.data(), n,
                                       margin, *k, &bws, &got,
                                       hinges.data());
              ASSERT_EQ(0, std::memcmp(hinges.data(), want_hinges.data(),
                                       n * sizeof(float)));
              ExpectBatchMatchesPerPair(got, want);
              // Through the blob codec as well, factors or dense rows.
              std::string blob;
              SerializeGradArena(got, &blob);
              ExpectBlobTransfersMatch(blob, *k, want.transfers());

              // Without an arena: the same hinges, nothing accumulated.
              std::vector<float> bare(n, -1.0f);
              FusedBatchHingeGradients(model, pos.data(), neg.data(), n,
                                       margin, *k, &bws, nullptr,
                                       bare.data());
              ASSERT_EQ(0, std::memcmp(bare.data(), want_hinges.data(),
                                       n * sizeof(float)));
            }
          }
        }
      }
    }
  }
}

TEST(GradientsTest, GradSlabSurvivesClearAndRehash) {
  GradSlab slab;
  // Enough distinct ids to force several rehashes of the open-addressed
  // index and several slab growths.
  for (uint32_t round = 0; round < 3; ++round) {
    for (uint32_t id = 0; id < 2000; ++id) {
      float* row = slab.Row(id * 7 + round, 4);
      for (int j = 0; j < 4; ++j) row[j] += static_cast<float>(id + j);
    }
    ASSERT_EQ(slab.size(), 2000u);
    // Rows must be zero on first touch after Clear, so the accumulated
    // value is exactly one round's worth.
    for (size_t i = 0; i < slab.size(); ++i) {
      const uint32_t id = slab.id_at(i);
      EXPECT_EQ(slab.row_at(i)[0], static_cast<float>((id - round) / 7));
    }
    slab.Clear();
    ASSERT_TRUE(slab.empty());
  }
}

TEST(TrainerTest, SeededRunsAreBitIdentical) {
  kg::TripleStore store = SmallKg();
  const auto train = [&](PkgmModel* model) {
    TrainerOptions opt;
    opt.batch_size = 8;
    opt.learning_rate = 0.05f;
    opt.seed = 21;
    Trainer trainer(model, &store, opt);
    trainer.Train(5);
  };
  PkgmModel a(SmallModel(20, 4, 16)), b(SmallModel(20, 4, 16));
  train(&a);
  train(&b);
  EXPECT_TRUE(ModelsBitIdentical(a, b));
}

TEST(TrainerTest, EvaluateMeanHingeDoesNotPerturbTraining) {
  // Regression: EvaluateMeanHinge used to draw negatives from the training
  // RNG stream, so a mid-training eval changed the final model. It now owns
  // a derived eval RNG.
  kg::TripleStore store = SmallKg();
  TrainerOptions opt;
  opt.batch_size = 8;
  opt.learning_rate = 0.05f;
  opt.seed = 23;

  PkgmModel plain(SmallModel(20, 4, 16));
  {
    Trainer trainer(&plain, &store, opt);
    trainer.Train(4);
  }
  PkgmModel evaled(SmallModel(20, 4, 16));
  {
    Trainer trainer(&evaled, &store, opt);
    for (int e = 0; e < 4; ++e) {
      trainer.RunEpoch();
      // Interleaved validation must be invisible to the training stream.
      trainer.EvaluateMeanHinge(store.triples());
    }
  }
  EXPECT_TRUE(ModelsBitIdentical(plain, evaled));
}

TEST(ShardedTrainerTest, FinalHingeTracksSingleThreaded) {
  // Loss-parity acceptance: asynchronous striped-hogwild training must
  // converge to (approximately) the same loss as one worker on the same KG
  // with the same hyper-parameters, under SGD and under Adam. Adam steps
  // about lr per coordinate whatever the gradient's scale, so at SGD's
  // lr 0.05 stale reads overshoot on this 7-batch epoch (up to 20% off
  // under CPU contention); it runs at TrainerOptions' default lr instead.
  kg::TripleStore store;
  Rng rng(77);
  for (int i = 0; i < 400; ++i) {
    store.Add(static_cast<kg::EntityId>(rng.Uniform(60)),
              static_cast<kg::RelationId>(rng.Uniform(6)),
              static_cast<kg::EntityId>(60 + rng.Uniform(40)));
  }
  const uint32_t epochs = 12;

  const std::pair<OptimizerKind, float> cases[] = {
      {OptimizerKind::kSgd, 0.05f}, {OptimizerKind::kAdam, 0.02f}};
  for (const auto& [optimizer, learning_rate] : cases) {
    SCOPED_TRACE(optimizer == OptimizerKind::kSgd ? "sgd" : "adam");
    PkgmModel single_model(SmallModel(100, 6, 16));
    TrainerOptions topt;
    topt.optimizer = optimizer;
    topt.batch_size = 64;
    topt.learning_rate = learning_rate;
    topt.seed = 29;
    Trainer single(&single_model, &store, topt);
    const EpochStats single_last = single.Train(epochs);

    PkgmModel sharded_model(SmallModel(100, 6, 16));
    ShardedTrainerOptions sopt;
    sopt.optimizer = optimizer;
    sopt.num_workers = 4;
    sopt.batch_size = 64;
    sopt.learning_rate = learning_rate;
    sopt.seed = 29;
    ShardedTrainer sharded(&sharded_model, &store, sopt);
    const EpochStats sharded_last = sharded.Train(epochs);

    EXPECT_GT(single_last.mean_hinge, 0.0);
    EXPECT_NEAR(sharded_last.mean_hinge, single_last.mean_hinge,
                0.15 * single_last.mean_hinge);
  }
}

// ------------------------------------------------------------ EpochEngine --

// Records the positives of every batch it is handed; applies nothing.
class RecordingWorker : public EpochWorker {
 public:
  using Batches = std::map<size_t, std::vector<kg::Triple>>;
  RecordingWorker(Batches* seen, std::mutex* mu) : seen_(seen), mu_(mu) {}

  Status Prepare(const PairBatch& batch) override {
    std::lock_guard<std::mutex> lock(*mu_);
    EXPECT_TRUE(seen_->emplace(batch.index, batch.pos).second)
        << "batch " << batch.index << " handed out twice";
    return Status::Ok();
  }
  Status Apply(const GradArena&, float) override { return Status::Ok(); }

 private:
  Batches* seen_;
  std::mutex* mu_;
};

TEST(EpochEngineTest, ProcessSlicesPartitionEveryEpoch) {
  // Two worker processes train the batches b % 2 == 0 and b % 2 == 1 of
  // their own, identically seeded, shuffles. Each epoch the slices must be
  // disjoint, cover every batch, and hold the batches one process would
  // train: a process drawing negatives only for its own batches must not
  // move the epoch stream its next shuffle comes from.
  kg::TripleStore store = SmallKg();  // 25 triples: 7 batches of 4
  PkgmModel model(SmallModel(20, 4, 8));
  const NegativeSampler sampler(FillNegativeOptions({}, model), &store);
  const uint32_t epochs = 3;
  const auto run = [&](uint32_t proc, uint32_t num_procs) {
    std::vector<RecordingWorker::Batches> seen(epochs);
    std::mutex mu;
    EpochPlan plan;
    plan.model = &model;
    plan.store = &store;
    plan.sampler = &sampler;
    plan.batch_size = 4;
    plan.num_workers = 2;
    plan.proc = proc;
    plan.num_procs = num_procs;
    Rng epoch_rng(31);
    for (uint32_t e = 0; e < epochs; ++e) {
      EpochStats stats;
      EXPECT_TRUE(RunPipelinedEpoch(
                      plan, &epoch_rng,
                      [&] {
                        return std::make_unique<RecordingWorker>(&seen[e],
                                                                 &mu);
                      },
                      &stats)
                      .ok());
    }
    return seen;
  };
  const std::vector<RecordingWorker::Batches> whole = run(0, 1);
  const std::vector<RecordingWorker::Batches> slices[2] = {run(0, 2),
                                                           run(1, 2)};
  const size_t num_batches = (store.size() + 3) / 4;
  for (uint32_t e = 0; e < epochs; ++e) {
    SCOPED_TRACE(e);
    ASSERT_EQ(whole[e].size(), num_batches);
    EXPECT_EQ(slices[0][e].size() + slices[1][e].size(), num_batches);
    for (const auto& [b, pos] : whole[e]) {
      const RecordingWorker::Batches& mine = slices[b % 2][e];
      EXPECT_EQ(slices[1 - b % 2][e].count(b), 0u) << "batch " << b;
      ASSERT_EQ(mine.count(b), 1u) << "batch " << b;
      EXPECT_EQ(mine.at(b), pos) << "batch " << b;
    }
  }
}

// ---------------------------------------------------------- LinkPrediction --

TEST(LinkPredictionTest, PerfectModelRanksFirst) {
  // Hand-craft embeddings so that h + r == t exactly for the test triple
  // and every other entity is far away.
  PkgmModelOptions opt = SmallModel(5, 1, 4, /*rel_module=*/false);
  PkgmModel model(opt);
  for (uint32_t e = 0; e < 5; ++e) {
    for (uint32_t j = 0; j < 4; ++j) {
      model.entity(e)[j] = static_cast<float>(e * 10 + j);
    }
  }
  for (uint32_t j = 0; j < 4; ++j) {
    model.relation(0)[j] = model.entity(3)[j] - model.entity(0)[j];
  }
  kg::TripleStore known;
  known.Add(0, 0, 3);
  LinkPredictionEvaluator::Options eval_opt;
  LinkPredictionEvaluator eval(&model, &known, eval_opt);
  auto result = eval.EvaluateTails({{0, 0, 3}});
  EXPECT_DOUBLE_EQ(result.mrr, 1.0);
  EXPECT_DOUBLE_EQ(result.hits[1], 1.0);
  EXPECT_DOUBLE_EQ(result.mean_rank, 1.0);
}

TEST(LinkPredictionTest, FilteringSkipsKnownTails) {
  // Entity 2 is an even better match than the true tail 3, but (0,0,2) is a
  // known positive, so filtering must skip it.
  PkgmModelOptions opt = SmallModel(5, 1, 2, false);
  PkgmModel model(opt);
  // h + r = 0-vector, so score(e) = L1(e); h itself sits far away so the
  // head does not compete.
  for (uint32_t j = 0; j < 2; ++j) {
    model.entity(0)[j] = 5.0f;
    model.relation(0)[j] = -5.0f;
    model.entity(2)[j] = 0.1f;   // best score
    model.entity(3)[j] = 0.2f;   // true tail: second best
    model.entity(1)[j] = 5.0f;
    model.entity(4)[j] = 5.0f;
  }
  kg::TripleStore known;
  known.Add(0, 0, 2);
  known.Add(0, 0, 3);

  LinkPredictionEvaluator::Options eval_opt;
  eval_opt.filtered = true;
  LinkPredictionEvaluator filtered(&model, &known, eval_opt);
  auto r_filtered = filtered.EvaluateTails({{0, 0, 3}});
  EXPECT_DOUBLE_EQ(r_filtered.hits[1], 1.0);

  eval_opt.filtered = false;
  LinkPredictionEvaluator raw(&model, &known, eval_opt);
  auto r_raw = raw.EvaluateTails({{0, 0, 3}});
  EXPECT_DOUBLE_EQ(r_raw.hits[1], 0.0);
  EXPECT_DOUBLE_EQ(r_raw.mean_rank, 2.0);
}

TEST(LinkPredictionTest, CandidateRestriction) {
  PkgmModelOptions opt = SmallModel(6, 1, 2, false);
  PkgmModel model(opt);
  kg::TripleStore known;
  LinkPredictionEvaluator::Options eval_opt;
  eval_opt.filtered = false;
  LinkPredictionEvaluator eval(&model, &known, eval_opt);
  std::unordered_map<kg::RelationId, std::vector<kg::EntityId>> candidates;
  candidates[0] = {3};  // only the true tail competes
  auto result = eval.EvaluateTails({{0, 0, 3}}, &candidates);
  EXPECT_DOUBLE_EQ(result.hits[1], 1.0);
  EXPECT_DOUBLE_EQ(result.mean_rank, 1.0);
}

TEST(LinkPredictionTest, BatchedScoringMatchesReferencePath) {
  // The blocked batch path must reproduce the per-candidate reference path
  // exactly — same metrics, same tie handling — for every scorer family,
  // including block sizes that do not divide the candidate count.
  for (TripleScorerKind scorer :
       {TripleScorerKind::kTransE, TripleScorerKind::kDistMult,
        TripleScorerKind::kComplEx, TripleScorerKind::kTransH}) {
    PkgmModelOptions opt = SmallModel(30, 3, 8, /*rel_module=*/false);
    opt.scorer = scorer;
    PkgmModel model(opt);
    kg::TripleStore known = SmallKg();
    std::vector<kg::Triple> test = known.triples();

    LinkPredictionEvaluator::Options eval_opt;
    eval_opt.filtered = true;
    eval_opt.num_threads = 1;
    eval_opt.block_size = 7;  // forces a partial final block per triple
    eval_opt.use_batched_scoring = true;
    LinkPredictionEvaluator batched(&model, &known, eval_opt);
    auto r_batched = batched.EvaluateTails(test);

    eval_opt.use_batched_scoring = false;
    LinkPredictionEvaluator reference(&model, &known, eval_opt);
    auto r_reference = reference.EvaluateTails(test);

    EXPECT_DOUBLE_EQ(r_batched.mrr, r_reference.mrr) << "scorer " << (int)scorer;
    EXPECT_DOUBLE_EQ(r_batched.mean_rank, r_reference.mean_rank);
    for (auto& [k, v] : r_reference.hits) {
      EXPECT_DOUBLE_EQ(r_batched.hits.at(k), v);
    }
  }
}

TEST(LinkPredictionTest, MetricsIdenticalForAnyThreadCount) {
  PkgmModelOptions opt = SmallModel(30, 3, 8, /*rel_module=*/false);
  PkgmModel model(opt);
  kg::TripleStore known = SmallKg();
  std::vector<kg::Triple> test = known.triples();

  LinkPredictionEvaluator::Options eval_opt;
  eval_opt.filtered = true;
  eval_opt.num_threads = 1;
  LinkPredictionEvaluator serial(&model, &known, eval_opt);
  auto r1 = serial.EvaluateTails(test);

  for (size_t threads : {2, 4, 7}) {
    eval_opt.num_threads = threads;
    LinkPredictionEvaluator parallel(&model, &known, eval_opt);
    auto rn = parallel.EvaluateTails(test);
    EXPECT_DOUBLE_EQ(rn.mrr, r1.mrr) << threads << " threads";
    EXPECT_DOUBLE_EQ(rn.mean_rank, r1.mean_rank) << threads << " threads";
    for (auto& [k, v] : r1.hits) EXPECT_DOUBLE_EQ(rn.hits.at(k), v);
  }
}

// ------------------------------------------------------------ ServiceMath --

TEST(ServiceMathTest, ComplExQueryWritesTrailingCoordForOddDim) {
  // Regression: the ComplEx branch of TripleQueryFromRows paired halves
  // [0, dim/2) with [dim/2, dim) and left out[dim-1] unwritten when dim is
  // odd. The unpaired trailing coordinate is treated as purely real.
  const uint32_t dim = 7;
  std::vector<float> h(dim), r(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    h[i] = 0.5f + static_cast<float>(i);
    r[i] = 2.0f - 0.25f * static_cast<float>(i);
  }
  const float sentinel = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> out(dim, sentinel);
  TripleQueryFromRows(TripleScorerKind::kComplEx, dim, h.data(), r.data(),
                      nullptr, out.data());
  for (uint32_t i = 0; i < dim; ++i) {
    EXPECT_FALSE(std::isnan(out[i])) << "out[" << i << "] left unwritten";
  }
  EXPECT_FLOAT_EQ(out[dim - 1], h[dim - 1] * r[dim - 1]);
  // The paired coordinates keep the even-dim complex product layout.
  const uint32_t half = dim / 2;
  for (uint32_t i = 0; i < half; ++i) {
    EXPECT_FLOAT_EQ(out[i], h[i] * r[i] - h[half + i] * r[half + i]);
    EXPECT_FLOAT_EQ(out[half + i], h[i] * r[half + i] + h[half + i] * r[i]);
  }
}

TEST(ServiceMathTest, BlockScoringMatchesSingleRowDistance) {
  // The bit-for-bit single-vs-batch contract at the service_math level.
  const uint32_t dim = 9;
  const size_t rows = 6;
  std::vector<float> q(dim), w(dim), block(rows * dim), scratch(dim);
  for (uint32_t i = 0; i < dim; ++i) {
    q[i] = 0.3f * static_cast<float>(i) - 1.0f;
    w[i] = (i % 2 == 0) ? 0.4f : -0.2f;
  }
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = 0.17f * static_cast<float>((i * 7) % 11) - 0.8f;
  }
  for (TripleScorerKind scorer :
       {TripleScorerKind::kTransE, TripleScorerKind::kDistMult,
        TripleScorerKind::kComplEx, TripleScorerKind::kTransH}) {
    std::vector<float> rows_copy = block;  // the block path may clobber rows
    std::vector<float> out(rows);
    ScoreTailCandidatesBlock(scorer, dim, q.data(), w.data(), rows_copy.data(),
                             rows, out.data());
    for (size_t i = 0; i < rows; ++i) {
      const float single =
          TailDistanceFromRows(scorer, dim, w.data(), q.data(),
                               block.data() + i * dim, scratch.data());
      EXPECT_EQ(out[i], single) << "scorer " << (int)scorer << " row " << i;
    }
  }
}

// ---------------------------------------------------------------- Service --

TEST(ServiceTest, SequenceLengthsPerMode) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {0, 1}, {{0, 1, 2}, {1}});
  EXPECT_EQ(provider.Sequence(0, ServiceMode::kAll).size(), 6u);
  EXPECT_EQ(provider.Sequence(0, ServiceMode::kTripleOnly).size(), 3u);
  EXPECT_EQ(provider.Sequence(0, ServiceMode::kRelationOnly).size(), 3u);
  EXPECT_EQ(provider.Sequence(1, ServiceMode::kAll).size(), 2u);
  EXPECT_EQ(provider.NumKeyRelations(0), 3u);
}

TEST(ServiceTest, SequenceMatchesModelServices) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {4}, {{0, 2}});
  auto seq = provider.Sequence(0, ServiceMode::kAll);
  const uint32_t d = model.dim();
  std::vector<float> expected(d);
  model.TripleService(4, 0, expected.data());
  for (uint32_t j = 0; j < d; ++j) EXPECT_FLOAT_EQ(seq[0][j], expected[j]);
  model.TripleService(4, 2, expected.data());
  for (uint32_t j = 0; j < d; ++j) EXPECT_FLOAT_EQ(seq[1][j], expected[j]);
  model.RelationService(4, 0, expected.data());
  for (uint32_t j = 0; j < d; ++j) EXPECT_FLOAT_EQ(seq[2][j], expected[j]);
  model.RelationService(4, 2, expected.data());
  for (uint32_t j = 0; j < d; ++j) EXPECT_FLOAT_EQ(seq[3][j], expected[j]);
}

TEST(ServiceTest, CondensedIsMeanOfConcatenatedPairs) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {2}, {{0, 1}});
  const uint32_t d = model.dim();
  Vec s = provider.Condensed(0, ServiceMode::kAll);
  ASSERT_EQ(s.size(), 2 * d);

  std::vector<float> t0(d), t1(d), r0(d), r1(d);
  model.TripleService(2, 0, t0.data());
  model.TripleService(2, 1, t1.data());
  model.RelationService(2, 0, r0.data());
  model.RelationService(2, 1, r1.data());
  for (uint32_t j = 0; j < d; ++j) {
    EXPECT_NEAR(s[j], (t0[j] + t1[j]) / 2.0f, 1e-5);
    EXPECT_NEAR(s[d + j], (r0[j] + r1[j]) / 2.0f, 1e-5);
  }
}

TEST(ServiceTest, CondensedSingleModuleDims) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {2}, {{0, 1}});
  EXPECT_EQ(provider.Condensed(0, ServiceMode::kTripleOnly).size(),
            model.dim());
  EXPECT_EQ(provider.Condensed(0, ServiceMode::kRelationOnly).size(),
            model.dim());
  EXPECT_EQ(provider.CondensedDim(ServiceMode::kAll), 2 * model.dim());
}

TEST(ServiceTest, EmptyKeyRelationsGiveZeroVector) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {0}, {{}});
  Vec s = provider.Condensed(0, ServiceMode::kAll);
  for (float x : s) EXPECT_FLOAT_EQ(x, 0.0f);
  EXPECT_TRUE(provider.Sequence(0, ServiceMode::kAll).empty());
}

TEST(ServiceTest, EmptyKeyRelationsPerModeDimsAndZeros) {
  PkgmModel model(SmallModel());
  // Item 1 has relations, item 0 has none — empty lists are legal and must
  // serve deterministic zeros at the mode's dimension.
  ServiceVectorProvider provider(&model, {0, 1}, {{}, {0, 2}});
  for (ServiceMode mode : {ServiceMode::kTripleOnly, ServiceMode::kRelationOnly,
                           ServiceMode::kAll}) {
    EXPECT_TRUE(provider.Sequence(0, mode).empty());
    Vec s = provider.Condensed(0, mode);
    EXPECT_EQ(s.size(), provider.CondensedDim(mode));
    for (float x : s) EXPECT_FLOAT_EQ(x, 0.0f);
  }
}

TEST(ServiceTest, CondensedDimAgreesWithCondensedOutput) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {3}, {{0, 1, 3}});
  EXPECT_EQ(provider.CondensedDim(ServiceMode::kAll), 2 * model.dim());
  EXPECT_EQ(provider.CondensedDim(ServiceMode::kTripleOnly), model.dim());
  EXPECT_EQ(provider.CondensedDim(ServiceMode::kRelationOnly), model.dim());
  for (ServiceMode mode : {ServiceMode::kTripleOnly, ServiceMode::kRelationOnly,
                           ServiceMode::kAll}) {
    EXPECT_EQ(provider.Condensed(0, mode).size(), provider.CondensedDim(mode));
    EXPECT_EQ(provider.Sequence(0, mode).size(),
              mode == ServiceMode::kAll ? 6u : 3u);
  }
}

TEST(ServiceTest, SequenceTripleBlockPrecedesRelationBlock) {
  PkgmModel model(SmallModel());
  ServiceVectorProvider provider(&model, {5}, {{1, 0, 2}});
  const auto all = provider.Sequence(0, ServiceMode::kAll);
  const auto triple = provider.Sequence(0, ServiceMode::kTripleOnly);
  const auto relation = provider.Sequence(0, ServiceMode::kRelationOnly);
  ASSERT_EQ(all.size(), triple.size() + relation.size());
  // Fig. 2 layout: [S_T(r_1)..S_T(r_k), S_R(r_1)..S_R(r_k)], preserving the
  // key-relation order within each block.
  for (size_t i = 0; i < triple.size(); ++i) EXPECT_EQ(all[i], triple[i]);
  for (size_t i = 0; i < relation.size(); ++i) {
    EXPECT_EQ(all[triple.size() + i], relation[i]);
  }
}

// Property sweep: service identity S_T(h,r) = h + r holds for every (h, r).
class ServiceIdentitySweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServiceIdentitySweep, TripleServiceIdentity) {
  PkgmModel model(SmallModel(12, 5, 8));
  const uint32_t h = GetParam();
  for (uint32_t r = 0; r < 5; ++r) {
    std::vector<float> s(8);
    model.TripleService(h, r, s.data());
    for (uint32_t j = 0; j < 8; ++j) {
      EXPECT_FLOAT_EQ(s[j], model.entity(h)[j] + model.relation(r)[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Heads, ServiceIdentitySweep,
                         ::testing::Values(0, 1, 5, 11));

// ---------------------------------------------------------------------------
// GradArena serialization (the kPushGrads wire payload)
// ---------------------------------------------------------------------------

// Fills an arena with a deterministic mix of rows across all four slabs,
// including negative-zero payloads (the bit-exactness trap: -0.0f + 0.0f
// flushes to +0.0f, so fresh rows must be copied, not accumulated).
void FillSampleArena(GradArena* arena, uint32_t dim) {
  const uint32_t ent_ids[] = {4, 0, 9, 2};
  for (size_t i = 0; i < 4; ++i) {
    float* row = arena->Entity(ent_ids[i], dim);
    for (uint32_t d = 0; d < dim; ++d) {
      row[d] = static_cast<float>(i + 1) * 0.25f - static_cast<float>(d);
    }
  }
  arena->Entity(4, dim)[0] = -0.0f;
  float* rel = arena->Relation(1, dim);
  for (uint32_t d = 0; d < dim; ++d) rel[d] = -1.5f * static_cast<float>(d);
  float* tr = arena->Transfer(3, dim * dim);
  for (uint32_t d = 0; d < dim * dim; ++d) {
    tr[d] = 0.001f * static_cast<float>(d) - 0.02f;
  }
  // Hyperplanes left empty: an empty slab must round-trip too.
}

bool SlabsBitEqual(const GradSlab& a, const GradSlab& b) {
  if (a.size() != b.size() || a.row_size() != b.row_size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.id_at(i) != b.id_at(i)) return false;
    if (std::memcmp(a.row_at(i), b.row_at(i),
                    a.row_size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

TEST(GradArenaBlobTest, RoundTripBitExact) {
  const uint32_t dim = 8;
  GradArena arena;
  FillSampleArena(&arena, dim);

  std::string blob;
  const size_t written = SerializeGradArena(arena, &blob);
  EXPECT_EQ(written, 6u);  // 4 entities + 1 relation + 1 transfer

  GradArena decoded;
  uint64_t applied = 0;
  ASSERT_TRUE(DeserializeGradArena(blob, &decoded, &applied).ok());
  EXPECT_EQ(applied, written);
  // Bit-exact: same ids in the same first-touch order, same float bits —
  // including the -0.0f payload.
  EXPECT_TRUE(SlabsBitEqual(arena.entities(), decoded.entities()));
  EXPECT_TRUE(SlabsBitEqual(arena.relations(), decoded.relations()));
  EXPECT_TRUE(SlabsBitEqual(arena.transfers(), decoded.transfers()));
  EXPECT_TRUE(decoded.hyperplanes().empty());
  EXPECT_TRUE(std::signbit(decoded.entities().row_at(0)[0]));
}

TEST(GradArenaBlobTest, DeserializeAccumulatesExistingRows) {
  const uint32_t dim = 4;
  GradArena a;
  a.Entity(7, dim)[0] = 1.0f;
  a.Entity(7, dim)[3] = -2.0f;
  std::string blob;
  SerializeGradArena(a, &blob);

  // Deserializing the same blob twice into one arena: second pass finds
  // the rows present and adds element-wise.
  GradArena merged;
  ASSERT_TRUE(DeserializeGradArena(blob, &merged).ok());
  ASSERT_TRUE(DeserializeGradArena(blob, &merged).ok());
  ASSERT_EQ(merged.entities().size(), 1u);
  EXPECT_EQ(merged.entities().row_at(0)[0], 2.0f);
  EXPECT_EQ(merged.entities().row_at(0)[3], -4.0f);
}

TEST(GradArenaBlobTest, ShardFilteredSlices) {
  const uint32_t dim = 4;
  GradArena arena;
  for (uint32_t id = 0; id < 10; ++id) {
    arena.Entity(id, dim)[0] = static_cast<float>(id) + 0.5f;
  }
  arena.Relation(0, dim)[1] = 1.0f;
  arena.Relation(1, dim)[1] = 2.0f;
  arena.Relation(2, dim)[1] = 3.0f;
  arena.Transfer(1, dim * dim)[0] = 4.0f;
  arena.Hyperplane(2, dim)[2] = 5.0f;

  const uint32_t num_shards = 3;
  size_t total = 0;
  GradArena merged;
  for (uint32_t s = 0; s < num_shards; ++s) {
    std::string blob;
    const size_t rows = SerializeGradArena(arena, s, num_shards, &blob);
    total += rows;
    GradArena slice;
    ASSERT_TRUE(DeserializeGradArena(blob, &slice).ok());
    // Every row in the slice belongs to shard s (relation-keyed tables
    // included).
    for (size_t i = 0; i < slice.entities().size(); ++i) {
      EXPECT_EQ(slice.entities().id_at(i) % num_shards, s);
    }
    for (size_t i = 0; i < slice.relations().size(); ++i) {
      EXPECT_EQ(slice.relations().id_at(i) % num_shards, s);
    }
    for (size_t i = 0; i < slice.transfers().size(); ++i) {
      EXPECT_EQ(slice.transfers().id_at(i) % num_shards, s);
    }
    for (size_t i = 0; i < slice.hyperplanes().size(); ++i) {
      EXPECT_EQ(slice.hyperplanes().id_at(i) % num_shards, s);
    }
    ASSERT_TRUE(DeserializeGradArena(blob, &merged).ok());
  }
  // The shard slices partition the arena: no row lost, none duplicated.
  EXPECT_EQ(total, 10u + 3u + 1u + 1u);
  EXPECT_EQ(merged.entities().size(), 10u);
  EXPECT_EQ(merged.relations().size(), 3u);
  for (uint32_t id = 0; id < 10; ++id) {
    // Ids arrive shard-grouped; find each and check the payload survived.
    bool found = false;
    for (size_t i = 0; i < merged.entities().size(); ++i) {
      if (merged.entities().id_at(i) == id) {
        EXPECT_EQ(merged.entities().row_at(i)[0],
                  static_cast<float>(id) + 0.5f);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "entity " << id;
  }

  // An empty slice returns 0 so the worker can skip the push.
  GradArena lone;
  lone.Entity(4, dim)[0] = 1.0f;
  std::string blob;
  EXPECT_EQ(SerializeGradArena(lone, 0, 3, &blob), 0u);  // 4 % 3 == 1
  blob.clear();
  EXPECT_EQ(SerializeGradArena(lone, 1, 3, &blob), 1u);
}

TEST(GradArenaBlobTest, CorruptionRejected) {
  const uint32_t dim = 8;
  GradArena arena;
  FillSampleArena(&arena, dim);
  std::string blob;
  SerializeGradArena(arena, &blob);

  GradArena sink;
  // Baseline: the pristine blob parses.
  ASSERT_TRUE(DeserializeGradArena(blob, &sink).ok());

  {  // Bad magic.
    std::string bad = blob;
    bad[0] ^= 0x01;
    GradArena g;
    EXPECT_FALSE(DeserializeGradArena(bad, &g).ok());
  }
  {  // Wrong version.
    std::string bad = blob;
    bad[4] = static_cast<char>(kGradArenaBlobVersion + 1);
    GradArena g;
    EXPECT_FALSE(DeserializeGradArena(bad, &g).ok());
  }
  {  // Non-zero reserved bits.
    std::string bad = blob;
    bad[6] = 0x01;
    GradArena g;
    EXPECT_FALSE(DeserializeGradArena(bad, &g).ok());
  }
  {  // Every strict prefix is truncation.
    for (size_t len = 0; len < blob.size(); ++len) {
      GradArena g;
      EXPECT_FALSE(DeserializeGradArena(blob.substr(0, len), &g).ok())
          << "prefix " << len;
    }
  }
  {  // Trailing garbage.
    std::string bad = blob;
    bad.push_back('\0');
    GradArena g;
    EXPECT_FALSE(DeserializeGradArena(bad, &g).ok());
  }
  {  // A count that promises more rows than the bytes can hold must be
     // rejected before allocation.
    std::string bad = blob;
    const uint32_t huge = 0x7fffffffu;
    std::memcpy(&bad[8 + 4], &huge, 4);  // entity slab count
    GradArena g;
    EXPECT_FALSE(DeserializeGradArena(bad, &g).ok());
  }
  {  // row_size disagreeing with a non-empty target slab.
    GradArena g;
    g.Entity(1, dim + 1)[0] = 1.0f;  // pre-existing rows at a wider dim
    EXPECT_FALSE(DeserializeGradArena(blob, &g).ok());
  }
}

// An arena holding one transfer factor group per entry of `counts`
// (relation r gets counts[r] items; 0 = no group) with signs alternating
// +1/-1, s' mixing +1, -1 and 0, and h mixing signs and a -0.0f, recorded
// for table `k`.
GradArena FactorArena(uint32_t dim, const std::vector<size_t>& counts,
                      const simd::KernelTable& k) {
  GradArena arena;
  for (uint32_t rel = 0; rel < counts.size(); ++rel) {
    const size_t n = counts[rel];
    if (n == 0) continue;
    std::vector<float> signs(n), s2(n * dim), h(n * dim);
    std::vector<const float*> s2_ptrs(n), h_ptrs(n);
    for (size_t q = 0; q < n; ++q) {
      signs[q] = q % 2 == 0 ? 1.0f : -1.0f;
      for (uint32_t i = 0; i < dim; ++i) {
        s2[q * dim + i] = static_cast<float>((i + q + rel) % 3) - 1.0f;
        h[q * dim + i] = 0.125f * static_cast<float>(i) -
                         0.5f * static_cast<float>(q) + static_cast<float>(rel);
      }
      h[q * dim] = -0.0f;
      s2_ptrs[q] = s2.data() + q * dim;
      h_ptrs[q] = h.data() + q * dim;
    }
    arena.transfer_factors().AddGroup(rel, dim, n, signs.data(),
                                      s2_ptrs.data(), h_ptrs.data(), k);
  }
  return arena;
}

// Checks that `decoded` holds, as dense transfer rows, exactly the rebuilt
// rows of the groups of `arena` that belong to `shard` of `num_shards`.
void ExpectRebuiltTransfers(const GradArena& arena, const GradArena& decoded,
                            uint32_t shard, uint32_t num_shards) {
  const TransferFactors& factors = arena.transfer_factors();
  TransferRebuildScratch scratch;
  size_t want_rows = 0;
  for (size_t g = 0; g < factors.num_groups(); ++g) {
    const uint32_t rel = factors.relation(g);
    if (rel % num_shards != shard) continue;
    ++want_rows;
    const GradSlab& got = decoded.transfers();
    size_t i = 0;
    while (i < got.size() && got.id_at(i) != rel) ++i;
    ASSERT_LT(i, got.size()) << "relation " << rel;
    ASSERT_EQ(got.row_size(), factors.dim() * factors.dim());
    EXPECT_EQ(0, std::memcmp(got.row_at(i), factors.Rebuild(g, &scratch),
                             got.row_size() * sizeof(float)))
        << "relation " << rel;
  }
  EXPECT_EQ(decoded.transfers().size(), want_rows);
}

TEST(GradArenaBlobTest, FactorGroupsTakeTheSmallerForm) {
  EXPECT_EQ(TransferFactorCrossover(64), 59u);
  const simd::KernelTable& k = simd::Active();
  for (uint32_t dim : {16u, 30u, 64u}) {
    SCOPED_TRACE(dim);
    const size_t c = TransferFactorCrossover(dim);
    const size_t dense_entry = 4 + 4 * static_cast<size_t>(dim) * dim;
    ASSERT_GT(c, 1u);
    EXPECT_LT(FactorGroupBlobBytes(dim, c), dense_entry);
    EXPECT_GE(FactorGroupBlobBytes(dim, c + 1), dense_entry);

    // Relations 0..4: one item below the crossover, at it, one above, none,
    // and far above.
    const GradArena arena = FactorArena(dim, {c - 1, c, c + 1, 0, 3 * c}, k);
    std::string blob;
    EXPECT_EQ(SerializeGradArena(arena, &blob), 4u);
    std::vector<uint32_t> factor_ids, dense_ids;
    ASSERT_TRUE(VisitGradArenaBlob(
                    blob,
                    [&](uint32_t slab, uint32_t id, const float*, uint32_t) {
                      EXPECT_EQ(slab, 2u);
                      dense_ids.push_back(id);
                      return Status::Ok();
                    },
                    [&](const BlobFactorGroup& group) {
                      EXPECT_EQ(group.dim, dim);
                      factor_ids.push_back(group.relation);
                      return Status::Ok();
                    })
                    .ok());
    EXPECT_EQ(factor_ids, (std::vector<uint32_t>{0, 1}));
    EXPECT_EQ(dense_ids, (std::vector<uint32_t>{2, 4}));
    const uint32_t counts[4] = {0, 0, 2, 0};
    const uint32_t row_sizes[4] = {0, 0, dim * dim, 0};
    EXPECT_EQ(blob.size(), GradArenaBlobBytes(counts, row_sizes) +
                               FactorGroupBlobBytes(dim, c - 1) +
                               FactorGroupBlobBytes(dim, c));

    // Serialize → deserialize, whole and shard-filtered, reproduces every
    // rebuilt row bit for bit, whichever form it travelled in.
    GradArena whole;
    uint64_t applied = 0;
    ASSERT_TRUE(DeserializeGradArena(blob, &whole, &applied).ok());
    EXPECT_EQ(applied, 4u);
    ExpectRebuiltTransfers(arena, whole, 0, 1);
    for (uint32_t shard = 0; shard < 2; ++shard) {
      std::string slice_blob;
      // Relations 0, 2 and 4 are shard 0's, relation 1 is shard 1's.
      EXPECT_EQ(SerializeGradArena(arena, shard, 2, &slice_blob),
                shard == 0 ? 3u : 1u);
      GradArena slice;
      ASSERT_TRUE(DeserializeGradArena(slice_blob, &slice).ok());
      ExpectRebuiltTransfers(arena, slice, shard, 2);
    }
  }
}

TEST(GradArenaBlobTest, FactorsNeverOutgrowTheDenseBound) {
  // Every table full and every relation's group past the crossover: the
  // blob is exactly the all-dense bound that ParamServer::
  // MaxPushPayloadBytes() is built from. At the crossover it is smaller.
  const uint32_t dim = 16;
  const uint32_t entities = 12, relations = 5;
  const size_t c = TransferFactorCrossover(dim);
  const uint32_t counts[4] = {entities, relations, relations, relations};
  const uint32_t row_sizes[4] = {dim, dim, dim * dim, dim};
  for (const size_t items : {c + 1, c}) {
    GradArena arena =
        FactorArena(dim, std::vector<size_t>(relations, items),
                    simd::Active());
    for (uint32_t e = 0; e < entities; ++e) arena.Entity(e, dim)[0] = 1.0f;
    for (uint32_t r = 0; r < relations; ++r) {
      arena.Relation(r, dim)[1] = 2.0f;
      arena.Hyperplane(r, dim)[2] = 3.0f;
    }
    std::string blob;
    EXPECT_EQ(SerializeGradArena(arena, &blob), entities + 3u * relations);
    if (items > c) {
      EXPECT_EQ(blob.size(), GradArenaBlobBytes(counts, row_sizes));
    } else {
      EXPECT_LT(blob.size(), GradArenaBlobBytes(counts, row_sizes));
    }
  }
}

TEST(GradArenaBlobTest, FactorSectionCorruptionRejected) {
  // dim 8, one group of two items, no dense row: the factor section header
  // sits at 40 (dim, num_groups), the group header at 48 (relation, count)
  // and item 0 at 56 (sign, one s' code word at 60, h at 64).
  const uint32_t dim = 8;
  const GradArena arena = FactorArena(dim, {0, 2}, simd::Active());
  std::string blob;
  ASSERT_EQ(SerializeGradArena(arena, &blob), 1u);
  ASSERT_EQ(blob.size(), 48 + FactorGroupBlobBytes(dim, 2));
  uint32_t word;
  std::memcpy(&word, &blob[60], 4);

  GradArena sink;
  ASSERT_TRUE(DeserializeGradArena(blob, &sink).ok());
  const auto with_u32 = [&](size_t at, uint32_t v) {
    std::string bad = blob;
    std::memcpy(&bad[at], &v, 4);
    return bad;
  };
  const auto with_f32 = [&](size_t at, float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, 4);
    return with_u32(at, bits);
  };
  const std::pair<const char*, std::string> cases[] = {
      {"sign 0.5", with_f32(56, 0.5f)},
      {"sign -0", with_f32(56, -0.0f)},
      {"sign +2", with_f32(56, 2.0f)},
      {"code 3", with_u32(60, word | 3u)},
      {"padding bits", with_u32(60, word | (1u << 16))},
      {"empty group", with_u32(52, 0)},
      {"count past the bytes", with_u32(52, 0x7fffffffu)},
      {"zero dim", with_u32(40, 0)},
      {"dim too large", with_u32(40, 0x10000u)},
      {"group count past the bytes", with_u32(44, 2)},
  };
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    size_t visited = 0;
    EXPECT_FALSE(VisitGradArenaBlob(
                     bad,
                     [&](uint32_t, uint32_t, const float*, uint32_t) {
                       ++visited;
                       return Status::Ok();
                     },
                     [&](const BlobFactorGroup&) {
                       ++visited;
                       return Status::Ok();
                     })
                     .ok());
    EXPECT_EQ(visited, 0u);
    GradArena g;
    EXPECT_FALSE(DeserializeGradArena(bad, &g).ok());
  }
  // A factor group whose rebuilt row disagrees with the target slab.
  GradArena wider;
  wider.Transfer(1, (dim + 1) * (dim + 1))[0] = 1.0f;
  EXPECT_FALSE(DeserializeGradArena(blob, &wider).ok());
}

// A little-endian byte string appended one field at a time.
struct LittleEndianBytes {
  std::string bytes;
  void U8(uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }
};

TEST(GradArenaBlobTest, BytesMatchTheLayoutFieldByField) {
  // dim 20: each item's second s' code word holds 4 codes and 24 padding
  // bits. Relation 2's group is one item past the crossover and goes dense.
  const uint32_t dim = 20;
  const size_t crossover = TransferFactorCrossover(dim);
  ASSERT_EQ(crossover, 17u);
  const simd::KernelTable& k = simd::Active();
  GradArena arena;
  for (uint32_t id : {5u, 2u, 8u}) {
    float* row = arena.Entity(id, dim);
    for (uint32_t i = 0; i < dim; ++i) {
      row[i] = 0.25f * static_cast<float>(i) - static_cast<float>(id);
    }
  }
  arena.Entity(2, dim)[3] = -0.0f;
  arena.Relation(1, dim)[0] = 1.5f;
  arena.Relation(4, dim)[dim - 1] = -2.5f;
  arena.Transfer(6, dim * dim)[7] = 3.0f;
  arena.Hyperplane(3, dim)[1] = -0.0f;
  arena.Hyperplane(3, dim)[2] = 0.75f;
  // Groups: relation 0 (2 items), 2 (dense) and 3 (1 item).
  const uint32_t group_rels[3] = {0, 2, 3};
  const size_t group_counts[3] = {2, crossover + 1, 1};
  for (int g = 0; g < 3; ++g) {
    const size_t n = group_counts[g];
    std::vector<float> signs(n), s2(n * dim), h(n * dim);
    std::vector<const float*> s2_ptrs(n), h_ptrs(n);
    for (size_t q = 0; q < n; ++q) {
      signs[q] = q % 3 == 1 ? -1.0f : 1.0f;
      for (uint32_t i = 0; i < dim; ++i) {
        s2[q * dim + i] = static_cast<float>((i * 7 + q + g) % 3) - 1.0f;
        h[q * dim + i] = 0.5f * static_cast<float>(i) - static_cast<float>(q);
      }
      s2[q * dim + 17] = 0.0f;   // a zero code in the partial word
      s2[q * dim + 18] = -0.0f;  // -0 codes as 0 too
      h[q * dim + 16] = -0.0f;
      s2_ptrs[q] = s2.data() + q * dim;
      h_ptrs[q] = h.data() + q * dim;
    }
    arena.transfer_factors().AddGroup(group_rels[g], dim, n, signs.data(),
                                      s2_ptrs.data(), h_ptrs.data(), k);
  }
  const TransferFactors& tf = arena.transfer_factors();

  // The v2 layout of gradients.h, written out for shard `shard` of
  // `num_shards`.
  const auto expected = [&](uint32_t shard, uint32_t num_shards) {
    const auto owned = [&](uint32_t id) { return id % num_shards == shard; };
    LittleEndianBytes b;
    b.U32(0x44524750);  // "PGRD"
    b.U8(2);            // version
    b.U8(5);            // sections
    b.U8(0);
    b.U8(0);
    const GradSlab* slabs[4] = {&arena.entities(), &arena.relations(),
                                &arena.transfers(), &arena.hyperplanes()};
    for (int t = 0; t < 4; ++t) {
      std::vector<size_t> rows;
      for (size_t i = 0; i < slabs[t]->size(); ++i) {
        if (owned(slabs[t]->id_at(i))) rows.push_back(i);
      }
      std::vector<size_t> dense;
      if (t == 2) {
        for (size_t g = 0; g < tf.num_groups(); ++g) {
          if (owned(tf.relation(g)) &&
              tf.end(g) - tf.begin(g) > crossover) {
            dense.push_back(g);
          }
        }
      }
      const size_t count = rows.size() + dense.size();
      const uint32_t row_size = t == 2 ? dim * dim : dim;
      b.U32(count == 0 ? 0 : row_size);
      b.U32(static_cast<uint32_t>(count));
      for (size_t i : rows) {
        b.U32(slabs[t]->id_at(i));
        for (uint32_t j = 0; j < row_size; ++j) b.F32(slabs[t]->row_at(i)[j]);
      }
      TransferRebuildScratch scratch;
      for (size_t g : dense) {
        b.U32(tf.relation(g));
        const float* row = tf.Rebuild(g, &scratch);
        for (uint32_t j = 0; j < dim * dim; ++j) b.F32(row[j]);
      }
    }
    std::vector<size_t> factor_groups;
    for (size_t g = 0; g < tf.num_groups(); ++g) {
      if (owned(tf.relation(g)) && tf.end(g) - tf.begin(g) <= crossover) {
        factor_groups.push_back(g);
      }
    }
    b.U32(factor_groups.empty() ? 0 : dim);
    b.U32(static_cast<uint32_t>(factor_groups.size()));
    for (size_t g : factor_groups) {
      b.U32(tf.relation(g));
      b.U32(static_cast<uint32_t>(tf.end(g) - tf.begin(g)));
      for (size_t q = tf.begin(g); q < tf.end(g); ++q) {
        b.F32(tf.sign(q));
        uint32_t words[2] = {0, 0};
        for (uint32_t i = 0; i < dim; ++i) {
          const float x = tf.s2(q)[i];
          const uint32_t code = x == 1.0f ? 1 : (x == -1.0f ? 2 : 0);
          words[i / 16] |= code << (2 * (i % 16));
        }
        b.U32(words[0]);
        b.U32(words[1]);
        for (uint32_t i = 0; i < dim; ++i) b.F32(tf.head(q)[i]);
      }
    }
    return b.bytes;
  };

  // Whole, then each slice of two and of three shards, each appended after
  // bytes already in `out` (as a push frame's header is).
  const std::pair<uint32_t, uint32_t> cuts[] = {{0, 1}, {0, 2}, {1, 2},
                                                {0, 3}, {1, 3}, {2, 3}};
  for (const auto& [shard, num_shards] : cuts) {
    SCOPED_TRACE(testing::Message() << shard << "/" << num_shards);
    std::string blob = "head";
    const size_t rows = SerializeGradArena(arena, shard, num_shards, &blob);
    const std::string want = "head" + expected(shard, num_shards);
    ASSERT_EQ(blob.size(), want.size());
    EXPECT_TRUE(blob == want)
        << "first differing byte at "
        << std::mismatch(want.begin(), want.end(), blob.begin()).first -
               want.begin();
    size_t want_rows = 0;
    for (const GradSlab* slab : {&arena.entities(), &arena.relations(),
                                 &arena.transfers(), &arena.hyperplanes()}) {
      for (size_t i = 0; i < slab->size(); ++i) {
        want_rows += slab->id_at(i) % num_shards == shard;
      }
    }
    for (uint32_t rel : group_rels) want_rows += rel % num_shards == shard;
    EXPECT_EQ(rows, want_rows);
  }
  std::string whole;
  SerializeGradArena(arena, &whole);
  EXPECT_TRUE(whole == expected(0, 1));
}

// ---------------------------------------------------------------------------
// Transfer-row update logs
// ---------------------------------------------------------------------------

// Each group of `arena`'s blob, copied out with its items (the blob's
// bytes must outlive the visit, so groups are kept as the blob plus
// offsets).
std::vector<BlobFactorGroup> BlobGroups(const std::string& blob) {
  std::vector<BlobFactorGroup> groups;
  EXPECT_TRUE(VisitGradArenaBlob(
                  blob,
                  [](uint32_t, uint32_t, const float*, uint32_t) {
                    return Status::Ok();
                  },
                  [&](const BlobFactorGroup& group) {
                    groups.push_back(group);
                    return Status::Ok();
                  })
                  .ok());
  return groups;
}

TEST(TransferLogTest, RecordsCarryAlphaAndItemsAndReplayLikeTheShard) {
  const simd::KernelTable& k = simd::Active();
  for (uint32_t dim : {8u, 20u, 64u}) {
    SCOPED_TRACE(dim);
    const GradArena arena = FactorArena(dim, {3, 1}, k);
    std::string blob;
    ASSERT_EQ(SerializeGradArena(arena, &blob), 2u);
    const std::vector<BlobFactorGroup> groups = BlobGroups(blob);
    ASSERT_EQ(groups.size(), 2u);
    const float alphas[2] = {-0.05f, 0.25f};
    std::string log;
    for (size_t g = 0; g < 2; ++g) {
      const size_t before = log.size();
      AppendTransferLogRecord(alphas[g], groups[g], &log);
      EXPECT_EQ(log.size() - before,
                FactorGroupBlobBytes(dim, groups[g].count));
      EXPECT_EQ(TransferLogRecordBytes(log.data() + before, dim),
                log.size() - before);
    }

    // Replaying the log on a row equals the shard's rebuild + axpy of each
    // pushed group, byte for byte, and leaves the relation id as given.
    const size_t n = static_cast<size_t>(dim) * dim;
    std::vector<float> want(n), got(n);
    for (size_t i = 0; i < n; ++i) {
      want[i] = got[i] = 0.01f * static_cast<float>(i % 17) - 0.05f;
    }
    TransferRebuildScratch scratch;
    for (size_t g = 0; g < 2; ++g) {
      k.axpy(n, alphas[g], RebuildTransferRow(groups[g], k, &scratch),
             want.data());
    }
    size_t visited = 0;
    ASSERT_TRUE(VisitTransferLog(log, 7, dim,
                                 [&](float alpha, const BlobFactorGroup& g) {
                                   EXPECT_EQ(alpha, alphas[visited]);
                                   EXPECT_EQ(g.relation, 7u);
                                   EXPECT_EQ(g.count, groups[visited].count);
                                   ApplyTransferGroup(g, alpha, k, &scratch,
                                                      got.data());
                                   ++visited;
                                   return Status::Ok();
                                 })
                    .ok());
    EXPECT_EQ(visited, 2u);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    // The empty log is a valid log of no records.
    EXPECT_TRUE(VisitTransferLog("", 7, dim,
                                 [&](float, const BlobFactorGroup&) {
                                   ADD_FAILURE() << "visited an empty log";
                                   return Status::Ok();
                                 })
                    .ok());
  }
}

TEST(TransferLogTest, CorruptionRejectedBeforeAnyVisit) {
  // dim 20: two s' code words per item, the second using 4 of its 16
  // codes. Record 0 (2 items) sits at 0 (alpha, count at 4, item 0 at 8:
  // sign, code words at 12 and 16, h at 20), record 1 (1 item) follows.
  const uint32_t dim = 20;
  const GradArena arena = FactorArena(dim, {2, 1}, simd::Active());
  std::string blob;
  ASSERT_EQ(SerializeGradArena(arena, &blob), 2u);
  const std::vector<BlobFactorGroup> groups = BlobGroups(blob);
  std::string log;
  AppendTransferLogRecord(-1.0f, groups[0], &log);
  AppendTransferLogRecord(-2.0f, groups[1], &log);
  const size_t record1 = FactorGroupBlobBytes(dim, 2);
  uint32_t word0, word1;
  std::memcpy(&word0, &log[12], 4);
  std::memcpy(&word1, &log[16], 4);
  const auto with_u32 = [&](size_t at, uint32_t v) {
    std::string bad = log;
    std::memcpy(&bad[at], &v, 4);
    return bad;
  };
  const std::pair<const char*, std::string> cases[] = {
      {"sign 0.5", with_u32(8, 0x3f000000u)},
      {"sign -0", with_u32(8, 0x80000000u)},
      {"code 3", with_u32(12, word0 | (3u << 6))},
      {"padding bits", with_u32(16, word1 | (1u << 8))},
      {"empty record", with_u32(record1 + 4, 0)},
      {"count past the bytes", with_u32(4, 4)},
      {"huge count", with_u32(4, 0xffffffffu)},
      {"truncated header", log.substr(0, record1 + 5)},
      {"truncated item", log.substr(0, log.size() - 1)},
      {"trailing byte", log + std::string(1, '\0')},
  };
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    size_t visited = 0;
    const Status st =
        VisitTransferLog(bad, 0, dim, [&](float, const BlobFactorGroup&) {
          ++visited;
          return Status::Ok();
        });
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_EQ(visited, 0u);
  }
}

}  // namespace
}  // namespace pkgm::core
