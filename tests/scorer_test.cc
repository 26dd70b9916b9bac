// Tests for the pluggable triple-query scorers (TransE / DistMult /
// ComplEx): closed-form score checks, query-vector/tail-distance
// consistency, finite-difference gradient verification of the joint hinge
// for every family, training convergence, link prediction, and checkpoint
// round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "core/link_prediction.h"
#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "kg/triple_store.h"
#include "reference_gradients.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "tensor/ops.h"

namespace pkgm::core {
namespace {

PkgmModelOptions Options(TripleScorerKind scorer, uint32_t dim = 8,
                         bool rel_module = true) {
  PkgmModelOptions opt;
  opt.num_entities = 20;
  opt.num_relations = 4;
  opt.dim = dim;
  opt.scorer = scorer;
  opt.use_relation_module = rel_module;
  opt.seed = 31;
  return opt;
}

kg::TripleStore SmallKg() {
  kg::TripleStore store;
  for (uint32_t i = 0; i < 10; ++i) {
    store.Add(i, 0, 10 + i % 5);
    store.Add(i, 1, 15 + i % 3);
    if (i % 2 == 0) store.Add(i, 2, 18);
  }
  return store;
}

// ----------------------------------------------------- closed-form scores --

TEST(ScorerTest, DistMultMatchesManualTrilinear) {
  PkgmModel model(Options(TripleScorerKind::kDistMult, 4));
  kg::Triple t{1, 2, 3};
  float expected = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    expected += model.entity(1)[i] * model.relation(2)[i] * model.entity(3)[i];
  }
  EXPECT_NEAR(model.TripleScore(t), -expected, 1e-5);
}

TEST(ScorerTest, ComplExMatchesManualComplexProduct) {
  PkgmModel model(Options(TripleScorerKind::kComplEx, 6));
  kg::Triple t{0, 1, 2};
  const float* h = model.entity(0);
  const float* r = model.relation(1);
  const float* tl = model.entity(2);
  // Re<h, r, conj(t)> with halves [re; im].
  float expected = 0;
  for (uint32_t i = 0; i < 3; ++i) {
    const float hr_re = h[i] * r[i] - h[3 + i] * r[3 + i];
    const float hr_im = h[i] * r[3 + i] + h[3 + i] * r[i];
    expected += hr_re * tl[i] + hr_im * tl[3 + i];
  }
  EXPECT_NEAR(model.TripleScore(t), -expected, 1e-5);
}

TEST(ScorerTest, ComplExRequiresEvenDim) {
  EXPECT_DEATH(PkgmModel model(Options(TripleScorerKind::kComplEx, 7)),
               "even dimension");
}

// ---------------------------------- query vector / tail distance identity --

class ScorerSweep : public ::testing::TestWithParam<TripleScorerKind> {};

TEST_P(ScorerSweep, QueryVectorDistanceEqualsTripleScore) {
  PkgmModel model(Options(GetParam(), 8));
  std::vector<float> q(8);
  for (kg::EntityId h = 0; h < 5; ++h) {
    for (kg::RelationId r = 0; r < 4; ++r) {
      model.TripleQueryVector(h, r, q.data());
      for (kg::EntityId t = 10; t < 15; ++t) {
        EXPECT_NEAR(model.TailDistance(r, q.data(), model.entity(t)),
                    model.TripleScore({h, r, t}), 1e-4);
      }
    }
  }
}

TEST_P(ScorerSweep, TripleServiceAliasesQueryVector) {
  PkgmModel model(Options(GetParam(), 8));
  std::vector<float> a(8), b(8);
  model.TripleService(3, 2, a.data());
  model.TripleQueryVector(3, 2, b.data());
  for (uint32_t i = 0; i < 8; ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

// -------------------------------------------------- gradient verification --

TEST_P(ScorerSweep, HingeGradientsMatchFiniteDifference) {
  PkgmModel model(Options(GetParam(), 6));
  kg::Triple pos{0, 0, 1};
  kg::Triple neg{0, 0, 2};
  const float margin = 50.0f;  // keep the hinge active

  SparseGrad grad;
  float hinge = AccumulateHingeGradients(model, pos, neg, margin, &grad);
  ASSERT_GT(hinge, 0.0f);

  auto loss = [&] {
    return static_cast<double>(
        AccumulateHingeGradients(model, pos, neg, margin, nullptr));
  };
  const double eps = 1e-3;
  auto check_span = [&](float* values, const std::vector<float>& g) {
    for (size_t i = 0; i < g.size(); ++i) {
      const float saved = values[i];
      values[i] = saved + static_cast<float>(eps);
      const double plus = loss();
      values[i] = saved - static_cast<float>(eps);
      const double minus = loss();
      values[i] = saved;
      EXPECT_NEAR((plus - minus) / (2 * eps), g[i], 5e-2);
    }
  };
  for (const auto& [id, g] : grad.entities()) check_span(model.entity(id), g);
  for (const auto& [id, g] : grad.relations()) {
    check_span(model.relation(id), g);
  }
  for (const auto& [id, g] : grad.transfers()) {
    check_span(model.transfer(id), g);
  }
  for (const auto& [id, g] : grad.hyperplanes()) {
    check_span(model.hyperplane(id), g);
  }
}

// ----------------------------------------------------------- end-to-end ----

TEST_P(ScorerSweep, TrainingReducesHinge) {
  kg::TripleStore store = SmallKg();
  PkgmModelOptions opt = Options(GetParam(), 16);
  PkgmModel model(opt);
  TrainerOptions topt;
  topt.learning_rate = 0.02f;
  topt.margin = 1.0f;
  topt.batch_size = 8;
  topt.seed = 5;
  Trainer trainer(&model, &store, topt);
  EpochStats first = trainer.RunEpoch();
  EpochStats last = trainer.Train(40);
  EXPECT_LT(last.mean_hinge, first.mean_hinge);
}

TEST_P(ScorerSweep, TrainedModelRanksTrueTailsWell) {
  kg::TripleStore store = SmallKg();
  PkgmModelOptions opt = Options(GetParam(), 16);
  PkgmModel model(opt);
  TrainerOptions topt;
  topt.learning_rate = 0.02f;
  topt.margin = 1.0f;
  topt.batch_size = 8;
  topt.seed = 7;
  Trainer trainer(&model, &store, topt);
  trainer.Train(80);

  LinkPredictionEvaluator::Options eval_opt;
  eval_opt.filtered = true;
  LinkPredictionEvaluator eval(&model, &store, eval_opt);
  auto result = eval.EvaluateTails(store.triples());
  // 20 entities: chance filtered MRR is well under 0.3; trained models
  // should rank the true (observed) tails near the top.
  EXPECT_GT(result.mrr, 0.5) << "scorer " << static_cast<int>(GetParam());
}

TEST_P(ScorerSweep, CheckpointRoundTripPreservesScorer) {
  PkgmModel model(Options(GetParam(), 8));
  const std::string path = ::testing::TempDir() + "/scorer_ckpt.pkgs";
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  auto loaded = store::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->scorer(), GetParam());
  kg::Triple t{2, 1, 9};
  EXPECT_FLOAT_EQ(loaded->Score(t), model.Score(t));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllScorers, ScorerSweep,
                         ::testing::Values(TripleScorerKind::kTransE,
                                           TripleScorerKind::kDistMult,
                                           TripleScorerKind::kComplEx,
                                           TripleScorerKind::kTransH));

// --------------------------------------------------------- TransH extras --

TEST(TransHTest, HyperplanesStayUnitNormDuringTraining) {
  kg::TripleStore store = SmallKg();
  PkgmModelOptions opt = Options(TripleScorerKind::kTransH, 8);
  PkgmModel model(opt);
  TrainerOptions topt;
  topt.learning_rate = 0.05f;
  topt.batch_size = 8;
  topt.seed = 3;
  Trainer trainer(&model, &store, topt);
  trainer.Train(10);
  for (uint32_t r = 0; r < model.num_relations(); ++r) {
    EXPECT_NEAR(L2Norm(model.dim(), model.hyperplane(r)), 1.0f, 1e-4);
  }
}

TEST(TransHTest, ProjectionReducesToTransEWhenOrthogonal) {
  // If w is orthogonal to h, r and t, TransH == TransE on that triple.
  PkgmModelOptions opt = Options(TripleScorerKind::kTransH, 4);
  PkgmModel model(opt);
  // h, t, r live in dims 0..2; w = e3.
  float* h = model.entity(0);
  float* tl = model.entity(1);
  float* r = model.relation(0);
  float* w = model.hyperplane(0);
  const float hv[4] = {0.3f, -0.2f, 0.5f, 0.0f};
  const float tv[4] = {0.1f, 0.4f, -0.3f, 0.0f};
  const float rv[4] = {-0.2f, 0.6f, 0.1f, 0.0f};
  const float wv[4] = {0.0f, 0.0f, 0.0f, 1.0f};
  for (int i = 0; i < 4; ++i) {
    h[i] = hv[i];
    tl[i] = tv[i];
    r[i] = rv[i];
    w[i] = wv[i];
  }
  float expected = 0;
  for (int i = 0; i < 4; ++i) expected += std::fabs(hv[i] + rv[i] - tv[i]);
  EXPECT_NEAR(model.TripleScore({0, 0, 1}), expected, 1e-5);
}

}  // namespace
}  // namespace pkgm::core
