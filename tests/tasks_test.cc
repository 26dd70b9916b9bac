#include <gtest/gtest.h>

#include <cmath>

#include "core/link_prediction.h"
#include "data/alignment_dataset.h"
#include "data/classification_dataset.h"
#include "data/interaction_dataset.h"
#include "tasks/item_alignment.h"
#include "tasks/item_classification.h"
#include "tasks/pipeline.h"
#include "tasks/recommendation.h"
#include "tensor/ops.h"
#include "text/title_generator.h"

namespace pkgm::tasks {
namespace {

/// One shared pre-trained pipeline for all integration tests (built once;
/// pre-training a PKGM per test would be wasteful).
class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions opt;
    opt.pkg.seed = 77;
    opt.pkg.num_categories = 6;
    opt.pkg.items_per_category = 80;
    opt.pkg.properties_per_category = 6;
    opt.pkg.shared_property_pool = 8;
    opt.pkg.values_per_property = 12;
    opt.pkg.products_per_category = 12;
    opt.pkg.identity_properties = 2;
    opt.pkg.etl_min_occurrence = 5;
    opt.dim = 16;
    opt.trainer.learning_rate = 0.05f;
    opt.trainer.margin = 2.0f;
    opt.trainer.batch_size = 256;
    opt.pretrain_epochs = 60;
    opt.service_k = 4;
    pipeline_ = new PretrainedPkgm(BuildAndPretrain(opt));
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  static PretrainedPkgm* pipeline_;
};

PretrainedPkgm* PipelineTest::pipeline_ = nullptr;

TEST_F(PipelineTest, PretrainingConverged) {
  // The hinge should be mostly satisfied after 25 epochs on a small graph.
  EXPECT_LT(pipeline_->last_epoch.mean_hinge, 1.0);
  EXPECT_LT(static_cast<double>(pipeline_->last_epoch.active_pairs),
            0.5 * static_cast<double>(pipeline_->last_epoch.total_pairs));
}

TEST_F(PipelineTest, ServiceProviderShapes) {
  const auto& services = *pipeline_->services;
  EXPECT_EQ(services.num_items(), pipeline_->pkg.items.size());
  EXPECT_EQ(services.dim(), 16u);
  EXPECT_EQ(services.NumKeyRelations(0), 4u);
  EXPECT_EQ(services.Sequence(0, core::ServiceMode::kAll).size(), 8u);
  EXPECT_EQ(services.Condensed(0, core::ServiceMode::kAll).size(), 32u);
}

// The paper's central §II-D2 claim: S_R(h,r) ~ 0 iff h has or SHOULD have
// relation r — including held-out (unfilled) relations, i.e. relation-level
// completion.
TEST_F(PipelineTest, RelationServiceSeparatesOwnedFromForeign) {
  const auto& pkg = pipeline_->pkg;
  const auto& model = *pipeline_->model;

  double owned = 0, foreign = 0;
  int n_owned = 0, n_foreign = 0;
  for (uint32_t i = 0; i < pkg.items.size(); i += 7) {
    const auto& item = pkg.items[i];
    for (kg::RelationId r = 0; r < pkg.relations.size(); ++r) {
      // Skip non-property relations (similarTo, noise).
      bool is_property = false;
      for (kg::RelationId p : pkg.property_relations) {
        if (p == r) {
          is_property = true;
          break;
        }
      }
      if (!is_property) continue;
      if (pkg.ItemShouldHaveRelation(i, r)) {
        owned += model.RelationScore(item.entity, r);
        ++n_owned;
      } else {
        foreign += model.RelationScore(item.entity, r);
        ++n_foreign;
      }
    }
  }
  ASSERT_GT(n_owned, 0);
  ASSERT_GT(n_foreign, 0);
  owned /= n_owned;
  foreign /= n_foreign;
  EXPECT_LT(owned, foreign * 0.8)
      << "owned relations must score clearly lower (owned=" << owned
      << " foreign=" << foreign << ")";
}

// Completion capability (§II-D1): held-out attribute triples — never seen
// in training — rank far better than chance against the relation's value
// universe.
TEST_F(PipelineTest, CompletesHeldOutTriples) {
  const auto& pkg = pipeline_->pkg;
  core::LinkPredictionEvaluator::Options opt;
  opt.filtered = true;
  core::LinkPredictionEvaluator eval(pipeline_->model.get(), &pkg.observed,
                                     opt);

  std::vector<kg::Triple> test(pkg.held_out.begin(),
                               pkg.held_out.begin() +
                                   std::min<size_t>(pkg.held_out.size(), 200));
  auto result = eval.EvaluateTails(test, &pkg.property_values);
  // Chance MRR against ~12 candidates is ~0.26; require clearly better.
  // Non-identity attribute values are i.i.d. Zipf draws, so the
  // popularity prior bounds what any model can do; uniform chance over ~12
  // candidates is MRR ~0.26. Require clear signal above chance.
  EXPECT_GT(result.mrr, 0.32) << "mean_rank=" << result.mean_rank;
  EXPECT_GT(result.hits[1], 0.12);
}

TEST_F(PipelineTest, TripleServiceApproximatesObservedTails) {
  // For observed triples, S_T(h, r) must be closer (L1) to the true tail
  // than to a random entity.
  const auto& pkg = pipeline_->pkg;
  const auto& model = *pipeline_->model;
  const uint32_t d = model.dim();
  Rng rng(5);
  int wins = 0, total = 0;
  std::vector<float> s(d);
  for (size_t i = 0; i < pkg.observed.triples().size(); i += 17) {
    const kg::Triple& t = pkg.observed.triples()[i];
    model.TripleService(t.head, t.relation, s.data());
    float to_true = 0, to_rand = 0;
    const float* true_emb = model.entity(t.tail);
    const kg::EntityId r_ent =
        static_cast<kg::EntityId>(rng.Uniform(model.num_entities()));
    const float* rand_emb = model.entity(r_ent);
    for (uint32_t j = 0; j < d; ++j) {
      to_true += std::fabs(s[j] - true_emb[j]);
      to_rand += std::fabs(s[j] - rand_emb[j]);
    }
    wins += to_true < to_rand;
    ++total;
  }
  EXPECT_GT(static_cast<double>(wins) / total, 0.9);
}

// ------------------------------------------------------- downstream tasks --

data::ClassificationDataset SmallClassificationData(
    const kg::SyntheticPkg& pkg) {
  text::TitleGenerator titles(&pkg, text::TitleGeneratorOptions{});
  data::ClassificationDatasetOptions opt;
  opt.max_per_category = 40;
  opt.seed = 5;
  return BuildClassificationDataset(pkg, titles, opt);
}

TEST_F(PipelineTest, ClassificationBeatsChanceAndPkgmHelps) {
  data::ClassificationDataset ds = SmallClassificationData(pipeline_->pkg);
  ItemClassificationOptions opt;
  opt.max_len = 20;
  opt.bert_layers = 1;
  opt.bert_heads = 2;
  opt.bert_ff = 32;
  opt.epochs = 4;
  opt.mlm_pretrain_epochs = 1;
  opt.seed = 3;
  ItemClassificationTask task(&ds, pipeline_->services.get(), opt);

  ClassificationMetrics base = task.Run(PkgmVariant::kBase);
  const double chance = 1.0 / ds.num_classes;
  EXPECT_GT(base.accuracy, 2 * chance);
  EXPECT_GT(base.hits[1], chance);
  EXPECT_GE(base.hits[3], base.hits[1]);
  EXPECT_GE(base.hits[10], base.hits[3]);

  ClassificationMetrics all = task.Run(PkgmVariant::kPkgmAll);
  EXPECT_GT(all.accuracy, 2 * chance);
  // On synthetic data with complete knowledge the PKGM variant should be at
  // least competitive with (usually better than) the base model.
  EXPECT_GT(all.accuracy, base.accuracy - 0.1);
}

TEST_F(PipelineTest, AlignmentTaskRunsAndBeatsChance) {
  text::TitleGenerator titles(&pipeline_->pkg, text::TitleGeneratorOptions{});
  data::AlignmentDatasetOptions opt;
  opt.pairs_per_category = 800;
  opt.ranking_cases = 10;
  opt.ranking_negatives = 19;
  opt.seed = 7;
  auto datasets =
      BuildAlignmentDatasets(pipeline_->pkg, titles, {0, 1, 2}, opt);
  ASSERT_FALSE(datasets.empty());

  ItemAlignmentOptions task_opt;
  task_opt.max_len = 48;
  task_opt.bert_layers = 2;
  task_opt.bert_heads = 4;
  task_opt.bert_ff = 32;
  task_opt.epochs = 10;
  task_opt.mlm_pretrain_epochs = 2;
  task_opt.seed = 9;
  ItemAlignmentTask task(&datasets[0], pipeline_->services.get(), task_opt);

  AlignmentMetrics base = task.Run(PkgmVariant::kBase);
  EXPECT_GT(base.accuracy, 0.6);  // balanced task, chance = 0.5
  // Hit@k vs 19 negatives: chance Hit@10 = 0.5.
  EXPECT_GE(base.hits[10], base.hits[3]);

  AlignmentMetrics all = task.Run(PkgmVariant::kPkgmAll);
  // Clearly above the 0.5 chance line. The paper itself reports mixed
  // per-category orderings for alignment (Table VI category-1), so no
  // ordering assertion here — the bench reports the full comparison.
  EXPECT_GT(all.accuracy, 0.55);
}

TEST_F(PipelineTest, RecommendationBeatsChanceAndPkgmHelps) {
  data::InteractionDatasetOptions data_opt;
  data_opt.num_users = 250;
  data_opt.preference_strength = 5.0;
  data_opt.popularity_weight = 6.0;
  data_opt.seed = 11;
  data::InteractionDataset ds =
      BuildInteractionDataset(pipeline_->pkg, data_opt);

  RecommendationOptions opt;
  opt.epochs = 25;
  opt.seed = 13;
  RecommendationTask task(&ds, pipeline_->services.get(), opt);

  RecommendationMetrics base = task.Run(PkgmVariant::kBase);
  // Chance HR@10 with 100 negatives is ~0.099.
  EXPECT_GT(base.hr[10], 0.12);
  EXPECT_GE(base.hr[30], base.hr[10]);
  EXPECT_GE(base.ndcg[30], base.ndcg[10]);

  RecommendationMetrics all = task.Run(PkgmVariant::kPkgmAll);
  EXPECT_GT(all.hr[10], 0.12);
}

TEST(ShardedPipelineTest, ShardedTrainingProducesUsableServices) {
  PipelineOptions opt;
  opt.pkg.seed = 99;
  opt.pkg.num_categories = 3;
  opt.pkg.items_per_category = 40;
  opt.pkg.properties_per_category = 5;
  opt.pkg.values_per_property = 8;
  opt.pkg.products_per_category = 8;
  opt.pkg.etl_min_occurrence = 3;
  opt.dim = 12;
  opt.use_sharded_trainer = true;
  opt.sharded.num_workers = 3;
  opt.sharded.learning_rate = 0.1f;
  // The pipelined trainer draws negatives from a producer-owned stream, so
  // the trajectory differs from the seed implementation; a few extra epochs
  // keep the same convergence bar on this tiny KG.
  opt.pretrain_epochs = 30;
  opt.service_k = 3;
  PretrainedPkgm p = BuildAndPretrain(opt);
  EXPECT_LT(p.last_epoch.mean_hinge, 1.8);
  Vec s = p.services->Condensed(0, core::ServiceMode::kAll);
  EXPECT_EQ(s.size(), 24u);
}

TEST(AblationTest, RelationModuleImprovesRelationSeparation) {
  // TransE-only ablation: without M_r the model cannot encode relation
  // ownership, so the owned/foreign gap must be weaker than full PKGM's.
  auto build = [&](bool use_relation_module) {
    PipelineOptions opt;
    opt.pkg.seed = 55;
    opt.pkg.num_categories = 4;
    opt.pkg.items_per_category = 50;
    opt.pkg.properties_per_category = 5;
    opt.pkg.values_per_property = 8;
    opt.pkg.products_per_category = 8;
    opt.pkg.etl_min_occurrence = 3;
    opt.dim = 12;
    opt.use_relation_module = use_relation_module;
    opt.trainer.learning_rate = 0.05f;
    opt.pretrain_epochs = 20;
    opt.service_k = 3;
    return BuildAndPretrain(opt);
  };
  PretrainedPkgm full = build(true);

  // For the full model, relation-service norms distinguish owned vs
  // foreign relations.
  const auto& pkg = full.pkg;
  double owned = 0, foreign = 0;
  int n_owned = 0, n_foreign = 0;
  for (uint32_t i = 0; i < pkg.items.size(); i += 5) {
    for (kg::RelationId r : pkg.property_relations) {
      const double score =
          full.model->RelationScore(pkg.items[i].entity, r);
      if (pkg.ItemShouldHaveRelation(i, r)) {
        owned += score;
        ++n_owned;
      } else {
        foreign += score;
        ++n_foreign;
      }
    }
  }
  EXPECT_LT(owned / n_owned, foreign / n_foreign);

  // The ablated model reports 0 for every relation score by construction.
  PretrainedPkgm ablated = build(false);
  EXPECT_FLOAT_EQ(ablated.model->RelationScore(pkg.items[0].entity, 0), 0.0f);
}

}  // namespace
}  // namespace pkgm::tasks
