#include "infer/pipeline.h"

#include <utility>

#include "data/alignment_dataset.h"
#include "data/classification_dataset.h"
#include "data/interaction_dataset.h"
#include "text/title_generator.h"
#include "util/logging.h"

namespace pkgm::infer {

InferBundle TrainInferModels(const tasks::PretrainedPkgm& pkgm,
                             const InferPipelineOptions& options) {
  InferBundle bundle;
  bundle.variant = options.variant;
  const core::ServiceVectorProvider* services = pkgm.services.get();
  PKGM_CHECK(services != nullptr);

  text::TitleGenerator titles(&pkgm.pkg, text::TitleGeneratorOptions{});

  // Classification (§III-B).
  {
    data::ClassificationDatasetOptions opt;
    opt.max_per_category = 20;
    opt.seed = options.seed + 1;
    data::ClassificationDataset dataset =
        BuildClassificationDataset(pkgm.pkg, titles, opt);
    tasks::ItemClassificationOptions task_opt = options.classify;
    task_opt.seed = options.seed + 2;
    tasks::ItemClassificationTask task(&dataset, services, task_opt);
    bundle.classifier = task.Train(options.variant);
    bundle.num_classes = dataset.num_classes;
  }

  // Alignment (§III-C), category 0.
  {
    data::AlignmentDatasetOptions opt;
    opt.pairs_per_category = 120;
    opt.ranking_cases = 5;
    opt.ranking_negatives = 9;
    opt.seed = options.seed + 3;
    std::vector<data::AlignmentDataset> datasets =
        BuildAlignmentDatasets(pkgm.pkg, titles, {0}, opt);
    PKGM_CHECK(!datasets.empty())
        << "category 0 produced no alignment pairs; enlarge the PKG";
    tasks::ItemAlignmentOptions task_opt = options.align;
    task_opt.seed = options.seed + 4;
    tasks::ItemAlignmentTask task(&datasets[0], services, task_opt);
    bundle.aligner = task.Train(options.variant);
  }

  // Recommendation (§III-D).
  {
    data::InteractionDatasetOptions opt;
    opt.num_users = 60;
    opt.seed = options.seed + 5;
    data::InteractionDataset dataset =
        BuildInteractionDataset(pkgm.pkg, opt);
    tasks::RecommendationOptions task_opt = options.recommend;
    task_opt.seed = options.seed + 6;
    tasks::RecommendationTask task(&dataset, services, task_opt);
    bundle.recommender = task.Train(options.variant);
    bundle.num_users = dataset.num_users;
  }

  bundle.titles.reserve(services->num_items());
  for (uint32_t i = 0; i < services->num_items(); ++i) {
    bundle.titles.push_back(titles.Stable(i));
  }
  return bundle;
}

}  // namespace pkgm::infer
