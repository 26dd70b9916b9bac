#include "tasks/pipeline.h"

#include <unordered_set>

#include "kg/key_relations.h"
#include "util/logging.h"

namespace pkgm::tasks {

PretrainedPkgm BuildAndPretrain(const PipelineOptions& options) {
  PretrainedPkgm out;

  // 1. Synthetic product KG (ETL-filtered observed triples + ground truth).
  out.pkg = kg::SyntheticPkgGenerator(options.pkg).Generate();

  // 2. Pre-train PKGM on the observed KG.
  core::PkgmModelOptions model_opt;
  model_opt.num_entities = out.pkg.entities.size();
  model_opt.num_relations = out.pkg.relations.size();
  model_opt.dim = options.dim;
  model_opt.scorer = options.scorer;
  model_opt.use_relation_module = options.use_relation_module;
  model_opt.seed = options.seed;
  out.model = std::make_unique<core::PkgmModel>(model_opt);

  core::Trainer trainer(out.model.get(), &out.pkg.observed, options.trainer);
  out.last_epoch = trainer.Train(options.pretrain_epochs);

  // 3. Key relations: top-k most frequent properties per category
  // (§III-A1), restricted to attribute relations.
  std::unordered_set<kg::RelationId> properties(
      out.pkg.property_relations.begin(), out.pkg.property_relations.end());
  kg::KeyRelationSelector selector(options.service_k, std::move(properties));
  std::vector<std::vector<kg::RelationId>> key_relations =
      selector.SelectPerItem(out.pkg);

  // 4. Service-vector provider over the pre-trained model.
  std::vector<kg::EntityId> item_entities;
  item_entities.reserve(out.pkg.items.size());
  for (const auto& item : out.pkg.items) item_entities.push_back(item.entity);
  out.services = std::make_unique<core::ServiceVectorProvider>(
      out.model.get(), std::move(item_entities), std::move(key_relations));
  return out;
}

}  // namespace pkgm::tasks
