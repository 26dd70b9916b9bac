// The "knowledge service" the paper deploys (§II-D): downstream consumers
// ask about items and get answers either as triples (symbolic engine) or as
// vectors (PKGM services). This demo runs a scripted comparison of the two
// paths for a handful of items, then optionally drops into an interactive
// loop:
//
//   $ ./knowledge_service              # scripted demo
//   $ ./knowledge_service --interactive
//
// Interactive commands:
//   item <index>     show both service paths for an item
//   save <path>      checkpoint the pre-trained model
//   quit

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "core/link_prediction.h"
#include "kg/query_engine.h"
#include "store/embedding_store_writer.h"
#include "tasks/pipeline.h"
#include "tensor/ops.h"
#include "util/string_util.h"

namespace {

using namespace pkgm;

/// Resolves S_T(h, r) to the nearest entity within the property's value
/// universe — the vector path's answer to the triple query.
kg::EntityId ResolveTail(const tasks::PretrainedPkgm& p, kg::EntityId h,
                         kg::RelationId r) {
  const auto it = p.pkg.property_values.find(r);
  if (it == p.pkg.property_values.end()) return kg::kInvalidId;
  std::vector<float> q(p.model->dim());
  p.model->TripleService(h, r, q.data());
  kg::EntityId best = kg::kInvalidId;
  float best_dist = 1e30f;
  for (kg::EntityId e : it->second) {
    float d = 0;
    const float* emb = p.model->entity(e);
    for (uint32_t j = 0; j < p.model->dim(); ++j) {
      d += std::abs(q[j] - emb[j]);
    }
    if (d < best_dist) {
      best_dist = d;
      best = e;
    }
  }
  return best;
}

void ShowItem(const tasks::PretrainedPkgm& p, kg::QueryEngine* engine,
              uint32_t item_index) {
  const kg::SyntheticPkg& pkg = p.pkg;
  if (item_index >= pkg.items.size()) {
    std::printf("no such item (have %zu)\n", pkg.items.size());
    return;
  }
  const kg::ItemInfo& item = pkg.items[item_index];
  std::printf("\n--- item %u (%s), category %s ---\n", item_index,
              pkg.entities.Name(item.entity).c_str(),
              pkg.category_names[item.category].c_str());

  std::printf("%-22s | %-22s | %-22s | %s\n", "key relation",
              "symbolic (h r ?t)", "vector S_T nearest", "||S_R||");
  for (kg::RelationId r : p.services->key_relations(item_index)) {
    // Symbolic path: only what the seller filled.
    const auto& tails = engine->TripleQuery(item.entity, r);
    std::string symbolic =
        tails.empty() ? "(no triple!)" : pkg.entities.Name(tails[0]);
    // Vector path: always answers; completes unfilled slots.
    kg::EntityId predicted = ResolveTail(p, item.entity, r);
    std::string vector_answer = predicted == kg::kInvalidId
                                    ? "-"
                                    : pkg.entities.Name(predicted);
    const float rel_score = p.model->RelationScore(item.entity, r);
    std::printf("%-22s | %-22s | %-22s | %.3f\n",
                pkg.relations.Name(r).c_str(), symbolic.c_str(),
                vector_answer.c_str(), rel_score);
  }
  std::printf("(||S_R|| ~ 0 means \"has or should have the relation\")\n");
}

}  // namespace

int main(int argc, char** argv) {
  const bool interactive = argc > 1 && std::strcmp(argv[1], "--interactive") == 0;

  tasks::PipelineOptions opt;
  opt.pkg.seed = 99;
  opt.pkg.num_categories = 6;
  opt.pkg.items_per_category = 100;
  opt.pkg.properties_per_category = 8;
  opt.pkg.values_per_property = 15;
  opt.pkg.products_per_category = 15;
  opt.pkg.observed_fill_rate = 0.7;
  opt.pkg.etl_min_occurrence = 5;
  opt.dim = 32;
  opt.trainer.learning_rate = 0.05f;
  opt.pretrain_epochs = 40;
  opt.service_k = 5;

  std::printf("pre-training PKGM knowledge service ...\n");
  tasks::PretrainedPkgm p = tasks::BuildAndPretrain(opt);
  kg::QueryEngine engine(&p.pkg.observed);
  std::printf("ready: %zu items, %zu observed triples (30%% of true facts "
              "unfilled)\n", p.pkg.items.size(), p.pkg.observed.size());

  if (!interactive) {
    for (uint32_t i : {0u, 7u, 42u}) ShowItem(p, &engine, i);
    std::printf("\nrun with --interactive to explore further items.\n");
    return 0;
  }

  std::string line;
  std::printf("\n> ");
  while (std::getline(std::cin, line)) {
    std::istringstream iss(line);
    std::string cmd;
    iss >> cmd;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "item") {
      uint32_t idx = 0;
      iss >> idx;
      ShowItem(p, &engine, idx);
    } else if (cmd == "save") {
      std::string path;
      iss >> path;
      // A checkpoint is an fp32 .pkgs store: servable and reloadable
      // (store::LoadModel) as written.
      Status s = store::EmbeddingStoreWriter().Write(*p.model, path);
      std::printf("%s\n", s.ToString().c_str());
    } else if (!cmd.empty()) {
      std::printf("commands: item <index> | save <path> | quit\n");
    }
    std::printf("> ");
  }
  return 0;
}
