#ifndef PKGM_INFER_ENGINE_H_
#define PKGM_INFER_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/service.h"
#include "infer/registry.h"
#include "serve/infer_executor.h"
#include "serve/request.h"
#include "store/model_registry.h"

namespace pkgm::infer {

/// The model-inference backend behind the wire protocol's Recommend /
/// Classify / Align frames (paper §III): a serve::InferExecutor that runs
/// full downstream-model forwards server-side, so clients get scores — not
/// vectors — while triple data stays behind the service boundary.
///
/// Parameter flow mirrors the lookup path exactly. Service vectors are
/// pulled per request through the same ServiceVectorProvider seam the
/// KnowledgeServer uses — a fixed provider or a store::ModelRegistry
/// snapshot — so embedding hot swaps and int8 mmap stores flow through
/// inference unchanged. Model weights come from the InferModelRegistry,
/// snapshotted once per batch: per-task weight refreshes are zero-downtime
/// and an in-flight batch always finishes on the generation it pinned.
///
/// Task execution (per batch, under the pinned generation's mutex because
/// the models cache forward activations):
///   recommend  NCF forward over the (user, item) rows; the condensed
///              service vector joins the MLP tower input (Eq. 21);
///              score = sigmoid(logit).
///   classify   TinyBert over the item's catalog title with service vectors
///              injected after [SEP] (Fig. 2), head logits, SIMD-dispatched
///              softmax, top-k classes.
///   align      TinyBert pair encoding of both items' titles and vectors
///              (Fig. 5); score = raw head logit (> 0 means same product).
///
/// The title catalog is fixed at construction: item i's canonical title —
/// the same text::TitleGenerator::Stable output the training datasets used,
/// which is what makes server-side encoder inputs bit-identical to offline
/// evaluation's.
class InferenceEngine : public serve::InferExecutor {
 public:
  /// Fixed-provider backend; `provider`, `models` and the titles referenced
  /// must outlive the engine.
  InferenceEngine(const InferModelRegistry* models,
                  const core::ServiceVectorProvider* provider,
                  std::vector<std::string> item_titles);
  /// Hot-swappable embedding backend: service vectors come from the
  /// registry's current generation, snapshotted once per batch.
  InferenceEngine(const InferModelRegistry* models,
                  const store::ModelRegistry* registry,
                  std::vector<std::string> item_titles);

  void ExecuteBatch(serve::TaskKind task,
                    const std::vector<const serve::ServiceRequest*>& requests,
                    std::vector<serve::ServiceResponse>* responses) override;

 private:
  /// Snapshots the embedding backend for one batch. In registry mode,
  /// `pinned` keeps the generation alive until the batch completes.
  const core::ServiceVectorProvider* PinProvider(
      std::shared_ptr<const store::ServingGeneration>* pinned) const;

  void ExecuteRecommend(
      const std::vector<const serve::ServiceRequest*>& requests,
      std::vector<serve::ServiceResponse>* responses);
  void ExecuteClassify(
      const std::vector<const serve::ServiceRequest*>& requests,
      std::vector<serve::ServiceResponse>* responses);
  void ExecuteAlign(const std::vector<const serve::ServiceRequest*>& requests,
                    std::vector<serve::ServiceResponse>* responses);

  const InferModelRegistry* models_;
  const core::ServiceVectorProvider* provider_ = nullptr;
  const store::ModelRegistry* registry_ = nullptr;
  std::vector<std::string> item_titles_;
};

}  // namespace pkgm::infer

#endif  // PKGM_INFER_ENGINE_H_
