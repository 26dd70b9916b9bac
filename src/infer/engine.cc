#include "infer/engine.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "nn/activations.h"
#include "tasks/item_alignment.h"
#include "tasks/item_classification.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace pkgm::infer {
namespace {

void FillCode(std::vector<serve::ServiceResponse>* responses,
              serve::ResponseCode code) {
  for (serve::ServiceResponse& response : *responses) response.code = code;
}

}  // namespace

InferenceEngine::InferenceEngine(const InferModelRegistry* models,
                                 const core::ServiceVectorProvider* provider,
                                 std::vector<std::string> item_titles)
    : models_(models),
      provider_(provider),
      item_titles_(std::move(item_titles)) {
  PKGM_CHECK(models != nullptr);
  PKGM_CHECK(provider != nullptr);
}

InferenceEngine::InferenceEngine(const InferModelRegistry* models,
                                 const store::ModelRegistry* registry,
                                 std::vector<std::string> item_titles)
    : models_(models),
      registry_(registry),
      item_titles_(std::move(item_titles)) {
  PKGM_CHECK(models != nullptr);
  PKGM_CHECK(registry != nullptr);
}

const core::ServiceVectorProvider* InferenceEngine::PinProvider(
    std::shared_ptr<const store::ServingGeneration>* pinned) const {
  if (registry_ == nullptr) return provider_;
  *pinned = registry_->Current();
  PKGM_CHECK(*pinned != nullptr)
      << "InferenceEngine executing against an empty ModelRegistry";
  return (*pinned)->provider.get();
}

void InferenceEngine::ExecuteBatch(
    serve::TaskKind task,
    const std::vector<const serve::ServiceRequest*>& requests,
    std::vector<serve::ServiceResponse>* responses) {
  PKGM_CHECK_EQ(responses->size(), requests.size());
  switch (task) {
    case serve::TaskKind::kRecommend:
      ExecuteRecommend(requests, responses);
      return;
    case serve::TaskKind::kClassify:
    case serve::TaskKind::kAlign:
      ExecuteEncoder(task, requests, responses);
      return;
    case serve::TaskKind::kLookup:
      break;  // the KnowledgeServer serves lookups itself
  }
  FillCode(responses, serve::ResponseCode::kRejected);
}

void InferenceEngine::ExecuteRecommend(
    const std::vector<const serve::ServiceRequest*>& requests,
    std::vector<serve::ServiceResponse>* responses) {
  auto gen = models_->recommender();
  if (gen == nullptr) {
    // No model published for the task: shed like admission control does.
    FillCode(responses, serve::ResponseCode::kRejected);
    return;
  }
  std::shared_ptr<const store::ServingGeneration> pinned;
  const core::ServiceVectorProvider* provider = PinProvider(&pinned);
  const rec::NcfConfig& cfg = gen->model.config;

  // The *model's* trained variant decides which service vectors join the
  // MLP input — a request cannot ask a PKGM-all model to score with
  // PKGM-T features (request.mode only selects vectors on the lookup
  // path).
  const bool uses_pkgm = cfg.pkgm_dim > 0;
  const core::ServiceMode mode =
      uses_pkgm ? tasks::VariantServiceMode(gen->variant)
                : core::ServiceMode::kAll;
  if (uses_pkgm && provider->CondensedDim(mode) != cfg.pkgm_dim) {
    // Embedding backend incompatible with the published model (e.g. a
    // swap to a different dim). Shed instead of computing garbage.
    FillCode(responses, serve::ResponseCode::kRejected);
    return;
  }

  std::vector<size_t> valid;
  valid.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const serve::ServiceRequest& request = *requests[i];
    if (request.user >= cfg.num_users || request.item >= cfg.num_items ||
        (uses_pkgm && request.item >= provider->num_items())) {
      (*responses)[i].code = serve::ResponseCode::kInvalidItem;
    } else {
      valid.push_back(i);
    }
  }
  if (valid.empty()) return;

  std::vector<uint32_t> users, items;
  users.reserve(valid.size());
  items.reserve(valid.size());
  for (size_t i : valid) {
    users.push_back(requests[i]->user);
    items.push_back(requests[i]->item);
  }
  Mat pkgm;
  const Mat* pkgm_ptr = nullptr;
  if (uses_pkgm) {
    pkgm = Mat(valid.size(), cfg.pkgm_dim);
    for (size_t b = 0; b < valid.size(); ++b) {
      const Vec s = provider->Condensed(items[b], mode);
      float* dst = pkgm.Row(b);
      for (uint32_t j = 0; j < cfg.pkgm_dim; ++j) dst[j] = s[j];
    }
    pkgm_ptr = &pkgm;
  }

  Mat logits;
  {
    std::lock_guard<std::mutex> lock(gen->mu);
    gen->model.model->Forward(users, items, pkgm_ptr, &logits);
  }
  for (size_t b = 0; b < valid.size(); ++b) {
    (*responses)[valid[b]].score = nn::SigmoidScalar(logits(b, 0));
  }
}

void InferenceEngine::ExecuteEncoder(
    serve::TaskKind task,
    const std::vector<const serve::ServiceRequest*>& requests,
    std::vector<serve::ServiceResponse>* responses) {
  const bool align = task == serve::TaskKind::kAlign;
  auto gen = align ? models_->aligner() : models_->classifier();
  if (gen == nullptr) {
    FillCode(responses, serve::ResponseCode::kRejected);
    return;
  }
  std::shared_ptr<const store::ServingGeneration> pinned;
  const core::ServiceVectorProvider* provider = PinProvider(&pinned);
  tasks::TrainedEncoder& model = gen->model;
  const tasks::PkgmVariant variant = gen->variant;
  const bool uses_pkgm = variant != tasks::PkgmVariant::kBase;
  if (uses_pkgm && provider->dim() != model.config.dim) {
    FillCode(responses, serve::ResponseCode::kRejected);
    return;
  }
  const core::ServiceVectorProvider* services =
      uses_pkgm ? provider : nullptr;
  // An item needs a catalog title and, for a PKGM model, service vectors.
  const size_t num_items =
      uses_pkgm ? std::min<size_t>(item_titles_.size(), provider->num_items())
                : item_titles_.size();

  std::lock_guard<std::mutex> lock(gen->mu);
  std::vector<float> probs(model.num_outputs);
  std::vector<uint32_t> order(model.num_outputs);
  for (size_t i = 0; i < requests.size(); ++i) {
    const serve::ServiceRequest& request = *requests[i];
    serve::ServiceResponse& response = (*responses)[i];
    if (request.item >= num_items || (align && request.item_b >= num_items)) {
      response.code = serve::ResponseCode::kInvalidItem;
      continue;
    }
    text::EncodedInput input;
    if (align) {
      data::AlignmentPair pair;
      pair.item_a = request.item;
      pair.item_b = request.item_b;
      pair.title_a = item_titles_[request.item];
      pair.title_b = item_titles_[request.item_b];
      input = tasks::EncodeAlignmentPair(pair, model.tokenizer, services,
                                         variant, model.config.max_len);
    } else {
      data::ClassificationSample sample;
      sample.item_index = request.item;
      sample.title = item_titles_[request.item];
      input = tasks::EncodeClassificationSample(
          sample, model.tokenizer, services, variant, model.config.max_len);
    }
    Mat logits;
    model.Logits(input, &logits);
    if (align) {
      response.score = logits(0, 0);
      continue;
    }

    const uint32_t num_classes = model.num_outputs;
    std::copy(logits.Row(0), logits.Row(0) + num_classes, probs.begin());
    SoftmaxInplace(num_classes, probs.data());
    const uint32_t k =
        std::min(request.top_k == 0 ? 1u : request.top_k, num_classes);
    std::iota(order.begin(), order.end(), 0u);
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](uint32_t a, uint32_t b) {
                        if (probs[a] != probs[b]) return probs[a] > probs[b];
                        return a < b;  // deterministic tie-break
                      });
    response.class_ids.assign(order.begin(), order.begin() + k);
    response.class_probs.reserve(k);
    for (uint32_t j = 0; j < k; ++j) {
      response.class_probs.push_back(probs[order[j]]);
    }
  }
}

}  // namespace pkgm::infer
