#include "tasks/item_alignment.h"

#include <algorithm>
#include <vector>

#include "nn/losses.h"
#include "text/tokenizer.h"
#include "util/logging.h"

namespace pkgm::tasks {

text::EncodedInput EncodeAlignmentPair(
    const data::AlignmentPair& pair, const text::Tokenizer& tok,
    const core::ServiceVectorProvider* services, PkgmVariant variant,
    size_t max_len) {
  std::vector<uint32_t> ta = tok.Encode(pair.title_a);
  std::vector<uint32_t> tb = tok.Encode(pair.title_b);
  text::EncodedInput input;

  if (variant == PkgmVariant::kBase) {
    input.token_ids = text::BuildPairInput(ta, tb, max_len, &input.valid_len,
                                           &input.segment_ids);
    return input;
  }

  PKGM_CHECK(services != nullptr);
  const core::ServiceMode mode = VariantServiceMode(variant);
  std::vector<Vec> va = services->Sequence(pair.item_a, mode);
  std::vector<Vec> vb = services->Sequence(pair.item_b, mode);

  const size_t per_side = (max_len - 3) / 2;
  auto fit = [&](std::vector<uint32_t>* tokens, std::vector<Vec>* vecs) {
    const size_t n_vec = std::min(vecs->size(), per_side - 1);
    vecs->resize(n_vec);
    const size_t budget = per_side - n_vec;
    if (tokens->size() > budget) tokens->resize(budget);
  };
  fit(&ta, &va);
  fit(&tb, &vb);

  input.token_ids.reserve(max_len);
  input.segment_ids.reserve(max_len);
  auto push = [&](uint32_t id, uint32_t seg) {
    input.token_ids.push_back(id);
    input.segment_ids.push_back(seg);
  };
  auto inject = [&](std::vector<Vec>* vecs, uint32_t seg) {
    for (Vec& v : *vecs) {
      input.injected.emplace_back(input.token_ids.size(), std::move(v));
      push(text::kPadId, seg);
    }
  };

  push(text::kClsId, 0);
  for (uint32_t id : ta) push(id, 0);
  push(text::kSepId, 0);
  inject(&va, 0);
  for (uint32_t id : tb) push(id, 1);
  push(text::kSepId, 1);
  inject(&vb, 1);

  input.valid_len = input.token_ids.size();
  PKGM_CHECK_LE(input.valid_len, max_len);
  return input;
}

ItemAlignmentTask::ItemAlignmentTask(const data::AlignmentDataset* dataset,
                                     const core::ServiceVectorProvider* services,
                                     const ItemAlignmentOptions& options)
    : dataset_(dataset), services_(services), options_(options) {
  PKGM_CHECK(dataset != nullptr);
}

TrainedEncoder ItemAlignmentTask::Train(PkgmVariant variant) const {
  const std::vector<data::AlignmentPair>& train = dataset_->train;
  EncoderFineTune task;
  for (const auto& p : train) {
    task.vocab_lines.push_back(p.title_a);
    task.vocab_lines.push_back(p.title_b);
  }
  task.num_train = train.size();
  task.encode = [&](const text::Tokenizer& tok, size_t i, PkgmVariant v) {
    return EncodeAlignmentPair(train[i], tok, services_, v, options_.max_len);
  };
  task.num_outputs = 1;
  task.head_name = kAlignerHeadName;
  task.loss = [&](size_t i, const Mat& logits, Mat* dlogits) -> double {
    return nn::BinaryCrossEntropyWithLogits(logits, {train[i].label}, dlogits);
  };
  return FineTuneEncoder(options_, services_, variant, task);
}

AlignmentMetrics ItemAlignmentTask::Run(PkgmVariant variant) const {
  TrainedEncoder trained = Train(variant);

  AlignmentMetrics metrics;
  metrics.train_loss = trained.train_loss;

  auto score = [&](const data::AlignmentPair& pair) {
    const text::EncodedInput input = EncodeAlignmentPair(
        pair, trained.tokenizer, services_, variant, trained.config.max_len);
    Mat logits;
    trained.Logits(input, &logits);
    return logits(0, 0);  // monotone in probability
  };

  // Accuracy on the classification test split (Table VII).
  uint64_t correct = 0;
  for (const auto& pair : dataset_->test_c) {
    const bool predicted = score(pair) > 0.0f;  // sigmoid(0) == 0.5
    if (predicted == (pair.label > 0.5f)) ++correct;
  }
  metrics.accuracy = dataset_->test_c.empty()
                         ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(dataset_->test_c.size());

  // Hit@k on the ranking split (Table VI): rank the aligned pair among
  // 1 + negatives candidates.
  std::vector<double> ranks;
  for (const auto& rc : dataset_->test_r) {
    const float pos = score(rc.positive);
    std::vector<float> negatives;
    for (const auto& neg : rc.negatives) negatives.push_back(score(neg));
    ranks.push_back(RankAmong(pos, negatives));
  }
  metrics.hits = HitsAtK(ranks);
  return metrics;
}

}  // namespace pkgm::tasks
