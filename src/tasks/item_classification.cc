#include "tasks/item_classification.h"

#include <algorithm>
#include <vector>

#include "nn/losses.h"
#include "util/logging.h"

namespace pkgm::tasks {

text::EncodedInput EncodeClassificationSample(
    const data::ClassificationSample& sample, const text::Tokenizer& tok,
    const core::ServiceVectorProvider* services, PkgmVariant variant,
    size_t max_len) {
  std::vector<uint32_t> tokens = tok.Encode(sample.title);
  text::EncodedInput input;

  if (variant == PkgmVariant::kBase) {
    input.token_ids = text::BuildSingleInput(tokens, max_len, &input.valid_len);
    return input;
  }

  PKGM_CHECK(services != nullptr);
  std::vector<Vec> vecs =
      services->Sequence(sample.item_index, VariantServiceMode(variant));
  const size_t n_vec = std::min(vecs.size(), max_len - 3);
  const size_t title_budget = max_len - 2 - n_vec;
  if (tokens.size() > title_budget) tokens.resize(title_budget);

  input.token_ids = text::BuildSingleInput(tokens, max_len, &input.valid_len);
  for (size_t v = 0; v < n_vec; ++v) {
    const size_t pos = input.valid_len + v;
    input.token_ids[pos] = text::kPadId;  // placeholder; embedding replaced
    input.injected.emplace_back(pos, std::move(vecs[v]));
  }
  input.valid_len += n_vec;
  return input;
}

ItemClassificationTask::ItemClassificationTask(
    const data::ClassificationDataset* dataset,
    const core::ServiceVectorProvider* services,
    const ItemClassificationOptions& options)
    : dataset_(dataset), services_(services), options_(options) {
  PKGM_CHECK(dataset != nullptr);
}

TrainedEncoder ItemClassificationTask::Train(PkgmVariant variant) const {
  const std::vector<data::ClassificationSample>& train = dataset_->train;
  EncoderFineTune task;
  for (const auto& s : train) task.vocab_lines.push_back(s.title);
  task.num_train = train.size();
  task.encode = [&](const text::Tokenizer& tok, size_t i, PkgmVariant v) {
    return EncodeClassificationSample(train[i], tok, services_, v,
                                      options_.max_len);
  };
  task.num_outputs = dataset_->num_classes;
  task.head_name = kClassifierHeadName;
  task.loss = [&](size_t i, const Mat& logits, Mat* dlogits) -> double {
    return nn::SoftmaxCrossEntropy(logits, {train[i].label}, dlogits);
  };
  return FineTuneEncoder(options_, services_, variant, task);
}

ClassificationMetrics ItemClassificationTask::Run(PkgmVariant variant) const {
  TrainedEncoder trained = Train(variant);

  ClassificationMetrics metrics;
  metrics.train_loss = trained.train_loss;

  // Evaluation helper: class logits for one sample.
  auto predict = [&](const data::ClassificationSample& sample) {
    const text::EncodedInput input = EncodeClassificationSample(
        sample, trained.tokenizer, services_, variant, trained.config.max_len);
    Mat logits;
    trained.Logits(input, &logits);
    return logits;
  };

  // Hit@k on test (rank of the correct label among all classes, §III-B4).
  std::vector<double> ranks;
  for (const auto& sample : dataset_->test) {
    const Mat logits = predict(sample);
    std::vector<float> others(logits.Row(0),
                              logits.Row(0) + dataset_->num_classes);
    others.erase(others.begin() + sample.label);
    ranks.push_back(RankAmong(logits(0, sample.label), others));
  }
  metrics.hits = HitsAtK(ranks);

  // Accuracy on dev (the paper's AC column).
  uint64_t correct = 0;
  for (const auto& sample : dataset_->dev) {
    Mat logits = predict(sample);
    const float* row = logits.Row(0);
    uint32_t best = 0;
    for (uint32_t j = 1; j < dataset_->num_classes; ++j) {
      if (row[j] > row[best]) best = j;
    }
    if (best == sample.label) ++correct;
  }
  metrics.accuracy = dataset_->dev.empty()
                         ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(dataset_->dev.size());
  return metrics;
}

}  // namespace pkgm::tasks
