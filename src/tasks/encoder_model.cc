#include "tasks/encoder_model.h"

#include <utility>

#include "nn/optimizer.h"
#include "text/mlm.h"
#include "util/logging.h"

namespace pkgm::tasks {

TrainedEncoder::TrainedEncoder(const text::TinyBertConfig& config,
                               uint32_t num_outputs, const char* head_name,
                               Rng* head_rng)
    : config(config),
      bert(std::make_unique<text::TinyBert>(config)),
      head(std::make_unique<nn::Linear>(config.dim, num_outputs, head_rng,
                                        head_name)),
      num_outputs(num_outputs) {}

void TrainedEncoder::Logits(const text::EncodedInput& input, Mat* logits) {
  Vec cls;
  bert->EncodeCls(input, &cls);
  cls_ = Mat(1, config.dim);
  for (uint32_t j = 0; j < config.dim; ++j) cls_(0, j) = cls[j];
  head->Forward(cls_, logits);
}

void TrainedEncoder::Backward(const text::EncodedInput& input,
                              const Mat& dlogits) {
  Mat dcls_mat;
  head->Backward(cls_, dlogits, &dcls_mat);
  Vec dcls(config.dim);
  for (uint32_t j = 0; j < config.dim; ++j) dcls[j] = dcls_mat(0, j);
  bert->BackwardFromCls(input, dcls);
}

std::vector<nn::Parameter*> TrainedEncoder::Params() {
  std::vector<nn::Parameter*> params = bert->Params();
  head->Params(&params);
  return params;
}

TrainedEncoder FineTuneEncoder(const EncoderTaskOptions& options,
                               const core::ServiceVectorProvider* services,
                               PkgmVariant variant,
                               const EncoderFineTune& task) {
  PKGM_CHECK(variant == PkgmVariant::kBase || services != nullptr);
  Rng rng(options.seed);

  // Tokenizer vocabulary from the training titles.
  text::Tokenizer tok;
  for (std::string_view line : task.vocab_lines) tok.CountCorpusLine(line);
  tok.BuildVocab(1);

  text::TinyBertConfig cfg;
  cfg.vocab_size = tok.vocab_size();
  cfg.dim = services != nullptr ? services->dim() : 64;
  cfg.layers = options.bert_layers;
  cfg.heads = options.bert_heads;
  cfg.ff_dim = options.bert_ff;
  cfg.max_len = options.max_len;
  cfg.seed = options.seed + 1;
  // The head over [CLS] (Eq. 10) draws from its own stream, so building it
  // before the MLM pass changes no bit.
  Rng head_rng(options.seed + 3);
  TrainedEncoder trained(cfg, task.num_outputs, task.head_name, &head_rng);
  trained.tokenizer = std::move(tok);

  // "Pre-trained language model": MLM on the training titles.
  if (options.mlm_pretrain_epochs > 0) {
    std::vector<text::EncodedInput> corpus;
    corpus.reserve(task.num_train);
    for (size_t i = 0; i < task.num_train; ++i) {
      corpus.push_back(task.encode(trained.tokenizer, i, PkgmVariant::kBase));
    }
    text::MlmOptions mlm_opt;
    mlm_opt.epochs = options.mlm_pretrain_epochs;
    mlm_opt.seed = options.seed + 2;
    text::MlmPretrainer(trained.bert.get(), mlm_opt).Pretrain(corpus);
  }

  nn::AdamOptimizer::Options adam;
  adam.lr = options.learning_rate;
  nn::AdamOptimizer optimizer(trained.Params(), adam);

  std::vector<size_t> order(task.num_train);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (uint32_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    double loss_sum = 0.0;
    uint32_t since_step = 0;
    for (size_t idx : order) {
      const text::EncodedInput input =
          task.encode(trained.tokenizer, idx, variant);
      Mat logits;
      trained.Logits(input, &logits);
      Mat dlogits;
      loss_sum += task.loss(idx, logits, &dlogits);
      trained.Backward(input, dlogits);

      if (++since_step >= options.batch_size) {
        optimizer.Step();
        since_step = 0;
      }
    }
    if (since_step > 0) optimizer.Step();
    trained.train_loss = order.empty() ? 0.0 : loss_sum / order.size();
  }
  return trained;
}

double RankAmong(float target, const std::vector<float>& competitors) {
  uint64_t higher = 0, ties = 0;
  for (float s : competitors) {
    if (s > target) {
      ++higher;
    } else if (s == target) {
      ++ties;
    }
  }
  return 1.0 + static_cast<double>(higher) + static_cast<double>(ties) / 2.0;
}

std::map<int, double> HitsAtK(const std::vector<double>& ranks) {
  std::map<int, double> hits;
  for (int k : {1, 3, 10}) {
    double within = 0.0;
    for (double rank : ranks) {
      if (rank <= k) within += 1.0;
    }
    hits[k] = ranks.empty() ? 0.0 : within / ranks.size();
  }
  return hits;
}

}  // namespace pkgm::tasks
