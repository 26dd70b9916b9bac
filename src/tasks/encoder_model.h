#ifndef PKGM_TASKS_ENCODER_MODEL_H_
#define PKGM_TASKS_ENCODER_MODEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "core/service.h"
#include "nn/linear.h"
#include "tasks/variant.h"
#include "text/tiny_bert.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace pkgm::tasks {

/// The downstream model of item classification and item alignment (paper
/// §III-B/C, Figs. 4-5): TinyBERT reads the title (or the title pair) with
/// the service vectors injected as tokens, and a linear head over [CLS]
/// returns `num_outputs` logits: the class count, or 1 for the pair scorer
/// (> 0 means "same product"). Logits is the one forward of fine-tuning,
/// offline evaluation and serving. It caches activations, so concurrent
/// callers must serialize on the model.
struct TrainedEncoder {
  TrainedEncoder() = default;
  /// Fresh weights: the TinyBERT of `config` and a `num_outputs`-wide head
  /// named `head_name` drawn from `head_rng`; the tokenizer is left empty.
  TrainedEncoder(const text::TinyBertConfig& config, uint32_t num_outputs,
                 const char* head_name, Rng* head_rng);

  text::TinyBertConfig config;
  text::Tokenizer tokenizer;
  std::unique_ptr<text::TinyBert> bert;
  std::unique_ptr<nn::Linear> head;
  uint32_t num_outputs = 0;
  double train_loss = 0.0;

  /// Writes the 1 x num_outputs logits of `input`.
  void Logits(const text::EncodedInput& input, Mat* logits);
  /// Backprop of `dlogits` through head and encoder; follows the Logits
  /// call on the same input.
  void Backward(const text::EncodedInput& input, const Mat& dlogits);
  /// The encoder's parameters, then the head's W and b.
  std::vector<nn::Parameter*> Params();

 private:
  Mat cls_;  // the head's input: [CLS] of the last Logits, 1 x dim
};

/// Parameter-name prefixes of the classifier's and the pair scorer's heads
/// (their `.W` and `.b`, as `.pkgi` PARM records name them).
inline constexpr char kClassifierHeadName[] = "cls.head";
inline constexpr char kAlignerHeadName[] = "align.head";

/// The fine-tuning options classify and align share; each task's options
/// struct derives from it and sets its own defaults.
struct EncoderTaskOptions {
  uint32_t max_len = 0;
  uint32_t bert_layers = 2;
  uint32_t bert_heads = 4;
  uint32_t bert_ff = 128;
  uint32_t epochs = 0;
  uint32_t batch_size = 16;
  float learning_rate = 1e-3f;
  /// If > 0, MLM-pretrain the encoder on the training titles for this many
  /// epochs before fine-tuning ("pre-trained language model" substitution).
  uint32_t mlm_pretrain_epochs = 0;
  uint64_t seed = 0;
};

/// What one task brings to the shared fine-tune; the tokenizer build, the
/// MLM pass, the head, Adam and the shuffled mini-batch loop are common.
struct EncoderFineTune {
  std::vector<std::string_view> vocab_lines;  // tokenizer corpus, in order
  size_t num_train = 0;                       // training samples
  /// Encoder input of training sample i; the kBase inputs are the MLM
  /// corpus.
  std::function<text::EncodedInput(const text::Tokenizer&, size_t,
                                   PkgmVariant)>
      encode;
  uint32_t num_outputs = 0;
  const char* head_name = "";
  /// Loss of training sample i at `logits`; writes its gradient.
  std::function<double(size_t, const Mat& logits, Mat* dlogits)> loss;
};

/// Trains a fresh encoder model for the variant: tokenizer, optional MLM
/// pass, then fine-tuning of encoder and head. The encoder dimension is
/// `services->dim()` (service vectors are injected as token embeddings),
/// or 64 without a provider, which only kBase allows. Deterministic given
/// options.seed.
TrainedEncoder FineTuneEncoder(const EncoderTaskOptions& options,
                               const core::ServiceVectorProvider* services,
                               PkgmVariant variant,
                               const EncoderFineTune& task);

/// 1-based rank of `target` among `competitors` (higher is better), ties
/// counted half: the Hit@k rank of Tables IV and VI.
double RankAmong(float target, const std::vector<float>& competitors);

/// Hit@1/3/10: the share of `ranks` at or below each k (0 when empty).
std::map<int, double> HitsAtK(const std::vector<double>& ranks);

}  // namespace pkgm::tasks

#endif  // PKGM_TASKS_ENCODER_MODEL_H_
