#ifndef PKGM_TASKS_ITEM_CLASSIFICATION_H_
#define PKGM_TASKS_ITEM_CLASSIFICATION_H_

#include <map>

#include "core/service.h"
#include "data/classification_dataset.h"
#include "tasks/encoder_model.h"
#include "tasks/variant.h"
#include "text/tiny_bert.h"
#include "text/tokenizer.h"

namespace pkgm::tasks {

/// Builds the encoder input for one sample. Base: [CLS] title [SEP].
/// PKGM variants: the title is truncated so that the k (or 2k) service
/// vectors fit inside max_len, then the vectors are injected after [SEP] —
/// the paper's "replace the last k title embeddings with service vectors"
/// (Fig. 4). Shared by offline evaluation and online serving, so the two
/// paths construct bit-identical encoder inputs.
text::EncodedInput EncodeClassificationSample(
    const data::ClassificationSample& sample, const text::Tokenizer& tok,
    const core::ServiceVectorProvider* services, PkgmVariant variant,
    size_t max_len);

/// Metrics reported in Table IV: Hit@k over the class ranking plus
/// prediction accuracy (AC, computed on the dev split as in the paper).
struct ClassificationMetrics {
  std::map<int, double> hits;  ///< Hit@1/3/10 on the test split
  double accuracy = 0.0;       ///< argmax accuracy on the dev split
  double train_loss = 0.0;     ///< final-epoch mean cross-entropy
};

/// Item classification (paper §III-B): classify an item's title into its
/// category with a BERT-style encoder; PKGM variants replace the trailing
/// title tokens with service vectors (Fig. 4).
struct ItemClassificationOptions : EncoderTaskOptions {
  ItemClassificationOptions() {
    max_len = 32;
    epochs = 3;  // paper: 3 fine-tuning epochs
    mlm_pretrain_epochs = 1;
    seed = 401;
  }
};

/// Runs one full train + evaluate cycle for a variant. `services` sets the
/// encoder dimension (FineTuneEncoder); pass it always in practice.
class ItemClassificationTask {
 public:
  /// All pointers must outlive the task. `services` must be item-index
  /// aligned with `dataset`'s item indexes.
  ItemClassificationTask(const data::ClassificationDataset* dataset,
                         const core::ServiceVectorProvider* services,
                         const ItemClassificationOptions& options);

  /// Trains a fresh TinyBert + classifier for the variant and returns its
  /// metrics. Deterministic given options.seed.
  ClassificationMetrics Run(PkgmVariant variant) const;

  /// Trains the same classifier Run() would (identical seeds and
  /// arithmetic) and returns it for serving instead of evaluating: an
  /// encoder model with one logit per class.
  TrainedEncoder Train(PkgmVariant variant) const;

 private:
  const data::ClassificationDataset* dataset_;
  const core::ServiceVectorProvider* services_;
  ItemClassificationOptions options_;
};

}  // namespace pkgm::tasks

#endif  // PKGM_TASKS_ITEM_CLASSIFICATION_H_
