#ifndef PKGM_TASKS_ITEM_ALIGNMENT_H_
#define PKGM_TASKS_ITEM_ALIGNMENT_H_

#include <map>

#include "core/service.h"
#include "data/alignment_dataset.h"
#include "tasks/encoder_model.h"
#include "tasks/variant.h"
#include "text/tiny_bert.h"
#include "text/tokenizer.h"

namespace pkgm::tasks {

/// Builds the pair input. Base: [CLS] a [SEP] b [SEP] with segments 0/1.
/// PKGM variants additionally inject each side's service vectors right
/// after that side's [SEP] (Fig. 5), shrinking the title budget so the
/// whole input still fits max_len. Shared by offline evaluation and online
/// serving, so the two paths construct bit-identical encoder inputs.
text::EncodedInput EncodeAlignmentPair(
    const data::AlignmentPair& pair, const text::Tokenizer& tok,
    const core::ServiceVectorProvider* services, PkgmVariant variant,
    size_t max_len);

/// Metrics for Tables VI (Hit@k over 100 candidates) and VII (accuracy).
struct AlignmentMetrics {
  std::map<int, double> hits;  ///< Hit@1/3/10 on the ranking test split
  double accuracy = 0.0;       ///< binary accuracy on the classification split
  double train_loss = 0.0;
};

/// Item alignment / same-product identification (paper §III-C): a BERT
/// pair-encoder classifies whether two titles describe the same product.
/// PKGM variants append each item's service vectors after its title's [SEP]
/// (Fig. 5), 4k injected vectors total for PKGM-all.
struct ItemAlignmentOptions : EncoderTaskOptions {
  ItemAlignmentOptions() {
    max_len = 48;
    epochs = 2;
    mlm_pretrain_epochs = 0;
    seed = 419;
  }
};

class ItemAlignmentTask {
 public:
  /// `dataset` is one category's dataset; pointers must outlive the task.
  ItemAlignmentTask(const data::AlignmentDataset* dataset,
                    const core::ServiceVectorProvider* services,
                    const ItemAlignmentOptions& options);

  /// Trains a fresh pair model for the variant and evaluates it.
  AlignmentMetrics Run(PkgmVariant variant) const;

  /// Trains the same pair model Run() would (identical seeds and
  /// arithmetic) and returns it for serving instead of evaluating: an
  /// encoder model with one logit (> 0 means "same product").
  TrainedEncoder Train(PkgmVariant variant) const;

 private:
  const data::AlignmentDataset* dataset_;
  const core::ServiceVectorProvider* services_;
  ItemAlignmentOptions options_;
};

}  // namespace pkgm::tasks

#endif  // PKGM_TASKS_ITEM_ALIGNMENT_H_
