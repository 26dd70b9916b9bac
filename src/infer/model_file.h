#ifndef PKGM_INFER_MODEL_FILE_H_
#define PKGM_INFER_MODEL_FILE_H_

#include <cstdint>
#include <string>

#include "tasks/encoder_model.h"
#include "tasks/recommendation.h"
#include "tasks/variant.h"
#include "util/section_file.h"
#include "util/status.h"

namespace pkgm::infer {

/// Which downstream model a .pkgi file carries. Values are stable on disk.
enum class InferTask : uint32_t { kRecommend = 1, kClassify = 2, kAlign = 3 };

inline const char* InferTaskName(InferTask task) {
  switch (task) {
    case InferTask::kRecommend: return "recommend";
    case InferTask::kClassify: return "classify";
    case InferTask::kAlign: return "align";
  }
  return "unknown";
}

// "PKGI" — distinct from the embedding-store magic "PKGS" and the triple
// index magic "PKGT", so the on-disk formats can never be confused for one
// another.
constexpr uint32_t kInferModelMagic = 0x49474b50u;
constexpr uint32_t kInferModelVersion = 2;

/// A .pkgi downstream-model file is a util/section_file.h container with
/// these sections, in order (DESIGN.md §16):
///   META  InferModelMeta
///   CONF  task-specific hyper-parameters including every training seed,
///         so the loader can reconstruct the exact model shapes by
///         invoking the normal constructors;
///   VOCB  (classify/align only) u32 count then count length-prefixed
///         token names — the tokenizer's full id-ordered list including
///         the 5 special tokens;
///   PARM  u32 count then count records of
///         {u32 name_len, name, u32 rows, u32 cols, rows*cols f32},
///         one per trainable parameter, plus (recommend only) the fixed
///         per-item condensed feature matrix as record "item_features".
/// Every section carries its CRC32C, so any bit flip in the weights is
/// detected at load time.
constexpr uint32_t kConfigSection = SectionTag("CONF");
constexpr uint32_t kVocabSection = SectionTag("VOCB");
constexpr uint32_t kParamsSection = SectionTag("PARM");

/// The META section of a .pkgi file (little-endian, 16 bytes).
struct InferModelMeta {
  uint32_t task = 0;     // InferTask
  uint32_t variant = 0;  // tasks::PkgmVariant
  uint64_t generation = 0;
};
static_assert(sizeof(InferModelMeta) == 16,
              "InferModelMeta must be packed to 16B");

/// Serializers for the two model kinds. `generation` is recorded in META
/// (and reported by inspect) so a refresher pipeline can tag exports
/// monotonically. An encoder model is saved as `task` kClassify (CONF
/// ends with num_classes) or kAlign (a 1-wide head); the task also names
/// the head its PARM records carry.
Status SaveRecommenderModel(const tasks::TrainedRecommender& model,
                            tasks::PkgmVariant variant, uint64_t generation,
                            const std::string& path);
Status SaveEncoderModel(const tasks::TrainedEncoder& model, InferTask task,
                        tasks::PkgmVariant variant, uint64_t generation,
                        const std::string& path);

/// A deserialized .pkgi: `recommender` for kRecommend, `encoder` for
/// kClassify and kAlign. Move-only (the bundles own their models).
struct LoadedInferModel {
  InferTask task = InferTask::kRecommend;
  tasks::PkgmVariant variant = tasks::PkgmVariant::kBase;
  uint64_t generation = 0;
  uint64_t file_bytes = 0;
  tasks::TrainedRecommender recommender;
  tasks::TrainedEncoder encoder;
};

/// Maps, checksums and reconstructs a .pkgi model: the config section
/// rebuilds the model through its normal constructor (seeds reproduce the
/// shapes), then every parameter is overwritten by name with shape checks.
/// Loaded weights are bit-identical to the saved ones. An encoder config
/// the task's input builder cannot serve (align below max_len 5 or 2
/// segments, classify below 1 segment) is Corruption.
StatusOr<LoadedInferModel> LoadInferModel(const std::string& path);

/// One-line JSON summary of a .pkgi file (META, config, param count and
/// weights), rendered from LoadInferModel's result.
StatusOr<std::string> InspectInferModel(const std::string& path);

}  // namespace pkgm::infer

#endif  // PKGM_INFER_MODEL_FILE_H_
