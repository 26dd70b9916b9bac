// End-to-end tests for the downstream-inference subsystem (src/infer/):
// .pkgi round-trips, and the core acceptance property — recommend /
// classify / align answers served through KnowledgeServer + the wire
// protocol are bit-identical (fp32 backend) to the offline task-layer
// forwards, and stay that way across per-task weight hot swaps under
// load. An int8 mmap embedding backend must agree to cosine >= 0.9999.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/service.h"
#include "flat_json.h"
#include "infer/engine.h"
#include "infer/model_file.h"
#include "infer/pipeline.h"
#include "infer/registry.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/serving_handler.h"
#include "nn/activations.h"
#include "serve/knowledge_server.h"
#include "serve/request.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "store/model_registry.h"
#include "tasks/item_alignment.h"
#include "tasks/item_classification.h"
#include "tasks/pipeline.h"
#include "tasks/variant.h"
#include "mutation.h"
#include "tensor/ops.h"
#include "util/rng.h"
#include "util/section_file.h"

namespace pkgm::infer {
namespace {

using serve::ResponseCode;
using serve::ServiceRequest;
using serve::ServiceResponse;
using serve::TaskKind;

// Serving-scale pipeline (the pkgm_netd configuration): big enough that
// every dataset the infer pipeline builds is non-empty, small enough to
// train in seconds under sanitizers.
tasks::PipelineOptions TestPipelineOptions(uint64_t seed) {
  tasks::PipelineOptions opt;
  opt.pkg.seed = seed;
  opt.pkg.num_categories = 8;
  opt.pkg.items_per_category = 125;
  opt.dim = 32;
  opt.pretrain_epochs = 3;
  opt.service_k = 10;
  opt.seed = seed;
  return opt;
}

// One pre-training + two identical downstream-training runs: bundle A is
// published for serving, bundle B stays offline as the independent
// expectation. Training is fully seeded, so A and B are bit-identical —
// which the fp32 parity tests implicitly verify.
struct InferFixture {
  InferFixture() {
    pkgm = tasks::BuildAndPretrain(TestPipelineOptions(/*seed=*/2021));
    InferPipelineOptions iopt;
    iopt.seed = 97;
    served = TrainInferModels(pkgm, iopt);
    offline = TrainInferModels(pkgm, iopt);
  }

  tasks::PretrainedPkgm pkgm;
  InferBundle served;
  InferBundle offline;
};

InferFixture& Fixture() {
  static InferFixture* fx = new InferFixture();
  return *fx;
}

// ---- Offline expectation paths (independent of InferenceEngine) ----

// The task models cache per-batch activations inside Forward (which is
// why InferenceEngine serializes batches on a per-generation mutex), so
// the offline oracles must serialize too when tests drive them from
// concurrent threads.
std::mutex& OfflineForwardMutex() {
  static std::mutex mu;
  return mu;
}

float OfflineRecommend(const tasks::TrainedRecommender& m,
                       const core::ServiceVectorProvider& services,
                       core::ServiceMode mode, uint32_t user, uint32_t item) {
  std::lock_guard<std::mutex> lock(OfflineForwardMutex());
  std::vector<uint32_t> users{user}, items{item};
  Mat pkgm_features;
  const Mat* features = nullptr;
  if (m.config.pkgm_dim > 0) {
    pkgm_features = Mat(1, m.config.pkgm_dim);
    const Vec s = services.Condensed(item, mode);
    for (uint32_t j = 0; j < m.config.pkgm_dim; ++j) pkgm_features(0, j) = s[j];
    features = &pkgm_features;
  }
  Mat logits;
  m.model->Forward(users, items, features, &logits);
  return nn::SigmoidScalar(logits(0, 0));
}

void OfflineClassify(const tasks::TrainedEncoder& m,
                     const core::ServiceVectorProvider* services,
                     tasks::PkgmVariant variant, const std::string& title,
                     uint32_t item, uint32_t top_k,
                     std::vector<uint32_t>* class_ids,
                     std::vector<float>* class_probs) {
  std::lock_guard<std::mutex> lock(OfflineForwardMutex());
  data::ClassificationSample sample;
  sample.item_index = item;
  sample.title = title;
  text::EncodedInput input = tasks::EncodeClassificationSample(
      sample, m.tokenizer, services, variant, m.config.max_len);
  Vec cls;
  m.bert->EncodeCls(input, &cls);
  Mat cls_mat(1, m.config.dim);
  for (uint32_t j = 0; j < m.config.dim; ++j) cls_mat(0, j) = cls[j];
  Mat logits;
  m.head->Forward(cls_mat, &logits);
  std::vector<float> probs(logits.Row(0), logits.Row(0) + m.num_outputs);
  SoftmaxInplace(m.num_outputs, probs.data());
  const uint32_t k = std::min(top_k == 0 ? 1u : top_k, m.num_outputs);
  std::vector<uint32_t> order(m.num_outputs);
  for (uint32_t j = 0; j < m.num_outputs; ++j) order[j] = j;
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (probs[a] != probs[b]) return probs[a] > probs[b];
                      return a < b;
                    });
  class_ids->assign(order.begin(), order.begin() + k);
  class_probs->clear();
  for (uint32_t j = 0; j < k; ++j) class_probs->push_back(probs[order[j]]);
}

float OfflineAlign(const tasks::TrainedEncoder& m,
                   const core::ServiceVectorProvider* services,
                   tasks::PkgmVariant variant, const std::string& title_a,
                   const std::string& title_b, uint32_t item_a,
                   uint32_t item_b) {
  std::lock_guard<std::mutex> lock(OfflineForwardMutex());
  data::AlignmentPair pair;
  pair.item_a = item_a;
  pair.item_b = item_b;
  pair.title_a = title_a;
  pair.title_b = title_b;
  text::EncodedInput input = tasks::EncodeAlignmentPair(
      pair, m.tokenizer, services, variant, m.config.max_len);
  Vec cls;
  m.bert->EncodeCls(input, &cls);
  Mat cls_mat(1, m.config.dim);
  for (uint32_t j = 0; j < m.config.dim; ++j) cls_mat(0, j) = cls[j];
  Mat logits;
  m.head->Forward(cls_mat, &logits);
  return logits(0, 0);
}

// Deterministic mixed request stream over the fixture's item/user space.
std::vector<ServiceRequest> MakeMixedRequests(const InferFixture& fx,
                                              size_t count, uint64_t seed) {
  const uint32_t num_items =
      static_cast<uint32_t>(fx.served.titles.size());
  std::vector<ServiceRequest> requests(count);
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    ServiceRequest& r = requests[i];
    r.item = static_cast<uint32_t>(rng.Uniform(num_items));
    switch (i % 3) {
      case 0:
        r.task = TaskKind::kRecommend;
        r.user = static_cast<uint32_t>(rng.Uniform(fx.served.num_users));
        break;
      case 1:
        r.task = TaskKind::kClassify;
        r.top_k = 3;
        break;
      default:
        r.task = TaskKind::kAlign;
        r.item_b = static_cast<uint32_t>(rng.Uniform(num_items));
        break;
    }
  }
  return requests;
}

// Checks one served response against the offline bundle, exactly (fp32).
void ExpectExactParity(const InferFixture& fx, const ServiceRequest& request,
                       const ServiceResponse& response) {
  ASSERT_EQ(response.code, ResponseCode::kOk)
      << "task " << TaskKindName(request.task) << " item " << request.item;
  const core::ServiceVectorProvider& services = *fx.pkgm.services;
  const tasks::PkgmVariant variant = fx.offline.variant;
  switch (request.task) {
    case TaskKind::kRecommend: {
      const float expected = OfflineRecommend(
          fx.offline.recommender, services,
          tasks::VariantServiceMode(variant), request.user, request.item);
      EXPECT_EQ(response.score, expected);
      break;
    }
    case TaskKind::kClassify: {
      std::vector<uint32_t> ids;
      std::vector<float> probs;
      OfflineClassify(fx.offline.classifier, &services, variant,
                      fx.offline.titles[request.item], request.item,
                      request.top_k, &ids, &probs);
      EXPECT_EQ(response.class_ids, ids);
      EXPECT_EQ(response.class_probs, probs);
      break;
    }
    case TaskKind::kAlign: {
      const float expected = OfflineAlign(
          fx.offline.aligner, &services, variant,
          fx.offline.titles[request.item], fx.offline.titles[request.item_b],
          request.item, request.item_b);
      EXPECT_EQ(response.score, expected);
      break;
    }
    case TaskKind::kLookup:
      FAIL() << "lookup in an inference parity stream";
  }
}

// ---- InferModelRegistry ----

TEST(InferRegistryTest, GenerationsAreMonotonicAndPerTask) {
  InferFixture& fx = Fixture();
  InferModelRegistry registry;
  EXPECT_EQ(registry.recommender(), nullptr);
  EXPECT_EQ(registry.classifier(), nullptr);
  EXPECT_EQ(registry.aligner(), nullptr);

  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle a = TrainInferModels(fx.pkgm, iopt);
  InferBundle b = TrainInferModels(fx.pkgm, iopt);
  EXPECT_EQ(registry.PublishRecommender(std::move(a.recommender), a.variant),
            1u);
  EXPECT_EQ(registry.PublishRecommender(std::move(b.recommender), b.variant),
            2u);
  // The classifier slot has its own counter; swapping one task never
  // advances another.
  EXPECT_EQ(registry.PublishClassifier(std::move(a.classifier), a.variant),
            1u);
  ASSERT_NE(registry.recommender(), nullptr);
  EXPECT_EQ(registry.recommender()->generation, 2u);
  EXPECT_EQ(registry.classifier()->generation, 1u);
  EXPECT_EQ(registry.aligner(), nullptr);
}

// ---- Engine edge cases (no model / invalid operands) ----

TEST(InferenceEngineTest, NoPublishedModelShedsBatch) {
  InferFixture& fx = Fixture();
  InferModelRegistry empty;
  InferenceEngine engine(&empty, fx.pkgm.services.get(), fx.served.titles);
  ServiceRequest request;
  request.task = TaskKind::kRecommend;
  std::vector<const ServiceRequest*> batch{&request};
  std::vector<ServiceResponse> responses(1);
  engine.ExecuteBatch(TaskKind::kRecommend, batch, &responses);
  EXPECT_EQ(responses[0].code, ResponseCode::kRejected);
}

TEST(InferenceEngineTest, InvalidOperandsAnsweredPerRequest) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  InferModelRegistry registry;
  registry.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  InferenceEngine engine(&registry, fx.pkgm.services.get(), fx.served.titles);

  ServiceRequest bad_user;
  bad_user.task = TaskKind::kRecommend;
  bad_user.user = fx.served.num_users + 7;
  ServiceRequest bad_item;
  bad_item.task = TaskKind::kRecommend;
  bad_item.item = 1u << 20;
  ServiceRequest good;
  good.task = TaskKind::kRecommend;
  good.user = 0;
  good.item = 1;
  std::vector<const ServiceRequest*> batch{&bad_user, &good, &bad_item};
  std::vector<ServiceResponse> responses(3);
  engine.ExecuteBatch(TaskKind::kRecommend, batch, &responses);
  EXPECT_EQ(responses[0].code, ResponseCode::kInvalidItem);
  EXPECT_EQ(responses[1].code, ResponseCode::kOk);
  EXPECT_EQ(responses[2].code, ResponseCode::kInvalidItem);
  // The invalid neighbors must not perturb the valid row.
  EXPECT_EQ(responses[1].score,
            OfflineRecommend(fx.offline.recommender, *fx.pkgm.services,
                             tasks::VariantServiceMode(fx.offline.variant),
                             good.user, good.item));
}

// ---- .pkgi round-trips ----

TEST(InferModelFileTest, RoundTripPreservesForwardsBitExactly) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  // Per-process names: concurrent invocations of this binary must not
  // tear each other's files.
  const std::string dir = ::testing::TempDir();
  const std::string tag = std::to_string(::getpid());
  const std::string rec_path = dir + "/round." + tag + ".recommend.pkgi";
  const std::string cls_path = dir + "/round." + tag + ".classify.pkgi";
  const std::string aln_path = dir + "/round." + tag + ".align.pkgi";
  ASSERT_TRUE(SaveRecommenderModel(bundle.recommender, bundle.variant,
                                   /*generation=*/7, rec_path)
                  .ok());
  ASSERT_TRUE(SaveEncoderModel(bundle.classifier, InferTask::kClassify,
                               bundle.variant, /*generation=*/7, cls_path)
                  .ok());
  ASSERT_TRUE(SaveEncoderModel(bundle.aligner, InferTask::kAlign,
                               bundle.variant, /*generation=*/7, aln_path)
                  .ok());

  auto rec = LoadInferModel(rec_path);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().task, InferTask::kRecommend);
  EXPECT_EQ(rec.value().generation, 7u);
  EXPECT_EQ(rec.value().variant, bundle.variant);
  auto cls = LoadInferModel(cls_path);
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  auto aln = LoadInferModel(aln_path);
  ASSERT_TRUE(aln.ok()) << aln.status().ToString();

  // Loaded weights must reproduce every forward bit for bit.
  const core::ServiceVectorProvider& services = *fx.pkgm.services;
  const core::ServiceMode mode = tasks::VariantServiceMode(bundle.variant);
  for (uint32_t item : {0u, 17u, 500u, 999u}) {
    EXPECT_EQ(OfflineRecommend(rec.value().recommender, services, mode,
                               item % bundle.num_users, item),
              OfflineRecommend(bundle.recommender, services, mode,
                               item % bundle.num_users, item));
    std::vector<uint32_t> ids_a, ids_b;
    std::vector<float> probs_a, probs_b;
    OfflineClassify(cls.value().encoder, &services, bundle.variant,
                    bundle.titles[item], item, 3, &ids_a, &probs_a);
    OfflineClassify(bundle.classifier, &services, bundle.variant,
                    bundle.titles[item], item, 3, &ids_b, &probs_b);
    EXPECT_EQ(ids_a, ids_b);
    EXPECT_EQ(probs_a, probs_b);
    EXPECT_EQ(OfflineAlign(aln.value().encoder, &services, bundle.variant,
                           bundle.titles[item], bundle.titles[999 - item],
                           item, 999 - item),
              OfflineAlign(bundle.aligner, &services, bundle.variant,
                           bundle.titles[item], bundle.titles[999 - item],
                           item, 999 - item));
  }

  auto inspected = InspectInferModel(cls_path);
  ASSERT_TRUE(inspected.ok());
  const std::optional<FlatJson> doc = FlatJson::Parse(inspected.value());
  ASSERT_TRUE(doc.has_value()) << inspected.value();
  EXPECT_EQ(doc->Str("task"), "classify");
}

// The inspection is JSON whatever the path holds: a quote and a backslash
// in it are escaped, and the path reads back as written.
TEST(InferModelFileTest, InspectionEscapesThePath) {
  InferFixture& fx = Fixture();
  const std::string path = ::testing::TempDir() + "/a\"b\\c." +
                           std::to_string(::getpid()) + ".classify.pkgi";
  ASSERT_TRUE(SaveEncoderModel(fx.offline.classifier, InferTask::kClassify,
                               fx.offline.variant, /*generation=*/3, path)
                  .ok());
  auto inspected = InspectInferModel(path);
  ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
  const std::optional<FlatJson> doc = FlatJson::Parse(inspected.value());
  ASSERT_TRUE(doc.has_value()) << inspected.value();
  EXPECT_EQ(doc->Str("path"), path);
  EXPECT_EQ(doc->Str("task"), "classify");
  EXPECT_EQ(doc->Num("generation"), 3);
  std::remove(path.c_str());
}

TEST(InferModelFileTest, CorruptionIsRejected) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  const std::string path = ::testing::TempDir() + "/corrupt.align.pkgi";
  ASSERT_TRUE(SaveEncoderModel(bundle.aligner, InferTask::kAlign,
                               bundle.variant, 1, path)
                  .ok());

  // Flip one weight byte: the checksum must catch it.
  std::string bytes = ReadFileBytes(path);
  {
    auto file = SectionFile::Open(path, kInferModelMagic, kInferModelVersion,
                                  /*verify_checksum=*/false);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const SectionEntry* params = file.value().Find(kParamsSection);
    ASSERT_NE(params, nullptr);
    bytes[params->offset + 123] ^= 0x40;
  }
  ASSERT_TRUE(WriteFileBytes(path, bytes));
  EXPECT_FALSE(LoadInferModel(path).ok());
  EXPECT_FALSE(InspectInferModel(path).ok());
  EXPECT_FALSE(LoadInferModel(path + ".does-not-exist").ok());
}

// An encoder config its task's input builder cannot serve is refused at
// load, naming the field, where it used to load and then abort on its first
// request. Each floor itself loads.
TEST(InferModelFileTest, UnservableEncoderConfigIsRejected) {
  struct Case {
    InferTask task;
    uint32_t max_len;
    uint32_t num_segments;
    const char* refused_field;  // null: the config loads
  };
  const Case cases[] = {
      {InferTask::kAlign, 32, 1, "num_segments"},
      {InferTask::kAlign, 4, 2, "max_len"},
      {InferTask::kClassify, 20, 0, "num_segments"},
      {InferTask::kAlign, 5, 2, nullptr},
      {InferTask::kClassify, 3, 1, nullptr},
  };
  const std::string path = ::testing::TempDir() + "/unservable." +
                           std::to_string(::getpid()) + ".pkgi";
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(InferTaskName(c.task)) + " max_len " +
                 std::to_string(c.max_len) + " num_segments " +
                 std::to_string(c.num_segments));
    text::Tokenizer tok;
    tok.CountCorpusLine("red cotton shirt");
    tok.BuildVocab(1);
    text::TinyBertConfig cfg;
    cfg.vocab_size = tok.vocab_size();
    cfg.dim = 8;
    cfg.layers = 1;
    cfg.heads = 2;
    cfg.ff_dim = 16;
    cfg.max_len = c.max_len;
    cfg.num_segments = c.num_segments;
    const bool classify = c.task == InferTask::kClassify;
    Rng head_rng(1);
    tasks::TrainedEncoder model(
        cfg, classify ? 4 : 1,
        classify ? tasks::kClassifierHeadName : tasks::kAlignerHeadName,
        &head_rng);
    model.tokenizer = std::move(tok);
    ASSERT_TRUE(SaveEncoderModel(model, c.task, tasks::PkgmVariant::kBase,
                                 /*generation=*/1, path)
                    .ok());
    auto loaded = LoadInferModel(path);
    if (c.refused_field == nullptr) {
      EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
      continue;
    }
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
    EXPECT_NE(loaded.status().message().find(c.refused_field),
              std::string::npos)
        << loaded.status().message();
  }
  std::remove(path.c_str());
}

// CONF sizes are bounded by the PARM section before the encoder is built
// from them: an align model whose CONF claims max_len 1,000,000 (a
// 1,000,000 x dim bert.pos) is refused naming the field, where the loader
// used to allocate that table and only then refuse its shape.
TEST(InferModelFileTest, ConfigOutgrowingItsParamsIsRefusedBeforeBuilding) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  const std::string path = ::testing::TempDir() + "/outgrown." +
                           std::to_string(::getpid()) + ".align.pkgi";
  ASSERT_TRUE(SaveEncoderModel(bundle.aligner, InferTask::kAlign,
                               bundle.variant, 1, path)
                  .ok());
  ASSERT_TRUE(LoadInferModel(path).ok());
  uint64_t max_len_at = 0;
  {
    auto file = SectionFile::Open(path, kInferModelMagic, kInferModelVersion);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    // CONF: vocab_size, dim, layers, heads, ff_dim, then max_len.
    const SectionEntry& conf = *file.value().Find(kConfigSection);
    max_len_at = conf.offset + 5 * 4;
    uint32_t max_len = 0;
    std::memcpy(&max_len, file.value().data(conf) + 5 * 4, sizeof(max_len));
    ASSERT_EQ(max_len, 32u);
  }
  const uint32_t huge = 1000000;
  ASSERT_TRUE(PatchSealed(path, max_len_at, &huge, sizeof(huge)));
  auto loaded = LoadInferModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find(
                "encoder max_len needs more weights than the"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

TEST(InferModelFileTest, ParentVersionIsRejected) {
  // The version-1 layout: a 48-byte header (magic, version, ...) and one
  // sequential payload. Only the version refuses it.
  std::string parent(4096, '\0');
  const uint32_t magic = kInferModelMagic, version = 1;
  std::memcpy(&parent[0], &magic, sizeof(magic));
  std::memcpy(&parent[4], &version, sizeof(version));
  const std::string path = ::testing::TempDir() + "/v1.align.pkgi";
  ASSERT_TRUE(WriteFileBytes(path, parent));
  auto loaded = LoadInferModel(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("format version 1; this build "
                                           "reads version 2"),
            std::string::npos)
      << loaded.status().message();
  std::remove(path.c_str());
}

// Writes a loaded model back out through the saver of its model kind.
Status SaveLoaded(const LoadedInferModel& m, const std::string& path) {
  if (m.task == InferTask::kRecommend) {
    return SaveRecommenderModel(m.recommender, m.variant, m.generation, path);
  }
  return SaveEncoderModel(m.encoder, m.task, m.variant, m.generation, path);
}

// Every mutant of a .pkgi loads or returns Corruption, never a crash or a
// sanitizer report. Half the mutants get their CRCs re-sealed so the
// mutation reaches the container's entry checks and the config, vocab and
// parameter-record parsers behind them; an accepted mutant must re-write
// to exactly its own bytes.
TEST(MutationTest, InferModelFilesLoadOrFailCleanly) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  const std::string tag = std::to_string(::getpid());
  const std::string path = ::testing::TempDir() + "/mutant." + tag + ".pkgi";
  const std::string rewrite_path =
      ::testing::TempDir() + "/rewrite." + tag + ".pkgi";
  ASSERT_TRUE(SaveEncoderModel(bundle.classifier, InferTask::kClassify,
                               bundle.variant, 1, path)
                  .ok());
  const std::string other = ReadFileBytes(path);
  ASSERT_TRUE(SaveEncoderModel(bundle.aligner, InferTask::kAlign,
                               bundle.variant, 1, path)
                  .ok());
  const std::string input = ReadFileBytes(path);
  const std::vector<size_t> fields = SectionTableFields(input);

  Rng rng(20242);
  size_t accepted = 0;
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    std::string mutant = iter == 0 ? input : Mutate(input, other, fields, &rng);
    if (iter % 2 == 1) ResealSections(&mutant);
    ASSERT_TRUE(WriteFileBytes(path, mutant));
    auto loaded = LoadInferModel(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << loaded.status().ToString();
      continue;
    }
    ++accepted;
    EXPECT_TRUE(InspectInferModel(path).ok());
    ASSERT_TRUE(SaveLoaded(loaded.value(), rewrite_path).ok());
    EXPECT_TRUE(ReadFileBytes(rewrite_path) == mutant)
        << "accepted mutant does not re-encode";
  }
  EXPECT_GT(accepted, 2u);
  std::remove(path.c_str());
  std::remove(rewrite_path.c_str());
}

// ---- End-to-end parity over the wire (fp32, bit-identical) ----

TEST(InferServingTest, WireParityWithOfflineForwardsFp32) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  InferModelRegistry models;
  models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  InferenceEngine engine(&models, fx.pkgm.services.get(), fx.served.titles);

  serve::KnowledgeServer server(fx.pkgm.services.get());
  server.AttachInferExecutor(&engine);
  server.Start();
  net::ServingHandler serving(&server);
  net::NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = net::NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  std::vector<ServiceRequest> requests = MakeMixedRequests(fx, 90, 5);
  // A lookup mixed into the same batch (one frame) must come back unharmed.
  ServiceRequest lookup;
  lookup.item = 3;
  requests.push_back(lookup);
  auto futures = client.value()->SubmitBatch(requests);
  ASSERT_EQ(futures.size(), requests.size());
  for (size_t i = 0; i + 1 < requests.size(); ++i) {
    ExpectExactParity(fx, requests[i], futures[i].get());
  }
  ServiceResponse lookup_response = futures.back().get();
  EXPECT_EQ(lookup_response.code, ResponseCode::kOk);
  EXPECT_EQ(lookup_response.vectors.size(), 1u);

  auto stats = client.value()->ServerStatsJson();
  ASSERT_TRUE(stats.ok());
  const std::optional<FlatJson> doc = FlatJson::Parse(stats.value());
  ASSERT_TRUE(doc.has_value()) << stats.value();
  EXPECT_EQ(doc->Num("net.protocol_errors"), 0) << stats.value();
  net.Stop();
  server.Stop();
}

// ---- int8 mmap embedding backend: cosine >= 0.9999 vs offline fp32 ----

TEST(InferServingTest, Int8StoreScoresCosineCloseToFp32) {
  InferFixture& fx = Fixture();
  const std::string path = ::testing::TempDir() + "/infer_int8.pkgs";
  store::StoreWriterOptions wopt;
  wopt.dtype = store::StoreDtype::kInt8;
  wopt.generation = 1;
  ASSERT_TRUE(
      store::EmbeddingStoreWriter(wopt).Write(*fx.pkgm.model, path).ok());
  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto source =
      std::make_shared<store::MmapEmbeddingStore>(std::move(opened.value()));
  std::vector<kg::EntityId> items;
  std::vector<std::vector<kg::RelationId>> keys;
  for (uint32_t i = 0; i < fx.pkgm.services->num_items(); ++i) {
    items.push_back(fx.pkgm.services->item_entity(i));
    keys.push_back(fx.pkgm.services->key_relations(i));
  }
  auto provider = std::make_shared<core::ServiceVectorProvider>(
      source.get(), std::move(items), std::move(keys));
  store::ModelRegistry registry;
  auto gen = std::make_shared<store::ServingGeneration>();
  gen->source = source;
  gen->provider = provider;
  gen->info.dtype = store::StoreDtype::kInt8;
  registry.Publish(gen->source, gen->provider, gen->info);

  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  InferModelRegistry models;
  models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  InferenceEngine engine(&models, &registry, fx.served.titles);

  std::vector<ServiceRequest> requests = MakeMixedRequests(fx, 90, 11);
  std::vector<float> served_scores, offline_scores;
  for (const ServiceRequest& request : requests) {
    std::vector<const ServiceRequest*> batch{&request};
    std::vector<ServiceResponse> responses(1);
    engine.ExecuteBatch(request.task, batch, &responses);
    ASSERT_EQ(responses[0].code, ResponseCode::kOk);
    const core::ServiceVectorProvider& services = *fx.pkgm.services;
    const tasks::PkgmVariant variant = fx.offline.variant;
    switch (request.task) {
      case TaskKind::kRecommend:
        served_scores.push_back(responses[0].score);
        offline_scores.push_back(OfflineRecommend(
            fx.offline.recommender, services,
            tasks::VariantServiceMode(variant), request.user, request.item));
        break;
      case TaskKind::kClassify: {
        std::vector<uint32_t> ids;
        std::vector<float> probs;
        OfflineClassify(fx.offline.classifier, &services, variant,
                        fx.offline.titles[request.item], request.item,
                        request.top_k, &ids, &probs);
        for (size_t j = 0; j < probs.size(); ++j) {
          served_scores.push_back(responses[0].class_probs[j]);
          offline_scores.push_back(probs[j]);
        }
        break;
      }
      case TaskKind::kAlign:
        served_scores.push_back(responses[0].score);
        offline_scores.push_back(OfflineAlign(
            fx.offline.aligner, &services, variant,
            fx.offline.titles[request.item],
            fx.offline.titles[request.item_b], request.item, request.item_b));
        break;
      case TaskKind::kLookup:
        break;
    }
  }
  ASSERT_GT(served_scores.size(), 100u);
  double dot = 0.0, norm_a = 0.0, norm_b = 0.0;
  for (size_t i = 0; i < served_scores.size(); ++i) {
    dot += static_cast<double>(served_scores[i]) * offline_scores[i];
    norm_a += static_cast<double>(served_scores[i]) * served_scores[i];
    norm_b += static_cast<double>(offline_scores[i]) * offline_scores[i];
  }
  const double cosine = dot / std::sqrt(norm_a * norm_b);
  EXPECT_GE(cosine, 0.9999) << "int8 embedding backend drifted: " << cosine;
}

// ---- Hot swap under load: parity holds, nothing is shed ----

TEST(InferServingTest, ParityAcrossWeightHotSwapUnderLoad) {
  InferFixture& fx = Fixture();
  InferPipelineOptions iopt;
  iopt.seed = 97;
  InferBundle bundle = TrainInferModels(fx.pkgm, iopt);
  InferModelRegistry models;
  models.PublishRecommender(std::move(bundle.recommender), bundle.variant);
  models.PublishClassifier(std::move(bundle.classifier), bundle.variant);
  models.PublishAligner(std::move(bundle.aligner), bundle.variant);
  InferenceEngine engine(&models, fx.pkgm.services.get(), fx.served.titles);

  serve::KnowledgeServer server(fx.pkgm.services.get());
  server.AttachInferExecutor(&engine);
  server.Start();
  net::ServingHandler serving(&server);
  net::NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  net::NetClientOptions copt;
  copt.num_connections = 2;
  auto client = net::NetClient::Connect("127.0.0.1", net.port(), copt);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Swap source: the same weights reloaded from disk (bit-identical), so
  // parity must hold no matter which generation a request lands on.
  const std::string prefix =
      ::testing::TempDir() + "/swap." + std::to_string(::getpid());
  InferBundle swap_source = TrainInferModels(fx.pkgm, iopt);
  ASSERT_TRUE(SaveRecommenderModel(swap_source.recommender,
                                   swap_source.variant, 2,
                                   prefix + ".rec.pkgi")
                  .ok());
  ASSERT_TRUE(SaveEncoderModel(swap_source.classifier, InferTask::kClassify,
                               swap_source.variant, 2, prefix + ".cls.pkgi")
                  .ok());
  ASSERT_TRUE(SaveEncoderModel(swap_source.aligner, InferTask::kAlign,
                               swap_source.variant, 2, prefix + ".aln.pkgi")
                  .ok());

  constexpr int kThreads = 3;
  constexpr int kBatchesPerThread = 20;
  std::atomic<bool> failed{false};
  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      for (int b = 0; b < kBatchesPerThread; ++b) {
        std::vector<ServiceRequest> requests =
            MakeMixedRequests(fx, 12, 1000 + t * 100 + b);
        auto futures = client.value()->SubmitBatch(requests);
        for (size_t i = 0; i < requests.size(); ++i) {
          ServiceResponse response = futures[i].get();
          ExpectExactParity(fx, requests[i], response);
          if (response.code != ResponseCode::kOk) failed = true;
        }
      }
    });
  }
  // Mid-traffic: republish every task once from the reloaded files.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (const char* name : {".rec.pkgi", ".cls.pkgi", ".aln.pkgi"}) {
    auto loaded = LoadInferModel(prefix + name);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    switch (loaded.value().task) {
      case InferTask::kRecommend:
        EXPECT_EQ(models.PublishRecommender(
                      std::move(loaded.value().recommender),
                      loaded.value().variant),
                  2u);
        break;
      case InferTask::kClassify:
        EXPECT_EQ(models.PublishClassifier(
                      std::move(loaded.value().encoder),
                      loaded.value().variant),
                  2u);
        break;
      case InferTask::kAlign:
        EXPECT_EQ(
            models.PublishAligner(std::move(loaded.value().encoder),
                                  loaded.value().variant),
            2u);
        break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& d : drivers) d.join();
  EXPECT_FALSE(failed.load());

  auto stats = client.value()->ServerStatsJson();
  ASSERT_TRUE(stats.ok());
  const std::optional<FlatJson> doc = FlatJson::Parse(stats.value());
  ASSERT_TRUE(doc.has_value()) << stats.value();
  EXPECT_EQ(doc->Num("net.protocol_errors"), 0) << stats.value();
  EXPECT_EQ(doc->Num("exec_rejected"), 0) << stats.value();
  net.Stop();
  server.Stop();
}

}  // namespace
}  // namespace pkgm::infer
