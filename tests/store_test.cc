// Tests for the memory-mapped embedding store tier (src/store/): .pkgs
// format round-trips, int8 quantization error bounds, corrupt-file
// rejection, and zero-downtime ModelRegistry hot-swap under concurrent
// serving load.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pkgm_model.h"
#include "core/service.h"
#include "core/service_math.h"
#include "mutation.h"
#include "serve/knowledge_server.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "store/model_registry.h"
#include "store/store_format.h"
#include "util/rng.h"
#include "util/section_file.h"
#include "util/status.h"

namespace pkgm {
namespace {

core::PkgmModelOptions SmallOptions(uint64_t seed = 11) {
  core::PkgmModelOptions opt;
  opt.num_entities = 12;
  opt.num_relations = 5;
  opt.dim = 8;
  opt.seed = seed;
  return opt;
}

struct ProviderSpec {
  std::vector<kg::EntityId> items;
  std::vector<std::vector<kg::RelationId>> key_relations;
};

ProviderSpec SmallProviderSpec() {
  ProviderSpec spec;
  spec.items = {0, 3, 7, 11};
  spec.key_relations = {{0, 1, 2}, {1, 4}, {2}, {0, 1, 2, 3, 4}};
  return spec;
}

std::string TempStorePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

double Cosine(const Vec& a, const Vec& b) {
  EXPECT_EQ(a.size(), b.size());
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  if (na == 0.0 || nb == 0.0) return na == nb ? 1.0 : 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

// ----------------------------------------------------- fp32 round-trips --

TEST(StoreRoundTrip, Fp32TablesAreBitExact) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("fp32_exact.pkgs");
  store::StoreWriterOptions wopt;
  wopt.generation = 42;
  ASSERT_TRUE(store::EmbeddingStoreWriter(wopt).Write(model, path).ok());

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const store::MmapEmbeddingStore& s = opened.value();

  EXPECT_EQ(s.num_entities(), model.num_entities());
  EXPECT_EQ(s.num_relations(), model.num_relations());
  EXPECT_EQ(s.dim(), model.dim());
  EXPECT_EQ(s.scorer(), model.scorer());
  EXPECT_TRUE(s.has_relation_module());
  EXPECT_EQ(s.dtype(), store::StoreDtype::kFloat32);
  EXPECT_EQ(s.generation(), 42u);

  const uint32_t d = model.dim();
  std::vector<float> scratch(static_cast<size_t>(d) * d);
  for (uint32_t e = 0; e < model.num_entities(); ++e) {
    const float* row = s.EntityRow(e, scratch.data());
    EXPECT_EQ(std::memcmp(row, model.entity(e), d * sizeof(float)), 0);
  }
  for (uint32_t r = 0; r < model.num_relations(); ++r) {
    EXPECT_EQ(std::memcmp(s.RelationRow(r, scratch.data()), model.relation(r),
                          d * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(s.TransferRow(r, scratch.data()), model.transfer(r),
                          static_cast<size_t>(d) * d * sizeof(float)),
              0);
  }
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, Fp32ServiceVectorsMatchHeapModelBitForBit) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("fp32_serve.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok());

  ProviderSpec spec = SmallProviderSpec();
  core::ServiceVectorProvider heap(&model, spec.items, spec.key_relations);
  core::ServiceVectorProvider mapped(&opened.value(), spec.items,
                                     spec.key_relations);

  for (uint32_t item = 0; item < heap.num_items(); ++item) {
    for (core::ServiceMode mode :
         {core::ServiceMode::kTripleOnly, core::ServiceMode::kRelationOnly,
          core::ServiceMode::kAll}) {
      const Vec a = heap.Condensed(item, mode);
      const Vec b = mapped.Condensed(item, mode);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
      const auto sa = heap.Sequence(item, mode);
      const auto sb = mapped.Sequence(item, mode);
      ASSERT_EQ(sa.size(), sb.size());
      for (size_t v = 0; v < sa.size(); ++v) {
        EXPECT_EQ(std::memcmp(sa[v].data(), sb[v].data(),
                              sa[v].size() * sizeof(float)),
                  0);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, TransHStoreCarriesHyperplanes) {
  core::PkgmModelOptions opt = SmallOptions();
  opt.scorer = core::TripleScorerKind::kTransH;
  core::PkgmModel model(opt);
  const std::string path = TempStorePath("transh.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const store::MmapEmbeddingStore& s = opened.value();
  EXPECT_EQ(s.scorer(), core::TripleScorerKind::kTransH);
  EXPECT_TRUE(s.has_hyperplanes());
  std::vector<float> scratch(model.dim());
  for (uint32_t r = 0; r < model.num_relations(); ++r) {
    EXPECT_EQ(std::memcmp(s.HyperplaneRow(r, scratch.data()),
                          model.hyperplane(r), model.dim() * sizeof(float)),
              0);
  }
  std::remove(path.c_str());
}

// -------------------------------------------------------- degenerate data --

TEST(StoreRoundTrip, NoRelationModuleStoreZeroFillsRelationServices) {
  core::PkgmModelOptions opt = SmallOptions();
  opt.use_relation_module = false;
  core::PkgmModel model(opt);
  const std::string path = TempStorePath("norel.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const store::MmapEmbeddingStore& s = opened.value();
  EXPECT_FALSE(s.has_relation_module());
  EXPECT_EQ(s.file().Find(store::kTransferSection), nullptr);

  core::ServiceVectorProvider provider(&s, {0, 1}, {{0, 1}, {2}});
  const Vec all = provider.Condensed(0, core::ServiceMode::kAll);
  ASSERT_EQ(all.size(), 2 * model.dim());
  for (uint32_t i = model.dim(); i < 2 * model.dim(); ++i) {
    EXPECT_EQ(all[i], 0.0f) << "relation half must be zero without M_r";
  }
  std::remove(path.c_str());
}

TEST(StoreRoundTrip, EmptyKeyRelationItemServesZeroVector) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("emptykeys.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok());

  core::ServiceVectorProvider provider(&opened.value(), {0, 1}, {{}, {0}});
  EXPECT_TRUE(provider.Sequence(0, core::ServiceMode::kAll).empty());
  const Vec condensed = provider.Condensed(0, core::ServiceMode::kAll);
  ASSERT_EQ(condensed.size(), 2 * model.dim());
  for (size_t i = 0; i < condensed.size(); ++i) EXPECT_EQ(condensed[i], 0.0f);
  std::remove(path.c_str());
}

// -------------------------------------------------------- int8 quantization --

TEST(Int8Quantization, PerRowErrorBoundedByHalfScale) {
  core::PkgmModel model(SmallOptions());
  const uint32_t d = model.dim();
  std::vector<int8_t> q(d);
  for (uint32_t e = 0; e < model.num_entities(); ++e) {
    const float* row = model.entity(e);
    const float scale = store::QuantizeRowInt8(row, d, q.data());
    for (uint32_t i = 0; i < d; ++i) {
      const float back = scale * static_cast<float>(q[i]);
      // Symmetric rounding: each element is off by at most half a step.
      EXPECT_LE(std::fabs(back - row[i]), 0.5f * scale + 1e-6f)
          << "entity " << e << " element " << i;
    }
  }
}

TEST(Int8Quantization, ZeroRowQuantizesToZeroScale) {
  std::vector<float> zeros(16, 0.0f);
  std::vector<int8_t> q(16, 99);
  const float scale = store::QuantizeRowInt8(zeros.data(), 16, q.data());
  EXPECT_EQ(scale, 0.0f);
  for (int8_t v : q) EXPECT_EQ(v, 0);
}

TEST(Int8Quantization, StoreDequantizesWithinBoundAndHighCosine) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("int8.pkgs");
  store::StoreWriterOptions wopt;
  wopt.dtype = store::StoreDtype::kInt8;
  ASSERT_TRUE(store::EmbeddingStoreWriter(wopt).Write(model, path).ok());

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  const store::MmapEmbeddingStore& s = opened.value();
  EXPECT_EQ(s.dtype(), store::StoreDtype::kInt8);

  const uint32_t d = model.dim();
  std::vector<float> scratch(static_cast<size_t>(d) * d);
  std::vector<int8_t> q(d);
  for (uint32_t e = 0; e < model.num_entities(); ++e) {
    const float scale = store::QuantizeRowInt8(model.entity(e), d, q.data());
    const float* row = s.EntityRow(e, scratch.data());
    for (uint32_t i = 0; i < d; ++i) {
      EXPECT_LE(std::fabs(row[i] - model.entity(e)[i]), 0.5f * scale + 1e-6f);
    }
  }

  // Condensed service vectors stay directionally faithful (the acceptance
  // bar bench_store measures at scale).
  ProviderSpec spec = SmallProviderSpec();
  core::ServiceVectorProvider fp32(&model, spec.items, spec.key_relations);
  core::ServiceVectorProvider int8(&s, spec.items, spec.key_relations);
  double mean_cos = 0.0;
  for (uint32_t item = 0; item < fp32.num_items(); ++item) {
    mean_cos += Cosine(fp32.Condensed(item, core::ServiceMode::kAll),
                       int8.Condensed(item, core::ServiceMode::kAll));
  }
  mean_cos /= fp32.num_items();
  EXPECT_GE(mean_cos, 0.99);
  std::remove(path.c_str());
}

TEST(Int8Quantization, QuantizeStoreRecodesAnOpenFp32Store) {
  // The pkgm_tool export-store ... int8 path: fp32 .pkgs -> mmap -> int8
  // .pkgs.
  core::PkgmModel model(SmallOptions());
  const std::string fp32_path = TempStorePath("recode_fp32.pkgs");
  const std::string int8_path = TempStorePath("recode_int8.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, fp32_path).ok());
  auto fp32_store = store::MmapEmbeddingStore::Open(fp32_path);
  ASSERT_TRUE(fp32_store.ok());

  store::StoreWriterOptions wopt;
  wopt.dtype = store::StoreDtype::kInt8;
  wopt.generation = 7;
  ASSERT_TRUE(store::EmbeddingStoreWriter(wopt)
                  .Write(fp32_store.value(), int8_path)
                  .ok());
  auto int8_store = store::MmapEmbeddingStore::Open(int8_path);
  ASSERT_TRUE(int8_store.ok()) << int8_store.status().message();
  EXPECT_EQ(int8_store.value().dtype(), store::StoreDtype::kInt8);
  EXPECT_EQ(int8_store.value().generation(), 7u);
  EXPECT_LT(int8_store.value().file_size(), fp32_store.value().file_size());

  ProviderSpec spec = SmallProviderSpec();
  core::ServiceVectorProvider a(&model, spec.items, spec.key_relations);
  core::ServiceVectorProvider b(&int8_store.value(), spec.items,
                                spec.key_relations);
  for (uint32_t item = 0; item < a.num_items(); ++item) {
    EXPECT_GE(Cosine(a.Condensed(item, core::ServiceMode::kAll),
                     b.Condensed(item, core::ServiceMode::kAll)),
              0.99);
  }
  std::remove(fp32_path.c_str());
  std::remove(int8_path.c_str());
}

// ------------------------------------------------------- corrupt stores --

TEST(StoreCorruption, TruncatedStoreIsRejected) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("trunc.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StoreCorruption, BadMagicIsRejected) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("magic.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const uint32_t bogus = 0xDEADBEEFu;
  std::fwrite(&bogus, sizeof(bogus), 1, f);
  std::fclose(f);

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StoreCorruption, PayloadBitFlipFailsChecksum) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("flip.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  // Flip one byte in the middle of the entity section.
  std::string bytes = ReadFileBytes(path);
  {
    store::MmapStoreOptions lazy;
    lazy.verify_checksum = false;
    auto clean = store::MmapEmbeddingStore::Open(path, lazy);
    ASSERT_TRUE(clean.ok()) << clean.status().message();
    const SectionEntry* entities =
        clean.value().file().Find(store::kEntitySection);
    ASSERT_NE(entities, nullptr);
    bytes[entities->offset + entities->bytes / 2] ^= 0x40;
  }
  ASSERT_TRUE(WriteFileBytes(path, bytes));

  auto strict = store::MmapEmbeddingStore::Open(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.status().code(), StatusCode::kCorruption);

  // Lazy mode maps it anyway (large-store fast path) but an explicit
  // VerifyChecksum still catches the flip.
  store::MmapStoreOptions lazy;
  lazy.verify_checksum = false;
  auto opened = store::MmapEmbeddingStore::Open(path, lazy);
  ASSERT_TRUE(opened.ok());
  Status s = opened.value().VerifyChecksum();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StoreCorruption, HeaderSizeMismatchIsRejected) {
  core::PkgmModel model(SmallOptions());
  const std::string path = TempStorePath("tail.pkgs");
  ASSERT_TRUE(store::EmbeddingStoreWriter().Write(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const char junk[8] = {0};
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(StoreCorruption, ParentVersionIsRejected) {
  // The version-1 layout: an 88-byte header (magic, version, ...) and the
  // tables behind it. Its magic matches, so only the version refuses it.
  std::string parent(4096, '\0');
  const uint32_t magic = store::kStoreMagic, version = 1;
  std::memcpy(&parent[0], &magic, sizeof(magic));
  std::memcpy(&parent[4], &version, sizeof(version));
  const std::string path = TempStorePath("v1.pkgs");
  ASSERT_TRUE(WriteFileBytes(path, parent));

  auto opened = store::MmapEmbeddingStore::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(opened.status().message().find("format version 1; this build "
                                           "reads version 2"),
            std::string::npos)
      << opened.status().message();
  std::remove(path.c_str());
}

// ------------------------------------------------------- seeded mutation --

// Every mutant of a .pkgs opens or returns Corruption (never a crash or a
// sanitizer report), through both MmapEmbeddingStore::Open and LoadModel.
// Half the mutants get their CRCs re-sealed so the mutation reaches the
// container's entry checks and the store's META checks; an accepted fp32
// mutant must re-write to exactly its own bytes.
TEST(MutationTest, StoreFilesOpenOrFailCleanly) {
  // d = 64 puts more than 64 KiB of transfer matrices behind the small
  // sections, so an offset or size inflated by 0x10000 lands inside
  // another section instead of past the end of the file.
  core::PkgmModelOptions opt = SmallOptions();
  opt.dim = 64;
  core::PkgmModel model(opt);
  core::PkgmModelOptions transh = opt;
  transh.scorer = core::TripleScorerKind::kTransH;
  transh.use_relation_module = false;
  const std::string tag = std::to_string(::getpid());
  const std::string path = TempStorePath(("mutant." + tag + ".pkgs").c_str());
  const std::string rewrite_path =
      TempStorePath(("rewrite." + tag + ".pkgs").c_str());
  const auto encode = [&](const core::EmbeddingSource& source,
                          store::StoreDtype dtype) {
    store::StoreWriterOptions wopt;
    wopt.dtype = dtype;
    EXPECT_TRUE(store::EmbeddingStoreWriter(wopt).Write(source, path).ok());
    return ReadFileBytes(path);
  };
  const std::string fp32 = encode(model, store::StoreDtype::kFloat32);
  const std::string int8 = encode(model, store::StoreDtype::kInt8);
  const std::string other =
      encode(core::PkgmModel(transh), store::StoreDtype::kFloat32);

  Rng rng(20240);
  size_t accepted = 0, rewritten = 0;
  for (const std::string* input : {&fp32, &int8}) {
    const std::vector<size_t> fields = SectionTableFields(*input);
    for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
      SCOPED_TRACE(iter);
      std::string mutant =
          iter == 0 ? *input : Mutate(*input, other, fields, &rng);
      if (iter % 2 == 1) ResealSections(&mutant);
      ASSERT_TRUE(WriteFileBytes(path, mutant));

      auto opened = store::MmapEmbeddingStore::Open(path);
      auto loaded = store::LoadModel(path);
      if (!opened.ok()) {
        EXPECT_EQ(opened.status().code(), StatusCode::kCorruption)
            << opened.status().message();
        EXPECT_FALSE(loaded.ok());
        continue;
      }
      ++accepted;
      const store::MmapEmbeddingStore& s = opened.value();
      // Touch every row: a section the checks let through must hold them.
      std::vector<float> scratch(static_cast<size_t>(s.dim()) * s.dim());
      float sum = 0.0f;
      for (uint32_t e = 0; e < s.num_entities(); ++e) {
        sum += s.EntityRow(e, scratch.data())[s.dim() - 1];
      }
      for (uint32_t r = 0; r < s.num_relations(); ++r) {
        sum += s.RelationRow(r, scratch.data())[0];
        if (s.has_relation_module()) sum += s.TransferRow(r, scratch.data())[0];
        if (s.has_hyperplanes()) sum += s.HyperplaneRow(r, scratch.data())[0];
      }
      volatile float sink = sum;
      (void)sink;
      if (s.dtype() != store::StoreDtype::kFloat32) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
        continue;
      }
      ASSERT_TRUE(loaded.ok()) << loaded.status().message();
      EXPECT_EQ(loaded->num_entities(), s.num_entities());
      store::StoreWriterOptions wopt;
      wopt.generation = s.generation();
      ASSERT_TRUE(store::EmbeddingStoreWriter(wopt).Write(s, rewrite_path).ok());
      EXPECT_TRUE(ReadFileBytes(rewrite_path) == mutant)
          << "accepted mutant does not re-encode";
      ++rewritten;
    }
  }
  EXPECT_GT(accepted, 2u);
  EXPECT_GT(rewritten, 1u);
  std::remove(path.c_str());
  std::remove(rewrite_path.c_str());
}

// -------------------------------------------------------- model registry --

TEST(ModelRegistry, PublishAssignsMonotonicGenerations) {
  store::ModelRegistry registry;
  EXPECT_EQ(registry.Current(), nullptr);
  EXPECT_EQ(registry.generation(), 0u);

  auto model = std::make_shared<core::PkgmModel>(SmallOptions());
  ProviderSpec spec = SmallProviderSpec();
  auto provider = std::make_shared<core::ServiceVectorProvider>(
      model.get(), spec.items, spec.key_relations);
  auto source =
      std::shared_ptr<const core::EmbeddingSource>(model, model.get());

  EXPECT_EQ(registry.Publish(source, provider, {}), 1u);
  EXPECT_EQ(registry.generation(), 1u);
  EXPECT_EQ(registry.Publish(source, provider, {}), 2u);
  auto current = registry.Current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->generation, 2u);
  EXPECT_EQ(current->provider.get(), provider.get());
}

// One published generation over a store file; the caller owns nothing else.
std::shared_ptr<const store::ServingGeneration> MakeStoreGeneration(
    const core::PkgmModel& model, const std::string& path,
    store::StoreDtype dtype) {
  store::StoreWriterOptions wopt;
  wopt.dtype = dtype;
  EXPECT_TRUE(store::EmbeddingStoreWriter(wopt).Write(model, path).ok());
  auto opened = store::MmapEmbeddingStore::Open(path);
  EXPECT_TRUE(opened.ok());
  auto source = std::make_shared<store::MmapEmbeddingStore>(
      std::move(opened.value()));
  ProviderSpec spec = SmallProviderSpec();
  auto provider = std::make_shared<core::ServiceVectorProvider>(
      source.get(), spec.items, spec.key_relations);
  auto gen = std::make_shared<store::ServingGeneration>();
  gen->source = source;
  gen->provider = provider;
  gen->info.load_mode =
      dtype == store::StoreDtype::kInt8 ? "mmap-int8" : "mmap-fp32";
  gen->info.dtype = dtype;
  gen->info.file_bytes = source->file_size();
  gen->info.path = path;
  return gen;
}

TEST(ModelRegistry, HotSwapUnderConcurrentServingLoadNeverFails) {
  core::PkgmModel model_a(SmallOptions(/*seed=*/11));
  core::PkgmModel model_b(SmallOptions(/*seed=*/99));
  const std::string path_a = TempStorePath("swap_a.pkgs");
  const std::string path_b = TempStorePath("swap_b.pkgs");
  auto gen_a = MakeStoreGeneration(model_a, path_a, store::StoreDtype::kFloat32);
  auto gen_b = MakeStoreGeneration(model_b, path_b, store::StoreDtype::kInt8);

  store::ModelRegistry registry;
  registry.Publish(gen_a->source, gen_a->provider, gen_a->info);

  serve::KnowledgeServerOptions opt;
  opt.num_workers = 3;
  opt.queue_capacity = 1024;
  serve::KnowledgeServer server(&registry, opt);
  server.Start();

  // Every Ok response must equal one of the two generations' outputs —
  // a response mixing them (or a stale cached value served after the
  // swap) is a hot-swap bug.
  const uint32_t num_items = gen_a->provider->num_items();
  std::vector<Vec> expect_a, expect_b;
  for (uint32_t i = 0; i < num_items; ++i) {
    expect_a.push_back(gen_a->provider->Condensed(i, core::ServiceMode::kAll));
    expect_b.push_back(gen_b->provider->Condensed(i, core::ServiceMode::kAll));
  }
  auto matches = [](const Vec& got, const Vec& want) {
    return got.size() == want.size() &&
           std::memcmp(got.data(), want.data(),
                       got.size() * sizeof(float)) == 0;
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> not_ok{0};
  std::atomic<uint64_t> wrong_value{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      uint32_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        serve::ServiceRequest request;
        request.item = i++ % num_items;
        auto future = server.Submit(request);
        serve::ServiceResponse response = future.get();
        if (response.code != serve::ResponseCode::kOk) {
          ++not_ok;
          continue;
        }
        if (!matches(response.vectors[0], expect_a[request.item]) &&
            !matches(response.vectors[0], expect_b[request.item])) {
          ++wrong_value;
        }
      }
    });
  }

  // Swap back and forth under load.
  for (int swap = 0; swap < 12; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto& gen = (swap % 2 == 0) ? gen_b : gen_a;
    registry.Publish(gen->source, gen->provider, gen->info);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  for (auto& c : clients) c.join();

  EXPECT_EQ(not_ok.load(), 0u) << "hot swaps must not fail requests";
  EXPECT_EQ(wrong_value.load(), 0u);

  // After the dust settles the server must serve exactly the latest
  // generation (gen_a, published last) — nothing stale survives in cache.
  for (uint32_t i = 0; i < num_items; ++i) {
    serve::ServiceRequest request;
    request.item = i;
    serve::ServiceResponse response = server.Submit(request).get();
    ASSERT_EQ(response.code, serve::ResponseCode::kOk);
    EXPECT_TRUE(matches(response.vectors[0], expect_a[i]))
        << "item " << i << " served a stale generation after the swap";
  }
  server.Stop();
  EXPECT_NE(server.stats().backend().find("mmap-"), std::string::npos);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

}  // namespace
}  // namespace pkgm
