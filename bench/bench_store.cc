// Storage-tier study for the embedding store (src/store/): condensed
// service-vector latency and resident memory for the three parameter
// backends —
//
//   fp32-heap  the in-process PkgmModel tables (the pre-store baseline)
//   fp32-mmap  a .pkgs store served zero-copy out of a file mapping
//   int8-mmap  the same store symmetric-per-row quantized (~4x smaller),
//              dequantized on the fly per accessed row
//
// plus the int8 fidelity check: mean cosine of condensed vectors vs fp32.
//
//   bench_store [--smoke] [--json out.json]
//
// --smoke shrinks the model so the bench finishes in seconds (the CI
// configuration); --json writes the headline numbers for artifact upload.

#include <cstdio>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/pkgm_model.h"
#include "core/service.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "util/histogram.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

struct BenchConfig {
  uint32_t num_entities = 120000;
  uint32_t num_relations = 64;
  uint32_t dim = 64;
  uint32_t num_items = 2000;
  uint32_t keys_per_item = 10;
  uint32_t requests = 20000;
};

BenchConfig SmokeConfig() {
  BenchConfig c;
  c.num_entities = 12000;
  c.num_relations = 32;
  c.dim = 32;
  c.num_items = 400;
  c.requests = 4000;
  return c;
}

struct ItemMap {
  std::vector<kg::EntityId> items;
  std::vector<std::vector<kg::RelationId>> keys;
};

ItemMap MakeItems(const BenchConfig& c, uint64_t seed) {
  ItemMap map;
  Rng rng(seed);
  map.items.reserve(c.num_items);
  map.keys.reserve(c.num_items);
  for (uint32_t i = 0; i < c.num_items; ++i) {
    map.items.push_back(
        static_cast<kg::EntityId>(rng.Uniform(c.num_entities)));
    std::vector<kg::RelationId> keys(c.keys_per_item);
    for (auto& k : keys) {
      k = static_cast<kg::RelationId>(rng.Uniform(c.num_relations));
    }
    map.keys.push_back(std::move(keys));
  }
  return map;
}

struct BackendResult {
  std::string name;
  uint64_t table_bytes = 0;   // heap tables or store file size
  uint64_t rss_delta = 0;     // resident growth attributable to the backend
  double p50_us = 0.0;
  double p95_us = 0.0;
  double mean_us = 0.0;
};

/// Zipf-ish condensed-serving loop; returns latency stats over `requests`.
void DriveProvider(const core::ServiceVectorProvider& provider,
                   const BenchConfig& c, BackendResult* out) {
  ZipfSampler zipf(c.num_items, 1.1);
  Rng rng(7);
  Histogram h;
  for (uint32_t i = 0; i < c.requests; ++i) {
    const uint32_t item = static_cast<uint32_t>(zipf.Sample(&rng));
    Stopwatch sw;
    const Vec v = provider.Condensed(item, core::ServiceMode::kAll);
    h.Record(sw.ElapsedSeconds() * 1e6);
    PKGM_CHECK_EQ(v.size(), 2 * provider.dim());
  }
  out->p50_us = h.Percentile(0.5);
  out->p95_us = h.Percentile(0.95);
  out->mean_us = h.Mean();
}

/// Faults every page of the mapping in (row sweep), so the RSS measurement
/// reflects a fully touched store, comparable with the heap tables.
void SweepStore(const store::MmapEmbeddingStore& s) {
  const uint32_t d = s.dim();
  std::vector<float> scratch(static_cast<size_t>(d) * d);
  float sink = 0.0f;
  for (uint32_t e = 0; e < s.num_entities(); ++e) {
    sink += s.EntityRow(e, scratch.data())[0];
  }
  for (uint32_t r = 0; r < s.num_relations(); ++r) {
    sink += s.RelationRow(r, scratch.data())[0];
    if (s.has_relation_module()) sink += s.TransferRow(r, scratch.data())[0];
  }
  PKGM_CHECK(sink == sink);  // keep the sweep observable
}

double MeanCondensedCosine(const core::ServiceVectorProvider& a,
                           const core::ServiceVectorProvider& b,
                           uint32_t num_items) {
  double total = 0.0;
  for (uint32_t i = 0; i < num_items; ++i) {
    const Vec va = a.Condensed(i, core::ServiceMode::kAll);
    const Vec vb = b.Condensed(i, core::ServiceMode::kAll);
    double dot = 0.0, na = 0.0, nb = 0.0;
    for (size_t j = 0; j < va.size(); ++j) {
      dot += static_cast<double>(va[j]) * vb[j];
      na += static_cast<double>(va[j]) * va[j];
      nb += static_cast<double>(vb[j]) * vb[j];
    }
    total += (na == 0.0 || nb == 0.0) ? 1.0 : dot / std::sqrt(na * nb);
  }
  return total / num_items;
}

int Run(bool smoke, const std::string& json_path) {
  const BenchConfig c = smoke ? SmokeConfig() : BenchConfig{};
  std::printf("\n==== Embedding store: latency / memory across backends ====\n\n");
  std::printf("%s entities x %u relations, d=%u, %u items x %u key "
              "relations, %s condensed requests per backend%s\n\n",
              WithThousandsSeparators(c.num_entities).c_str(), c.num_relations,
              c.dim, c.num_items, c.keys_per_item,
              WithThousandsSeparators(c.requests).c_str(),
              smoke ? " (smoke)" : "");

  const std::string fp32_path = "/tmp/bench_store_fp32.pkgs";
  const std::string int8_path = "/tmp/bench_store_int8.pkgs";
  const ItemMap map = MakeItems(c, /*seed=*/2021);

  BackendResult heap{"fp32-heap"};
  BackendResult fp32{"fp32-mmap"};
  BackendResult int8{"int8-mmap"};

  // Phase 1: heap model — measure, drive, export both stores, then free it
  // so the mmap backends are measured without the heap tables resident.
  {
    const uint64_t rss0 = bench::ResidentBytes();
    core::PkgmModelOptions mopt;
    mopt.num_entities = c.num_entities;
    mopt.num_relations = c.num_relations;
    mopt.dim = c.dim;
    mopt.seed = 2021;
    core::PkgmModel model(mopt);
    heap.rss_delta = bench::ResidentBytes() - rss0;
    const uint64_t d = c.dim;
    heap.table_bytes =
        (static_cast<uint64_t>(c.num_entities) * d +
         static_cast<uint64_t>(c.num_relations) * d +
         static_cast<uint64_t>(c.num_relations) * d * d) *
        sizeof(float);

    core::ServiceVectorProvider provider(&model, map.items, map.keys);
    DriveProvider(provider, c, &heap);

    store::StoreWriterOptions wopt;
    PKGM_CHECK(store::EmbeddingStoreWriter(wopt).Write(model, fp32_path).ok());
    wopt.dtype = store::StoreDtype::kInt8;
    PKGM_CHECK(store::EmbeddingStoreWriter(wopt).Write(model, int8_path).ok());
  }

  // Phase 2: fp32 mmap. The rss baseline is read before Open() because the
  // checksum pass at open already faults every page of the mapping in.
  const uint64_t fp32_rss0 = bench::ResidentBytes();
  Stopwatch open_sw;
  auto fp32_store = store::MmapEmbeddingStore::Open(fp32_path);
  const double fp32_open_ms = open_sw.ElapsedMillis();
  PKGM_CHECK(fp32_store.ok()) << fp32_store.status().message();
  {
    SweepStore(*fp32_store);
    fp32.rss_delta = bench::ResidentBytes() - fp32_rss0;
    fp32.table_bytes = fp32_store->file_size();
    core::ServiceVectorProvider provider(&*fp32_store, map.items, map.keys);
    DriveProvider(provider, c, &fp32);
  }

  // Phase 3: int8 mmap.
  const uint64_t int8_rss0 = bench::ResidentBytes();
  open_sw.Reset();
  auto int8_store = store::MmapEmbeddingStore::Open(int8_path);
  const double int8_open_ms = open_sw.ElapsedMillis();
  PKGM_CHECK(int8_store.ok()) << int8_store.status().message();
  {
    SweepStore(*int8_store);
    int8.rss_delta = bench::ResidentBytes() - int8_rss0;
    int8.table_bytes = int8_store->file_size();
    core::ServiceVectorProvider provider(&*int8_store, map.items, map.keys);
    DriveProvider(provider, c, &int8);
  }

  // Fidelity: int8 condensed vectors against the (bit-exact-to-heap) fp32
  // store.
  core::ServiceVectorProvider fp32_provider(&*fp32_store, map.items, map.keys);
  core::ServiceVectorProvider int8_provider(&*int8_store, map.items, map.keys);
  const uint32_t cosine_items = std::min<uint32_t>(c.num_items, 500);
  const double cosine =
      MeanCondensedCosine(fp32_provider, int8_provider, cosine_items);

  TablePrinter t({"backend", "table bytes", "rss delta", "p50 us", "p95 us",
                  "mean us"});
  for (const BackendResult* r : {&heap, &fp32, &int8}) {
    t.AddRow({r->name, WithThousandsSeparators(r->table_bytes),
              WithThousandsSeparators(r->rss_delta),
              StrFormat("%.2f", r->p50_us), StrFormat("%.2f", r->p95_us),
              StrFormat("%.2f", r->mean_us)});
  }
  std::printf("%s\n", t.ToString().c_str());

  const double size_ratio = static_cast<double>(int8.table_bytes) /
                            static_cast<double>(heap.table_bytes);
  std::printf("int8-mmap store is %.1f%% of the fp32-heap tables "
              "(target <= ~30%%)\n",
              100.0 * size_ratio);
  std::printf("verified open: fp32 %.3f ms, int8 %.3f ms\n", fp32_open_ms,
              int8_open_ms);
  std::printf("int8 mean condensed cosine vs fp32: %.5f over %u items "
              "(target >= 0.99)\n",
              cosine, cosine_items);
  const bool pass = size_ratio <= 0.31 && cosine >= 0.99;
  std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"smoke\": %s,\n", smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"config\": {\"entities\": %u, \"relations\": %u, "
                 "\"dim\": %u, \"items\": %u, \"requests\": %u},\n",
                 c.num_entities, c.num_relations, c.dim, c.num_items,
                 c.requests);
    std::fprintf(f, "  \"backends\": [\n");
    const BackendResult* rs[] = {&heap, &fp32, &int8};
    for (int i = 0; i < 3; ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"table_bytes\": %llu, "
                   "\"rss_delta_bytes\": %llu, \"p50_us\": %.3f, "
                   "\"p95_us\": %.3f, \"mean_us\": %.3f}%s\n",
                   rs[i]->name.c_str(),
                   static_cast<unsigned long long>(rs[i]->table_bytes),
                   static_cast<unsigned long long>(rs[i]->rss_delta),
                   rs[i]->p50_us, rs[i]->p95_us, rs[i]->mean_us,
                   i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"open_ms\": {\"fp32\": %.3f, \"int8\": %.3f},\n",
                 fp32_open_ms, int8_open_ms);
    std::fprintf(f, "  \"int8_size_ratio\": %.4f,\n", size_ratio);
    std::fprintf(f, "  \"int8_mean_cosine\": %.6f,\n", cosine);
    std::fprintf(f, "  \"pass\": %s\n}\n", pass ? "true" : "false");
    std::fclose(f);
    std::printf("json written to %s\n", json_path.c_str());
  }
  std::remove(fp32_path.c_str());
  std::remove(int8_path.c_str());
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_store [--smoke] [--json out.json]\n");
      return 2;
    }
  }
  return pkgm::Run(smoke, json_path);
}
