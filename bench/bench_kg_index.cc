// Storage study for the on-disk triple index (src/kg/*.pkgt*): build
// throughput, point-lookup latency, and resident memory for the two
// TripleSource backends —
//
//   mem-store   the in-memory TripleStore (hash maps; the pre-index
//               baseline every consumer used before)
//   mmap-index  a .pkgt index served zero-copy out of a file mapping by
//               binary search over sorted permutation runs
//
// plus answer-parity spot checks between the backends while measuring.
//
//   bench_kg_index [--smoke] [--json out.json]
//
// --smoke shrinks the graph so the bench finishes in seconds (the CI
// configuration); --json writes the headline numbers for artifact upload.

#include <malloc.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "kg/mmap_triple_index.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_index_writer.h"
#include "kg/triple_store.h"
#include "util/histogram.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

struct BenchConfig {
  uint32_t num_categories = 40;
  uint32_t items_per_category = 2000;
  uint32_t point_lookups = 200000;
};

BenchConfig SmokeConfig() {
  BenchConfig c;
  c.num_categories = 8;
  c.items_per_category = 150;
  c.point_lookups = 20000;
  return c;
}

struct BackendResult {
  std::string name;
  uint64_t rss_delta = 0;  // resident growth attributable to the backend
  double contains_p50_us = 0.0;
  double tails_p50_us = 0.0;
  double heads_p50_us = 0.0;
  double relations_p50_us = 0.0;
};

/// Mixed point-lookup loop over one TripleSource: Contains / Tails / Heads
/// / RelationsOf, half hits (sampled stored triples) and half likely
/// misses (perturbed ids), identical probe sequence for every backend.
uint64_t DrivePointLookups(const kg::TripleSource& source,
                           const std::vector<kg::Triple>& probes,
                           BackendResult* out) {
  Histogram contains, tails, heads, relations;
  uint64_t sink = 0;
  for (const kg::Triple& p : probes) {
    Stopwatch sw;
    sink += source.Contains(p.head, p.relation, p.tail) ? 1 : 0;
    contains.Record(sw.ElapsedSeconds() * 1e6);
    sw.Reset();
    sink += source.Tails(p.head, p.relation).size();
    tails.Record(sw.ElapsedSeconds() * 1e6);
    sw.Reset();
    sink += source.Heads(p.relation, p.tail).size();
    heads.Record(sw.ElapsedSeconds() * 1e6);
    sw.Reset();
    sink += source.RelationsOf(p.head).size();
    relations.Record(sw.ElapsedSeconds() * 1e6);
  }
  out->contains_p50_us = contains.Percentile(0.5);
  out->tails_p50_us = tails.Percentile(0.5);
  out->heads_p50_us = heads.Percentile(0.5);
  out->relations_p50_us = relations.Percentile(0.5);
  return sink;
}

std::vector<kg::Triple> MakeProbes(const std::vector<kg::Triple>& triples,
                                   uint32_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<kg::Triple> probes;
  probes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    kg::Triple p = triples[rng.Uniform(static_cast<uint32_t>(triples.size()))];
    if (i % 2 == 1) p.tail += 1 + static_cast<uint32_t>(rng.Uniform(7));
    probes.push_back(p);
  }
  return probes;
}

int Run(bool smoke, const std::string& json_path) {
  const BenchConfig c = smoke ? SmokeConfig() : BenchConfig{};
  std::printf("\n==== KG triple index: build / lookup / memory ====\n\n");

  // The synthetic product KG. Only the flat triple list is kept; the
  // backends under test are built from it inside measured scopes.
  std::vector<kg::Triple> triples;
  {
    kg::SyntheticPkgOptions opt;
    opt.seed = 2022;
    opt.num_categories = c.num_categories;
    opt.items_per_category = c.items_per_category;
    kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt).Generate();
    triples = pkg.observed.triples();
  }
  std::printf("%s triples (%u categories x %u items)%s\n\n",
              WithThousandsSeparators(triples.size()).c_str(),
              c.num_categories, c.items_per_category, smoke ? " (smoke)" : "");
  const std::vector<kg::Triple> probes =
      MakeProbes(triples, c.point_lookups / 4, /*seed=*/2022);

  const std::string index_path = "/tmp/bench_kg_index.pkgt";
  BackendResult mem{"mem-store"};
  BackendResult idx{"mmap-index"};
  kg::TripleIndexBuildStats build;
  uint64_t mem_sink = 0, idx_sink = 0;

  // Phase 1: in-memory store — measure resident growth of the hash-map
  // tier, drive the probe mix, build the index from it, then free it so
  // the mmap backend is measured without the store resident. malloc_trim
  // returns the generator's freed pages to the OS first; otherwise the
  // store builds inside recycled pages and its growth is invisible to RSS.
  {
    ::malloc_trim(0);
    const uint64_t rss0 = bench::ResidentBytes();
    kg::TripleStore store;
    for (const kg::Triple& t : triples) store.Add(t);
    mem.rss_delta = bench::ResidentBytes() - rss0;
    mem_sink = DrivePointLookups(store, probes, &mem);

    auto stats = kg::TripleIndexWriter().Write(store, index_path);
    PKGM_CHECK(stats.ok()) << stats.status().message();
    build = stats.value();
  }

  // Phase 2: mmap index. The rss baseline is read before Open() because
  // the checksum pass at open already faults every page of the mapping in.
  ::malloc_trim(0);
  const uint64_t idx_rss0 = bench::ResidentBytes();
  Stopwatch open_sw;
  auto opened = kg::MmapTripleIndex::Open(index_path);
  const double open_ms = open_sw.ElapsedMillis();
  PKGM_CHECK(opened.ok()) << opened.status().message();
  const kg::MmapTripleIndex& index = opened.value();
  idx.rss_delta = bench::ResidentBytes() - idx_rss0;
  idx_sink = DrivePointLookups(index, probes, &idx);
  PKGM_CHECK_EQ(mem_sink, idx_sink);  // identical answers along the way

  TablePrinter t({"backend", "rss delta", "contains p50", "tails p50",
                  "heads p50", "relationsof p50"});
  for (const BackendResult* r : {&mem, &idx}) {
    t.AddRow({r->name, WithThousandsSeparators(r->rss_delta),
              StrFormat("%.3f us", r->contains_p50_us),
              StrFormat("%.3f us", r->tails_p50_us),
              StrFormat("%.3f us", r->heads_p50_us),
              StrFormat("%.3f us", r->relations_p50_us)});
  }
  std::printf("%s\n", t.ToString().c_str());

  std::printf("index build: %s triples in %.2fs (%.0f triples/s), "
              "%s bytes on disk\n",
              WithThousandsSeparators(build.num_triples).c_str(),
              build.seconds,
              static_cast<double>(build.num_triples) / build.seconds,
              WithThousandsSeparators(build.file_bytes).c_str());
  std::printf("verified open: %.3f ms\n", open_ms);

  const double rss_ratio = mem.rss_delta == 0
                               ? 0.0
                               : static_cast<double>(idx.rss_delta) /
                                     static_cast<double>(mem.rss_delta);
  std::printf("mmap-index RSS is %.1f%% of the in-memory store "
              "(target <= ~60%%)\n",
              100.0 * rss_ratio);
  const bool pass = idx.rss_delta < mem.rss_delta && rss_ratio <= 0.6;
  std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject()
        .Field("smoke", smoke)
        .Key("config")
        .BeginObject()
        .Field("triples", triples.size())
        .Field("categories", c.num_categories)
        .Field("items_per_category", c.items_per_category)
        .Field("point_lookups", c.point_lookups)
        .EndObject()
        .Key("build")
        .BeginObject()
        .Field("triples_per_second",
               static_cast<double>(build.num_triples) / build.seconds)
        .Field("file_bytes", build.file_bytes)
        .Field("spo_runs", build.spo_runs)
        .Field("pos_runs", build.pos_runs)
        .Field("osp_runs", build.osp_runs)
        .EndObject()
        .Key("backends")
        .BeginArray();
    for (const BackendResult* r : {&mem, &idx}) {
      json.BeginObject()
          .Field("name", r->name)
          .Field("rss_delta_bytes", r->rss_delta)
          .Field("contains_p50_us", r->contains_p50_us)
          .Field("tails_p50_us", r->tails_p50_us)
          .Field("heads_p50_us", r->heads_p50_us)
          .Field("relationsof_p50_us", r->relations_p50_us)
          .EndObject();
    }
    json.EndArray()
        .Field("open_ms", open_ms)
        .Field("rss_ratio", rss_ratio)
        .Field("pass", pass)
        .EndObject();
    const Status written = WriteJsonFile(json_path, json.str());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  std::remove(index_path.c_str());
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
      std::fprintf(stderr,
                   "usage: bench_kg_index [--smoke] [--json out.json]\n");
      return 2;
    }
  }
  return pkgm::Run(smoke, json_path);
}
