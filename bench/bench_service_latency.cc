// Serving-path bench for §II-D's deployment claims: latency of answering
// triple / relation queries from the symbolic store vs producing the
// equivalent PKGM service vectors, plus batch service-vector throughput
// (sequence and condensed forms).

#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "util/histogram.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace pkgm {
namespace {

void Run() {
  bench::PrintHeader("Service latency: symbolic queries vs vector services");

  tasks::PipelineOptions opt = bench::BenchPipelineOptions();
  opt.pretrain_epochs = 5;  // serving latency does not depend on quality
  std::printf("building pipeline (short pre-train; latency only) ...\n");
  tasks::PretrainedPkgm p = tasks::BuildAndPretrain(opt);
  const kg::SyntheticPkg& pkg = p.pkg;

  const uint32_t rounds = 20000;
  Rng rng(3);

  // Draws an item that has at least one key relation: the provider
  // explicitly allows empty key lists, and indexing rels[Uniform(0)] would
  // be UB. Also keeps the item and its relation list consistent (both loops
  // previously sampled them independently).
  auto sample_item = [&](Rng* r) {
    for (;;) {
      const uint32_t item =
          static_cast<uint32_t>(r->Uniform(p.services->num_items()));
      if (p.services->NumKeyRelations(item) > 0) return item;
    }
  };

  // --- symbolic path -------------------------------------------------------
  Histogram symbolic_triple_us, symbolic_relation_us;
  {
    Stopwatch sw;
    uint64_t sink = 0;
    for (uint32_t i = 0; i < rounds; ++i) {
      const uint32_t idx = sample_item(&rng);
      const auto& item = pkg.items[idx];
      const auto& rels = p.services->key_relations(idx);
      kg::RelationId r = rels[rng.Uniform(rels.size())];
      Stopwatch q;
      sink += pkg.observed.Tails(item.entity, r).size();
      symbolic_triple_us.Record(q.ElapsedSeconds() * 1e6);
      q.Reset();
      sink += pkg.observed.RelationsOf(item.entity).size();
      symbolic_relation_us.Record(q.ElapsedSeconds() * 1e6);
    }
    std::printf("symbolic: %u triple + %u relation queries in %.2fs (sink %llu)\n",
                rounds, rounds, sw.ElapsedSeconds(),
                static_cast<unsigned long long>(sink));
  }

  // --- vector path ---------------------------------------------------------
  Histogram vector_triple_us, vector_relation_us;
  {
    std::vector<float> out(p.model->dim());
    for (uint32_t i = 0; i < rounds; ++i) {
      const uint32_t idx = sample_item(&rng);
      const auto& item = pkg.items[idx];
      const auto& rels = p.services->key_relations(idx);
      kg::RelationId r = rels[rng.Uniform(rels.size())];
      Stopwatch q;
      p.model->TripleService(item.entity, r, out.data());
      vector_triple_us.Record(q.ElapsedSeconds() * 1e6);
      q.Reset();
      p.model->RelationService(item.entity, r, out.data());
      vector_relation_us.Record(q.ElapsedSeconds() * 1e6);
    }
  }

  TablePrinter t({"Path", "query", "p50 us", "p95 us", "p99 us", "mean us"});
  auto add = [&](const char* path, const char* q, const Histogram& h) {
    t.AddRow({path, q, StrFormat("%.3f", h.Percentile(0.5)),
              StrFormat("%.3f", h.Percentile(0.95)),
              StrFormat("%.3f", h.Percentile(0.99)),
              StrFormat("%.3f", h.Mean())});
  };
  add("symbolic store", "(h, r, ?t)", symbolic_triple_us);
  add("symbolic store", "(h, ?r)", symbolic_relation_us);
  add("PKGM vectors", "S_T(h,r) = h + r", vector_triple_us);
  add("PKGM vectors", "S_R(h,r) = M_r h - r", vector_relation_us);
  std::printf("\nper-query latency (d=%u):\n%s", p.model->dim(),
              t.ToString().c_str());

  // --- batch service-vector throughput -------------------------------------
  {
    Stopwatch sw;
    uint64_t vectors = 0;
    for (uint32_t i = 0; i < p.services->num_items(); ++i) {
      vectors += p.services->Sequence(i, core::ServiceMode::kAll).size();
    }
    const double seq_s = sw.ElapsedSeconds();
    sw.Reset();
    uint64_t condensed = 0;
    for (uint32_t i = 0; i < p.services->num_items(); ++i) {
      condensed += p.services->Condensed(i, core::ServiceMode::kAll).size();
    }
    const double cond_s = sw.ElapsedSeconds();
    std::printf(
        "\nbatch serving all %u items (k=%u key relations):\n"
        "  sequence form : %s vectors in %.3fs (%.0f vectors/s)\n"
        "  condensed form: %u items in %.3fs (%.0f items/s)\n",
        p.services->num_items(), p.services->NumKeyRelations(0),
        WithThousandsSeparators(vectors).c_str(), seq_s,
        static_cast<double>(vectors) / seq_s, p.services->num_items(), cond_s,
        p.services->num_items() / cond_s);
    (void)condensed;
  }

  std::printf(
      "\nthe vector path additionally answers queries the symbolic path\n"
      "cannot: see bench_link_prediction for completion quality.\n");
}

}  // namespace
}  // namespace pkgm

int main() {
  pkgm::Run();
  return 0;
}
