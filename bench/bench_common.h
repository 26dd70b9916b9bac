#ifndef PKGM_BENCH_BENCH_COMMON_H_
#define PKGM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "tasks/pipeline.h"
#include "text/title_generator.h"
#include "util/string_util.h"

namespace pkgm::bench {

/// Standard bench-scale pipeline configuration shared by the table benches
/// so every experiment runs against the same pre-trained PKGM, mirroring
/// the paper's single pre-training feeding all three tasks.
inline tasks::PipelineOptions BenchPipelineOptions() {
  tasks::PipelineOptions opt;
  opt.pkg.seed = 2021;  // ICDE 2021
  opt.pkg.num_categories = 20;
  opt.pkg.items_per_category = 250;
  opt.pkg.properties_per_category = 12;
  opt.pkg.shared_property_pool = 16;
  opt.pkg.values_per_property = 40;
  opt.pkg.products_per_category = 40;
  opt.pkg.identity_properties = 3;
  opt.pkg.observed_fill_rate = 0.75;
  opt.pkg.noise_properties = 8;
  opt.pkg.noise_property_occurrences = 3;
  opt.pkg.etl_min_occurrence = 10;

  opt.dim = 32;
  opt.trainer.learning_rate = 0.05f;
  opt.trainer.margin = 2.0f;
  opt.trainer.batch_size = 512;
  opt.pretrain_epochs = 30;
  opt.service_k = 10;  // paper: top-10 key relations
  opt.seed = 2021;
  return opt;
}

/// Title generator with the library defaults (noisy seller titles).
inline text::TitleGeneratorOptions BenchTitleOptions() {
  return text::TitleGeneratorOptions{};
}

/// VmRSS from /proc/self/status, in bytes (0 if unavailable).
inline uint64_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<uint64_t>(kb) * 1024;
}

/// Prints a section header so bench output is navigable.
inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

/// Prints the standing caveat once per bench.
inline void PrintScaleNote() {
  std::printf(
      "note: paper numbers come from Alibaba's proprietary billion-scale\n"
      "stack (1.37B-triple KG, Chinese BERT-base, Taobao click logs); this\n"
      "harness reruns the same experiment design on a synthetic PKG and\n"
      "from-scratch substrates, so compare *shapes* (who wins, by roughly\n"
      "what factor), not absolute values.\n");
}

}  // namespace pkgm::bench

#endif  // PKGM_BENCH_BENCH_COMMON_H_
