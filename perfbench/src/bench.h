// Types shared by the workloads and main.cc.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace pkgm::perfbench {

struct RunOptions {
  uint64_t seed = 1;
  /// Directory holding the pkgm_netd and pkgm_psd binaries.
  std::string bin_dir;
  /// Scratch directory for port files, daemon logs and traces.
  std::string work_dir;
};

/// What one pass of a workload measured. `metrics` holds the end-to-end
/// metrics of an untraced pass, plus the per-layer ones a traced pass adds.
struct PassResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Output checks that failed, one line each; empty = correct.
  std::vector<std::string> check_failures;
  std::map<std::string, double> metrics;
  /// Diagnostics printed beside the metrics, never gated.
  std::map<std::string, std::string> notes;

  void Fail(const std::string& what) { check_failures.push_back(what); }
  /// Folds `other`'s counts, checks and notes into this result (metrics
  /// already present here win).
  void Merge(const PassResult& other) {
    attempted += other.attempted;
    failed += other.failed;
    check_failures.insert(check_failures.end(), other.check_failures.begin(),
                          other.check_failures.end());
    metrics.insert(other.metrics.begin(), other.metrics.end());
    notes.insert(other.notes.begin(), other.notes.end());
  }
};

/// Spans of a traced pass, or null for an untraced one.
struct TraceContext {
  Tracer* tracer = nullptr;
  /// Span all of the pass's spans hang under.
  uint64_t root = 0;
};

/// steady_clock seconds since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_BENCH_H_
