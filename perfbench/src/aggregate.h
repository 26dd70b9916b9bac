// Aggregation helpers of the benchmark: order statistics over samples, a
// small JSON reader for the daemons' StatsJson snapshots, and parsers for
// the /proc files the benchmark reads (CPU time, peak RSS, host steal).
// Everything here is pure (text in, numbers out) so it is unit-tested
// without running a daemon.
#ifndef PERFBENCH_AGGREGATE_H_
#define PERFBENCH_AGGREGATE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pkgm::perfbench {

/// q-quantile (q in [0, 1]) of `values`, exact (pkgm::Histogram's
/// closest-rank interpolation); 0 for an empty sample.
double Percentile(const std::vector<double>& values, double q);

/// Percentile(values, 0.5).
double Median(const std::vector<double>& values);

/// num / den, or 0 when nothing was counted (den <= 0).
inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// A parsed JSON document flattened to dotted paths: {"a":{"b":1}} gives
/// numbers["a.b"] = 1. Strings and booleans go to `strings` ("true" /
/// "false" for booleans); arrays are indexed as path.0, path.1, ...
struct FlatJson {
  std::map<std::string, double> numbers;
  std::map<std::string, std::string> strings;

  /// numbers[path], or `fallback` when absent.
  double Num(const std::string& path, double fallback = 0.0) const;
  /// strings[path], or "" when absent.
  std::string Str(const std::string& path) const;
};

/// Parses one JSON value. Returns nullopt on malformed input.
std::optional<FlatJson> ParseJson(std::string_view text);

/// after.numbers[path] - before.numbers[path] for every numeric path of
/// `after` (paths missing from `before` count from 0).
std::map<std::string, double> JsonDelta(const FlatJson& before,
                                        const FlatJson& after);

/// Host steal share at or below which a unit of measurement (a time
/// slice, an epoch, a daemon launch) counts as quiet. Steal on this kind of
/// VM comes in stretches of seconds to minutes and slows every timing (at
/// 20% host steal the serving loop runs at a third of its quiet rate), so
/// the timed figures come from quiet units only: a run measures until it
/// has enough of them, so runs made on a busy host and on an idle one
/// compare like with like as far as steal shows. Quiet hosts read 0-2% per
/// unit under load.
constexpr double kStealCeiling = 0.03;

/// A unit of measurement: how much it counts toward the wanted amount
/// (seconds of epochs, one per slice or launch) and its host steal share.
struct Unit {
  double weight = 1.0;
  double steal = 0.0;
};

/// Share of the wanted quiet weight a figure rests on at least.
constexpr double kMinQuietShare = 0.25;

/// A pass that finds too few quiet units stops at this multiple of the
/// wanted amount (seconds of slices or epochs, launches).
constexpr double kMaxWantFactor = 2.0;

/// Summed weight of the units whose steal is at most kStealCeiling.
double QuietWeight(const std::vector<Unit>& units);

/// Indices, in index order, of the units a figure is taken over: every
/// quiet unit, topped up, when their weights add up to less than
/// kMinQuietShare of `want` (a run that found too few), with the
/// least-stolen other units until they do; at least one unit. Selection
/// reads only the host's steal counter, never the figure being reported.
std::vector<size_t> ChooseQuietUnits(const std::vector<Unit>& units,
                                     double want);

/// CPU jiffies of the aggregate "cpu" line of /proc/stat.
struct CpuTimes {
  uint64_t total = 0;  ///< sum of every field
  uint64_t steal = 0;  ///< 8th field
};
std::optional<CpuTimes> ParseProcStat(std::string_view text);

/// Share of `after - before` CPU time the hypervisor stole, in [0, 1].
double StealShare(const CpuTimes& before, const CpuTimes& after);

/// utime + stime (clock ticks) from the text of /proc/<pid>/stat. The
/// command name is parenthesised and may itself contain spaces and ')'.
std::optional<uint64_t> ParsePidCpuTicks(std::string_view text);

/// Parent pid and command name from the text of /proc/<pid>/stat.
bool ParsePidParent(std::string_view text, int* ppid, std::string* comm);

/// VmHWM (peak resident set) in kB from the text of /proc/<pid>/status.
std::optional<uint64_t> ParseVmHwmKb(std::string_view text);

/// Whether the SigCgt mask in the text of /proc/<pid>/status says the
/// process has a handler installed for `signum`.
bool ParseCatchesSignal(std::string_view text, int signum);

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_AGGREGATE_H_
