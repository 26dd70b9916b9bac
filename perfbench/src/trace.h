// In-memory span recorder for the traced run. Spans are kept in memory
// while the run measures and written out as JSON lines when it ends, so
// recording costs a clock read and a vector append.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pkgm::perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  /// Static string: "client.request", "core.run_epoch", "replay.<...>".
  const char* name = "";
  uint64_t id = 0;
  /// Id of the span that caused this one (0 = root).
  uint64_t parent = 0;
  Clock::time_point start;
  Clock::time_point end;
  /// Static tag, e.g. the task kind of a request; "" when none.
  const char* tag = "";
  /// Operations this span covers (a replay span may time a loop of calls).
  uint64_t ops = 1;

  double micros() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

class Tracer {
 public:
  /// Fresh id for a span recorded later.
  uint64_t NewId();
  void Record(const Span& span);
  /// Moves a batch of spans recorded privately by one thread.
  void Append(std::vector<Span>* spans);

  /// Durations in microseconds of every span named `name` (and tagged
  /// `tag`, unless tag is null).
  std::vector<double> Micros(const char* name, const char* tag = nullptr) const;
  /// Total nanoseconds per covered operation over spans named `name`.
  double NanosPerOp(const char* name) const;

  size_t size() const;
  /// Writes one JSON object per span; start/end are ns since `origin`.
  bool WriteJsonLines(const std::string& path, Clock::time_point origin) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Records [construction, destruction) as one span on `tracer` (no-op when
/// tracer is null).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent = 0,
             const char* tag = "", uint64_t ops = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

}  // namespace pkgm::perfbench

#endif  // PERFBENCH_TRACE_H_
