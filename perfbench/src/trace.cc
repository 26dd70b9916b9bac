#include "trace.h"

#include <cstdio>

namespace pkgm::perfbench {

uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void Tracer::Append(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

std::vector<double> Tracer::Micros(const char* name, const char* tag) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    if (tag != nullptr && std::string_view(s.tag) != tag) continue;
    out.push_back(s.micros());
  }
  return out;
}

double Tracer::NanosPerOp(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double micros = 0.0;
  uint64_t ops = 0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) != name) continue;
    micros += s.micros();
    ops += s.ops;
  }
  return ops == 0 ? 0.0 : micros * 1000.0 / static_cast<double>(ops);
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::WriteJsonLines(const std::string& path,
                            Clock::time_point origin) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"tag\":\"%s\","
                 "\"ops\":%llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), ns(s.start),
                 ns(s.end), s.tag, static_cast<unsigned long long>(s.ops));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
                       const char* tag, uint64_t ops)
    : tracer_(tracer) {
  span_.name = name;
  span_.parent = parent;
  span_.tag = tag;
  span_.ops = ops;
  if (tracer_ != nullptr) span_.id = tracer_->NewId();
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  tracer_->Record(span_);
}

}  // namespace pkgm::perfbench
