#include "aggregate.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

#include "util/histogram.h"

namespace pkgm::perfbench {

double Percentile(const std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  Histogram h;
  for (double v : values) h.Record(v);
  return h.Percentile(q);
}

double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

double QuietWeight(const std::vector<Unit>& units) {
  double w = 0.0;
  for (const Unit& u : units) w += u.steal <= kStealCeiling ? u.weight : 0.0;
  return w;
}

std::vector<size_t> ChooseQuietUnits(const std::vector<Unit>& units,
                                     double want) {
  std::vector<size_t> order(units.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return units[a].steal < units[b].steal;
  });
  std::vector<size_t> chosen;
  double weight = 0.0;
  for (size_t i : order) {
    if (units[i].steal > kStealCeiling && !chosen.empty() &&
        weight >= kMinQuietShare * want) {
      break;
    }
    chosen.push_back(i);
    weight += units[i].weight;
  }
  std::sort(chosen.begin(), chosen.end());
  return chosen;
}

double FlatJson::Num(const std::string& path, double fallback) const {
  auto it = numbers.find(path);
  return it == numbers.end() ? fallback : it->second;
}

std::string FlatJson::Str(const std::string& path) const {
  auto it = strings.find(path);
  return it == strings.end() ? std::string() : it->second;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  bool ParseDocument(FlatJson* out) {
    out_ = out;
    if (!ParseValue("")) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  static std::string Join(const std::string& prefix, const std::string& key) {
    return prefix.empty() ? key : prefix + "." + key;
  }

  bool ParseString(std::string* s) {
    if (!Consume('"')) return false;
    s->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case 'n': s->push_back('\n'); break;
          case 't': s->push_back('\t'); break;
          case 'r': s->push_back('\r'); break;
          case 'b': s->push_back('\b'); break;
          case 'f': s->push_back('\f'); break;
          case 'u':
            // Non-ASCII escapes never occur in the daemons' stats; keep
            // the raw escape rather than decode UTF-16.
            if (pos_ + 4 > text_.size()) return false;
            s->append("\\u");
            s->append(text_.substr(pos_, 4));
            pos_ += 4;
            break;
          default: s->push_back(e); break;
        }
      } else {
        s->push_back(c);
      }
    }
    return false;
  }

  bool ParseValue(const std::string& path) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      if (Consume('}')) return true;
      do {
        std::string key;
        if (!ParseString(&key) || !Consume(':')) return false;
        if (!ParseValue(Join(path, key))) return false;
      } while (Consume(','));
      return Consume('}');
    }
    if (c == '[') {
      ++pos_;
      if (Consume(']')) return true;
      size_t index = 0;
      do {
        if (!ParseValue(Join(path, std::to_string(index++)))) return false;
      } while (Consume(','));
      return Consume(']');
    }
    if (c == '"') {
      std::string s;
      if (!ParseString(&s)) return false;
      out_->strings[path] = std::move(s);
      return true;
    }
    for (const char* word : {"true", "false", "null"}) {
      const std::string_view w(word);
      if (text_.substr(pos_, w.size()) == w) {
        pos_ += w.size();
        if (w != "null") out_->strings[path] = std::string(w);
        return true;
      }
    }
    const std::string rest(text_.substr(pos_, 64));
    char* end = nullptr;
    const double v = std::strtod(rest.c_str(), &end);
    if (end == rest.c_str()) return false;
    pos_ += static_cast<size_t>(end - rest.c_str());
    out_->numbers[path] = v;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  FlatJson* out_ = nullptr;
};

}  // namespace

std::optional<FlatJson> ParseJson(std::string_view text) {
  FlatJson out;
  if (!JsonReader(text).ParseDocument(&out)) return std::nullopt;
  return out;
}

std::map<std::string, double> JsonDelta(const FlatJson& before,
                                        const FlatJson& after) {
  std::map<std::string, double> delta;
  for (const auto& [path, value] : after.numbers) {
    delta[path] = value - before.Num(path);
  }
  return delta;
}

std::optional<CpuTimes> ParseProcStat(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    if (label != "cpu") continue;
    CpuTimes t;
    uint64_t v = 0;
    int index = 0;
    while (fields >> v) {
      t.total += v;
      if (index == 7) t.steal = v;
      ++index;
    }
    if (index < 8) return std::nullopt;
    return t;
  }
  return std::nullopt;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

namespace {

/// Fields after the parenthesised command name of /proc/<pid>/stat, the
/// first being the state (field 3).
std::optional<std::vector<std::string>> StatFieldsAfterComm(
    std::string_view text, std::string* comm) {
  const size_t open = text.find('(');
  const size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return std::nullopt;
  }
  if (comm != nullptr) *comm = std::string(text.substr(open + 1, close - open - 1));
  std::istringstream in{std::string(text.substr(close + 1))};
  std::vector<std::string> fields;
  std::string f;
  while (in >> f) fields.push_back(f);
  return fields;
}

}  // namespace

std::optional<uint64_t> ParsePidCpuTicks(std::string_view text) {
  auto fields = StatFieldsAfterComm(text, nullptr);
  // utime and stime are fields 14 and 15; fields[0] is field 3.
  if (!fields || fields->size() < 13) return std::nullopt;
  return std::strtoull((*fields)[11].c_str(), nullptr, 10) +
         std::strtoull((*fields)[12].c_str(), nullptr, 10);
}

bool ParsePidParent(std::string_view text, int* ppid, std::string* comm) {
  auto fields = StatFieldsAfterComm(text, comm);
  if (!fields || fields->size() < 2) return false;
  *ppid = std::atoi((*fields)[1].c_str());
  return true;
}

std::optional<uint64_t> ParseVmHwmKb(std::string_view text) {
  const size_t at = text.find("VmHWM:");
  if (at == std::string_view::npos) return std::nullopt;
  const std::string rest(text.substr(at + 6, 32));
  char* end = nullptr;
  const unsigned long long kb = std::strtoull(rest.c_str(), &end, 10);
  if (end == rest.c_str()) return std::nullopt;
  return kb;
}

bool ParseCatchesSignal(std::string_view text, int signum) {
  const size_t at = text.find("SigCgt:");
  if (at == std::string_view::npos || signum < 1 || signum > 64) return false;
  const std::string rest(text.substr(at + 7, 32));
  char* end = nullptr;
  const unsigned long long mask = std::strtoull(rest.c_str(), &end, 16);
  if (end == rest.c_str()) return false;
  return (mask >> (signum - 1)) & 1ULL;
}

}  // namespace pkgm::perfbench
