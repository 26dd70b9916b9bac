#ifndef PKGM_UTIL_JSON_H_
#define PKGM_UTIL_JSON_H_

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace pkgm {

/// The one JSON writer: the daemons' kStats snapshots, `.pkgi` inspection
/// and the bench artifacts all go through it. Streaming and option-free:
/// members land in call order with no whitespace, strings are escaped per
/// RFC 8259, integers print as integers, floating-point values in their
/// shortest round-trip form (std::to_chars) and a non-finite one as null.
///
///   JsonWriter w;
///   w.BeginObject().Field("ok", 3).Key("latency").BeginObject()
///       .Field("p50_us", 12.5).EndObject().EndObject();
///   w.str();  // {"ok":3,"latency":{"p50_us":12.5}}
///
/// Each scalar is also recorded with its dotted path ("ok",
/// "latency.p50_us"; an array element's key is its index), so a report can
/// list a document's values without naming them again. Misuse (a value
/// where a key is due, unbalanced ends, two roots) fails a PKGM_CHECK.
class JsonWriter {
 public:
  struct Scalar {
    std::string path;
    /// A string's own characters; any other value's JSON spelling.
    std::string text;
  };

  JsonWriter& BeginObject() { return Begin('{', '}'); }
  JsonWriter& EndObject() { return End('}'); }
  JsonWriter& BeginArray() { return Begin('[', ']'); }
  JsonWriter& EndArray() { return End(']'); }
  /// Names the next value; only inside an object.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Value(std::string_view s);
  /// A bool, an integer or a floating-point number.
  template <typename T>
    requires std::is_arithmetic_v<T>
  JsonWriter& Value(T v) {
    if constexpr (std::is_same_v<T, bool>) {
      return Put(v ? "true" : "false");
    } else if (std::is_floating_point_v<T> && !std::isfinite(v)) {
      return Put("null");
    } else {
      char buf[64];
      return Put(std::string_view(buf, std::to_chars(buf, buf + 64, v).ptr));
    }
  }
  template <typename T>
  JsonWriter& Value(const std::vector<T>& values) {
    BeginArray();
    for (const T& v : values) Value(v);
    return EndArray();
  }
  /// Key(key).Value(value).
  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }

  /// The document; complete once the root value has ended.
  const std::string& str() const { return out_; }
  /// Every scalar written so far, in document order.
  const std::vector<Scalar>& scalars() const { return scalars_; }

 private:
  struct Open {
    char end;
    size_t members;
    std::string path;
  };

  /// Writes `json` as the next value; scalars() records `text` for it.
  JsonWriter& Put(std::string_view json, std::string_view text);
  JsonWriter& Put(std::string_view json) { return Put(json, json); }
  /// Writes the separator before the next value and returns its path.
  std::string NextPath();
  JsonWriter& Begin(char bracket, char end);
  JsonWriter& End(char bracket);

  std::string out_;
  std::vector<Scalar> scalars_;
  std::vector<Open> open_;
  /// The next member's key while one is due.
  std::optional<std::string> key_;
};

/// Writes `document` and a newline to `path`.
Status WriteJsonFile(const std::string& path, std::string_view document);

}  // namespace pkgm

#endif  // PKGM_UTIL_JSON_H_
