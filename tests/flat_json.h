// A strict JSON reader for tests. The daemons' stats snapshots, `.pkgi`
// inspections and bench artifacts are read back through it by key path and
// value, never by searching their text, so a test pins what a document
// says and not how it is spaced.
#ifndef PKGM_TESTS_FLAT_JSON_H_
#define PKGM_TESTS_FLAT_JSON_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pkgm {

/// One JSON document flattened to dotted paths, in document order:
/// {"a":{"b":1},"c":["x",true]} holds a.b = 1, c.0 = "x" and c.1 = true
/// (an array element's key is its index). Only scalars are kept, so an
/// empty object or array leaves no path.
class FlatJson {
 public:
  /// Parses `text` per RFC 8259: one value, whitespace around it allowed.
  /// nullopt when it is not valid JSON or names one path twice.
  static std::optional<FlatJson> Parse(std::string_view text);

  /// Every scalar's path, in document order.
  std::vector<std::string> Paths() const;
  /// Whether `path` is a scalar's path or a prefix of one ("net" of
  /// "net.frames_in").
  bool Has(std::string_view path) const;
  /// The number at `path`; NaN when the path holds no number.
  double Num(std::string_view path) const;
  /// The string at `path`, unescaped; "" when the path holds no string.
  std::string Str(std::string_view path) const;

 private:
  enum class Kind { kString, kNumber, kLiteral };
  struct Entry {
    std::string path;
    Kind kind;
    /// A string's unescaped characters; a number's or literal's spelling.
    std::string value;
  };
  friend class FlatJsonParser;

  const Entry* Find(std::string_view path) const;

  std::vector<Entry> entries_;
};

}  // namespace pkgm

#endif  // PKGM_TESTS_FLAT_JSON_H_
