#include "flat_json.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>

namespace pkgm {

/// Recursive descent over RFC 8259's grammar, appending each scalar to
/// `entries` as it is read.
class FlatJsonParser {
 public:
  using Entry = FlatJson::Entry;
  using Kind = FlatJson::Kind;

  FlatJsonParser(std::string_view text, std::vector<Entry>* entries)
      : text_(text), entries_(entries) {}

  bool ParseDocument() {
    if (!ParseValue("")) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
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

  static std::string Join(const std::string& parent, const std::string& key) {
    return parent.empty() ? key : parent + "." + key;
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
        SkipSpace();
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
      entries_->push_back({path, Kind::kString, std::move(s)});
      return true;
    }
    for (const std::string_view word : {"true", "false", "null"}) {
      if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        entries_->push_back({path, Kind::kLiteral, std::string(word)});
        return true;
      }
    }
    return ParseNumber(path);
  }

  /// -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  bool ParseNumber(const std::string& path) {
    const size_t start = pos_;
    const auto digits = [this] {
      const size_t from = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ - from;
    };
    const auto at = [this](char c) {
      return pos_ < text_.size() && text_[pos_] == c;
    };
    if (at('-')) ++pos_;
    if (at('0')) {
      ++pos_;
    } else if (digits() == 0) {
      return false;
    }
    if (at('.')) {
      ++pos_;
      if (digits() == 0) return false;
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (digits() == 0) return false;
    }
    entries_->push_back(
        {path, Kind::kNumber, std::string(text_.substr(start, pos_ - start))});
    return true;
  }

  bool ParseHex4(uint32_t* code) {
    if (pos_ + 4 > text_.size()) return false;
    *code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      *code <<= 4;
      if (h >= '0' && h <= '9') {
        *code |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        *code |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        *code |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return false;
      }
    }
    return true;
  }

  static void AppendUtf8(uint32_t code, std::string* s) {
    if (code < 0x80) {
      s->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (code >> 6)));
      s->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (code >> 12)));
      s->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (code >> 18)));
      s->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  /// A string literal at pos_; raw control characters are refused.
  bool ParseString(std::string* s) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    s->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        s->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      switch (text_[pos_++]) {
        case '"': s->push_back('"'); break;
        case '\\': s->push_back('\\'); break;
        case '/': s->push_back('/'); break;
        case 'b': s->push_back('\b'); break;
        case 'f': s->push_back('\f'); break;
        case 'n': s->push_back('\n'); break;
        case 'r': s->push_back('\r'); break;
        case 't': s->push_back('\t'); break;
        case 'u': {
          uint32_t code = 0;
          if (!ParseHex4(&code)) return false;
          // A high surrogate followed by an escaped low one is one code
          // point above the BMP.
          if (code >= 0xD800 && code < 0xDC00 &&
              text_.substr(pos_, 2) == "\\u") {
            pos_ += 2;
            uint32_t low = 0;
            if (!ParseHex4(&low) || low < 0xDC00 || low >= 0xE000) {
              return false;
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          }
          AppendUtf8(code, s);
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<Entry>* entries_;
};

std::optional<FlatJson> FlatJson::Parse(std::string_view text) {
  FlatJson doc;
  if (!FlatJsonParser(text, &doc.entries_).ParseDocument()) {
    return std::nullopt;
  }
  std::set<std::string_view> seen;
  for (const Entry& e : doc.entries_) {
    if (!seen.insert(e.path).second) return std::nullopt;
  }
  return doc;
}

std::vector<std::string> FlatJson::Paths() const {
  std::vector<std::string> paths;
  paths.reserve(entries_.size());
  for (const Entry& e : entries_) paths.push_back(e.path);
  return paths;
}

bool FlatJson::Has(std::string_view path) const {
  for (const Entry& e : entries_) {
    const std::string_view p = e.path;
    if (p == path ||
        (p.size() > path.size() && p.substr(0, path.size()) == path &&
         p[path.size()] == '.')) {
      return true;
    }
  }
  return false;
}

const FlatJson::Entry* FlatJson::Find(std::string_view path) const {
  for (const Entry& e : entries_) {
    if (e.path == path) return &e;
  }
  return nullptr;
}

double FlatJson::Num(std::string_view path) const {
  const Entry* e = Find(path);
  if (e == nullptr || e->kind != Kind::kNumber) return std::nan("");
  return std::strtod(e->value.c_str(), nullptr);
}

std::string FlatJson::Str(std::string_view path) const {
  const Entry* e = Find(path);
  return e != nullptr && e->kind == Kind::kString ? e->value : std::string();
}

}  // namespace pkgm
