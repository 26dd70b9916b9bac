#include "util/json.h"

#include <cstdio>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm {
namespace {

/// `s` as a JSON string: the quote, the backslash and the control
/// characters escaped (RFC 8259 §7), every other byte as is.
std::string Quoted(std::string_view s) {
  std::string json = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': json += "\\\""; break;
      case '\\': json += "\\\\"; break;
      case '\b': json += "\\b"; break;
      case '\f': json += "\\f"; break;
      case '\n': json += "\\n"; break;
      case '\r': json += "\\r"; break;
      case '\t': json += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          json += StrFormat("\\u%04x", static_cast<unsigned char>(c));
        } else {
          json.push_back(c);
        }
    }
  }
  return json + "\"";
}

}  // namespace

JsonWriter& JsonWriter::Key(std::string_view key) {
  PKGM_CHECK(!open_.empty() && open_.back().end == '}' && !key_)
      << "a key where a value is due: " << key;
  out_ += (open_.back().members > 0 ? "," : "") + Quoted(key) + ":";
  key_ = key;
  return *this;
}

JsonWriter& JsonWriter::Value(std::string_view s) { return Put(Quoted(s), s); }

std::string JsonWriter::NextPath() {
  if (open_.empty()) {
    PKGM_CHECK(out_.empty()) << "a JSON document has one root value";
    return "";
  }
  Open& parent = open_.back();
  std::string name;
  if (parent.end == ']') {
    if (parent.members > 0) out_.push_back(',');
    name = std::to_string(parent.members);
  } else {
    PKGM_CHECK(key_) << "an object member needs a key";
    name = *std::exchange(key_, std::nullopt);
  }
  ++parent.members;
  return parent.path.empty() ? name : parent.path + "." + name;
}

JsonWriter& JsonWriter::Put(std::string_view json, std::string_view text) {
  scalars_.push_back({NextPath(), std::string(text)});
  out_ += json;
  return *this;
}

JsonWriter& JsonWriter::Begin(char bracket, char end) {
  open_.push_back({end, 0, NextPath()});
  out_.push_back(bracket);
  return *this;
}

JsonWriter& JsonWriter::End(char bracket) {
  PKGM_CHECK(!open_.empty() && open_.back().end == bracket && !key_)
      << "unbalanced '" << bracket << "'";
  open_.pop_back();
  out_.push_back(bracket);
  return *this;
}

Status WriteJsonFile(const std::string& path, std::string_view document) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const bool written = std::fprintf(f, "%.*s\n",
                                    static_cast<int>(document.size()),
                                    document.data()) >= 0;
  if (std::fclose(f) != 0 || !written) {
    return Status::IoError("cannot write " + path);
  }
  return Status::Ok();
}

}  // namespace pkgm
