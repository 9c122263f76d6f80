#include "report/json_reader.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "report/json_writer.h"

namespace ocdd::report {

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(std::map<std::string, JsonValue> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {
const JsonValue& SharedNull() {
  static const JsonValue& null = *new JsonValue();
  return null;
}
}  // namespace

const JsonValue& JsonValue::operator[](const std::string& key) const {
  if (kind_ != Kind::kObject) return SharedNull();
  auto it = object_.find(key);
  return it == object_.end() ? SharedNull() : it->second;
}

const JsonValue& JsonValue::operator[](std::size_t index) const {
  if (kind_ != Kind::kArray || index >= array_.size()) return SharedNull();
  return array_[index];
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind_ != b.kind_) return false;
  switch (a.kind_) {
    case JsonValue::Kind::kNull:
      return true;
    case JsonValue::Kind::kBool:
      return a.bool_ == b.bool_;
    case JsonValue::Kind::kNumber:
      return a.number_ == b.number_;
    case JsonValue::Kind::kString:
      return a.string_ == b.string_;
    case JsonValue::Kind::kArray:
      return a.array_ == b.array_;
    case JsonValue::Kind::kObject:
      return a.object_ == b.object_;
  }
  return false;
}

namespace {

/// Recursive-descent parser over a string view with position tracking.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    OCDD_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::ParseError(what + " at offset " + std::to_string(pos_));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    std::size_t len = 0;
    while (word[len] != '\0') ++len;
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    if (++depth_ > 128) return Err("nesting too deep");
    struct DepthGuard {
      int& d;
      ~DepthGuard() { --d; }
    } guard{depth_};
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') {
      OCDD_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue::Bool(true);
    if (ConsumeWord("false")) return JsonValue::Bool(false);
    if (ConsumeWord("null")) return JsonValue();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject() {
    Consume('{');
    std::map<std::string, JsonValue> members;
    SkipWs();
    if (Consume('}')) return JsonValue::Object(std::move(members));
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      OCDD_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (!Consume(':')) return Err("expected ':'");
      OCDD_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      members[std::move(key)] = std::move(value);
      SkipWs();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Err("expected ',' or '}'");
    }
    return JsonValue::Object(std::move(members));
  }

  Result<JsonValue> ParseArray() {
    Consume('[');
    std::vector<JsonValue> items;
    SkipWs();
    if (Consume(']')) return JsonValue::Array(std::move(items));
    for (;;) {
      OCDD_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      items.push_back(std::move(value));
      SkipWs();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Err("expected ',' or ']'");
    }
    return JsonValue::Array(std::move(items));
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("dangling escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Err("bad \\u escape");
              }
            }
            // The writer only emits \u00xx for control bytes; decode the
            // BMP code point as UTF-8.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
        continue;
      }
      out += c;
    }
    return Err("unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool digits = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!digits) return Err("malformed number");
    return JsonValue::Number(
        std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void SerializeInto(const JsonValue& v, std::string& out) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out += "null";
      break;
    case JsonValue::Kind::kBool:
      out += v.bool_value() ? "true" : "false";
      break;
    case JsonValue::Kind::kNumber: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number_value());
      out += buf;
      break;
    }
    case JsonValue::Kind::kString:
      out += '"';
      out += JsonEscape(v.string_value());
      out += '"';
      break;
    case JsonValue::Kind::kArray: {
      out += '[';
      bool first = true;
      for (const JsonValue& item : v.array()) {
        if (!first) out += ',';
        first = false;
        SerializeInto(item, out);
      }
      out += ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : v.object()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        out += JsonEscape(key);
        out += "\":";
        SerializeInto(value, out);
      }
      out += '}';
      break;
    }
  }
}

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::string SerializeJson(const JsonValue& value) {
  std::string out;
  SerializeInto(value, out);
  return out;
}

Result<std::vector<ReportDiffEntry>> DiffReports(const JsonValue& before,
                                                 const JsonValue& after) {
  const JsonValue& alg_a = before["algorithm"];
  const JsonValue& alg_b = after["algorithm"];
  if (alg_a.kind() != JsonValue::Kind::kString ||
      alg_b.kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument("not ocdd reports (missing 'algorithm')");
  }
  if (!(alg_a == alg_b)) {
    return Status::InvalidArgument(
        "cannot diff reports from different algorithms: " +
        alg_a.string_value() + " vs " + alg_b.string_value());
  }

  std::vector<ReportDiffEntry> out;
  // Every array-valued top-level member in either document is a dependency
  // collection; compare as sets of canonical renderings.
  std::set<std::string> collections;
  for (const auto& [key, value] : before.object()) {
    if (value.kind() == JsonValue::Kind::kArray) collections.insert(key);
  }
  for (const auto& [key, value] : after.object()) {
    if (value.kind() == JsonValue::Kind::kArray) collections.insert(key);
  }
  for (const std::string& collection : collections) {
    std::set<std::string> a;
    std::set<std::string> b;
    for (const JsonValue& item : before[collection].array()) {
      a.insert(SerializeJson(item));
    }
    for (const JsonValue& item : after[collection].array()) {
      b.insert(SerializeJson(item));
    }
    for (const std::string& gone : a) {
      if (b.count(gone) == 0) {
        out.push_back(ReportDiffEntry{ReportDiffEntry::Change::kRemoved,
                                      collection, gone});
      }
    }
    for (const std::string& added : b) {
      if (a.count(added) == 0) {
        out.push_back(ReportDiffEntry{ReportDiffEntry::Change::kAdded,
                                      collection, added});
      }
    }
  }
  return out;
}

}  // namespace ocdd::report
