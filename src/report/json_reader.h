#ifndef OCDD_REPORT_JSON_READER_H_
#define OCDD_REPORT_JSON_READER_H_

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace ocdd::report {

/// A minimal JSON document model + recursive-descent parser, sufficient for
/// reading back the reports json_writer.h emits (and any well-formed JSON).
/// Numbers are held as doubles; object member order is not preserved
/// (std::map keys are sorted) — both fine for report diffing.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue String(std::string s);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::map<std::string, JsonValue> members);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::map<std::string, JsonValue>& object() const { return object_; }

  /// Object member lookup; returns a shared null for missing keys or
  /// non-objects, so chains like `v["a"]["b"]` are safe.
  const JsonValue& operator[](const std::string& key) const;
  /// Array element lookup with the same out-of-range tolerance.
  const JsonValue& operator[](std::size_t index) const;

  /// Deep equality.
  friend bool operator==(const JsonValue& a, const JsonValue& b);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

/// Parses a complete JSON document. Trailing garbage, unterminated
/// strings/structures, bad escapes, and malformed numbers yield ParseError.
Result<JsonValue> ParseJson(const std::string& text);

/// One difference between two dependency reports.
struct ReportDiffEntry {
  enum class Change { kAdded, kRemoved };
  Change change = Change::kAdded;
  /// Which collection the entry belongs to ("ocds", "ods", "fds", ...).
  std::string collection;
  /// Canonical rendering of the dependency (the JSON object, re-serialized
  /// with sorted keys).
  std::string rendering;

  friend bool operator==(const ReportDiffEntry& a, const ReportDiffEntry& b) {
    return a.change == b.change && a.collection == b.collection &&
           a.rendering == b.rendering;
  }
};

/// Diffs two reports produced by the same algorithm: for every array-valued
/// top-level member (the dependency collections), reports entries present
/// in one document but not the other. Returns InvalidArgument when the
/// `algorithm` fields differ (cross-algorithm diffs are meaningless).
Result<std::vector<ReportDiffEntry>> DiffReports(const JsonValue& before,
                                                 const JsonValue& after);

/// Canonical re-serialization (sorted keys, minimal whitespace) used for
/// diff renderings and round-trip tests. Numbers print with 17 significant
/// digits, so every double parses back bit for bit.
std::string SerializeJson(const JsonValue& value);

}  // namespace ocdd::report

#endif  // OCDD_REPORT_JSON_READER_H_
