// Minimal JSON value model + serializer + tolerant parser.
//
// AdaParse writes parsed text and routing decisions as JSONL records (one
// JSON object per line, mirroring the paper's output format) and reads them
// back in tests. We implement just enough of RFC 8259 for that: objects,
// arrays, strings (with escapes), numbers, booleans, null.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace adaparse::util {

class Json;
using JsonArray = std::vector<Json>;
/// std::map keeps key order deterministic, which keeps serialized output
/// stable across runs (important for golden-file tests).
using JsonObject = std::map<std::string, Json>;

/// Immutable-ish JSON value with value semantics.
class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  /// Typed accessors; throw std::bad_variant_access on mismatch.
  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object field lookup; throws std::out_of_range if absent.
  const Json& at(const std::string& key) const;
  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;

  /// Compact single-line serialization (JSONL-friendly).
  std::string dump() const;

  /// Parses a complete JSON document; throws std::runtime_error on malformed
  /// input, trailing garbage, or containers nested more than 512 deep.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject>
      value_;
};

}  // namespace adaparse::util
