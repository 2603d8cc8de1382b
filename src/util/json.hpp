// Minimal JSON value model + serializer + tolerant parser.
//
// AdaParse writes parsed text and routing decisions as JSONL records (one
// JSON object per line, mirroring the paper's output format) and reads them
// back in tests. We implement just enough of RFC 8259 for that: objects,
// arrays, strings (with escapes), numbers, booleans, null.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
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
  /// The value if it holds a T (bool, double, std::string, ...), else null.
  template <typename T>
  const T* get_if() const { return std::get_if<T>(&value_); }

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

/// Parses an unsigned decimal: digits only (no sign, space or prefix) and
/// no overflow; nullopt otherwise. Every u64 a record carries (a checksum,
/// a CRC, a seed) travels as such a string, since JSON numbers are doubles.
std::optional<std::uint64_t> parse_u64(std::string_view digits);

/// Checked reads of one record's fields. A missing, mistyped or
/// out-of-range field throws std::runtime_error("<context>: <key> <what>"),
/// never the std::out_of_range or std::bad_variant_access of Json's
/// accessors, so a decoder of bytes read from disk fails with the one
/// error type its callers catch.
class FieldReader {
 public:
  FieldReader(const JsonObject& obj, const char* context)
      : obj_(obj), context_(context) {}

  double number_field(const char* key) const {
    return as<double>(field(key), key);
  }
  bool bool_field(const char* key) const { return as<bool>(field(key), key); }
  const std::string& string_field(const char* key) const {
    return as<std::string>(field(key), key);
  }
  /// An integer in [lo, hi): a fraction or a value outside it is
  /// malformed, not cast.
  int int_field(const char* key, double lo = std::numeric_limits<int>::min(),
                double hi = std::numeric_limits<int>::max() + 1.0) const {
    return static_cast<int>(integral(field(key), key, lo, hi));
  }
  /// A count: an integer in [0, 2^53), the range a JSON number holds
  /// exactly.
  std::size_t size_field(const char* key) const {
    return size_of(field(key), key);
  }
  std::vector<std::size_t> size_array_field(const char* key) const;
  std::vector<std::string> string_array_field(const char* key) const;
  /// A u64 written as a decimal string (see parse_u64).
  std::uint64_t u64_field(const char* key) const;

 private:
  [[noreturn]] void malformed(const char* key, const char* what) const;
  const Json& field(const char* key) const;
  template <typename T>
  const T& as(const Json& v, const char* key) const {
    if (const T* value = v.get_if<T>()) return *value;
    malformed(key, "has the wrong type");
  }
  double integral(const Json& v, const char* key, double lo, double hi) const;
  std::size_t size_of(const Json& v, const char* key) const;

  const JsonObject& obj_;
  const char* context_;
};

}  // namespace adaparse::util
