#include "util/json.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace adaparse::util {

const Json& Json::at(const std::string& key) const {
  return as_object().at(key);
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

namespace {

/// Bytes a JSON string cannot hold raw: '"', '\' and the C0 controls.
constexpr std::array<bool, 256> kNeedsEscape = [] {
  std::array<bool, 256> table{};
  for (int c = 0; c < 0x20; ++c) table[c] = true;
  table['"'] = true;
  table['\\'] = true;
  return table;
}();

/// Appends `s` escaped, copying each run of plain bytes in one append.
void append_escaped(std::string& out, std::string_view s) {
  const char* p = s.data();
  const char* const end = p + s.size();
  for (;;) {
    const char* const plain = p;
    while (p < end && !kNeedsEscape[static_cast<unsigned char>(*p)]) ++p;
    out.append(plain, p);
    if (p == end) return;
    const auto c = static_cast<unsigned char>(*p++);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(code, sizeof(code));
      }
    }
  }
}

/// Appends `s` as a quoted JSON string.
void dump_string(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void dump_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf; null is the conventional fallback.
    return;
  }
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    out += std::to_string(static_cast<long long>(d));
    return;
  }
  std::array<char, 32> buf{};
  const int n = std::snprintf(buf.data(), buf.size(), "%.12g", d);
  out.append(buf.data(), static_cast<std::size_t>(n));
}

void dump_value(std::string& out, const Json& j);

void dump_array(std::string& out, const JsonArray& a) {
  out += '[';
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0) out += ',';
    dump_value(out, a[i]);
  }
  out += ']';
}

void dump_object(std::string& out, const JsonObject& o) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : o) {
    if (!first) out += ',';
    first = false;
    dump_string(out, k);
    out += ':';
    dump_value(out, v);
  }
  out += '}';
}

void dump_value(std::string& out, const Json& j) {
  if (j.is_null()) {
    out += "null";
  } else if (j.is_bool()) {
    out += j.as_bool() ? "true" : "false";
  } else if (j.is_number()) {
    dump_number(out, j.as_number());
  } else if (j.is_string()) {
    dump_string(out, j.as_string());
  } else if (j.is_array()) {
    dump_array(out, j.as_array());
  } else {
    dump_object(out, j.as_object());
  }
}

class Parser {
 public:
  static constexpr std::size_t kMaxDepth = 512;

  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char advance() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (advance() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse; bound the depth so hostile input (e.g. a body
        // of 100k '[') is a parse error rather than a stack overflow.
        if (++depth_ > kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth));
        }
        Json v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = advance();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = advance();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy everything up to the next quote or backslash in one append.
      const std::size_t plain = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.data() + plain, pos_ - plain);
      if (advance() == '"') break;
      // A backslash: decode one escape.
      const char e = advance();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = advance();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Encode as UTF-8 (BMP only; surrogate pairs are passed through
          // as two separate 3-byte sequences, fine for our data).
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
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto res =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (res.ec != std::errc() || res.ptr != text_.data() + pos_) {
      fail("invalid number");
    }
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

std::optional<std::uint64_t> parse_u64(std::string_view digits) {
  std::uint64_t value = 0;
  const char* const end = digits.data() + digits.size();
  const auto res = std::from_chars(digits.data(), end, value);
  if (res.ec != std::errc() || res.ptr != end) return std::nullopt;
  return value;
}

void FieldReader::malformed(const char* key, const char* what) const {
  throw std::runtime_error(std::string(context_) + ": " + key + " " + what);
}

const Json& FieldReader::field(const char* key) const {
  const auto it = obj_.find(key);
  if (it == obj_.end()) malformed(key, "missing");
  return it->second;
}

double FieldReader::integral(const Json& v, const char* key, double lo,
                             double hi) const {
  const double d = as<double>(v, key);
  if (!(d >= lo && d < hi) || d != std::floor(d)) {
    malformed(key, "out of range");
  }
  return d;
}

std::size_t FieldReader::size_of(const Json& v, const char* key) const {
  constexpr double kExactIntegers = 9007199254740992.0;  // 2^53
  return static_cast<std::size_t>(integral(v, key, 0.0, kExactIntegers));
}

std::vector<std::size_t> FieldReader::size_array_field(const char* key) const {
  std::vector<std::size_t> sizes;
  for (const Json& v : as<JsonArray>(field(key), key)) {
    sizes.push_back(size_of(v, key));
  }
  return sizes;
}

std::vector<std::string> FieldReader::string_array_field(
    const char* key) const {
  const auto& array = as<JsonArray>(field(key), key);
  std::vector<std::string> strings;
  strings.reserve(array.size());
  for (const Json& v : array) strings.push_back(as<std::string>(v, key));
  return strings;
}

std::uint64_t FieldReader::u64_field(const char* key) const {
  const auto value = parse_u64(string_field(key));
  if (!value) malformed(key, "is not an unsigned decimal");
  return *value;
}

}  // namespace adaparse::util
