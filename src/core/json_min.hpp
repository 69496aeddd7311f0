#pragma once

// Minimal JSON parsing shared by the shard-manifest reader (shard.cpp),
// the drive-journal reader (driver.cpp) and the serve wire protocol
// (serve/protocol.cpp): objects, strings, numbers, booleans — shallow
// nesting in practice. Numbers keep their raw text so 64-bit integers
// parse exactly. Every entry point takes a `context` string that
// prefixes diagnostics ("shard manifest", "drive journal", "request")
// so errors name the artifact that failed, not the parser.
//
// JsonWriter is the matching single-line emitter: stable key order (the
// caller's call order), string escaping, raw-number passthrough — the
// writer side of the serve protocol and anything else that must emit
// exactly what JsonParser accepts.
//
// INTERNAL header: not part of the public surface (never reachable from
// wdag/wdag.hpp, not in WDAG_PUBLIC_HEADERS) — include from .cpp files
// only.

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>

#include "util/check.hpp"
#include "util/json.hpp"

namespace wdag::core::minjson {

/// Fixed-width lowercase hex of a 64-bit id — the wire spelling of plan
/// ids and request hashes in manifests and journals.
inline std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct JsonValue {
  enum class Kind { kString, kNumber, kBool, kObject };
  Kind kind = Kind::kString;
  std::string text;  ///< string value, or raw number text
  bool boolean = false;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text,
                      std::string_view context = "shard manifest")
      : text_(text), context_(context) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw InvalidArgument(std::string(context_) + " JSON: " + what +
                          " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '"') return string();
    if (c == 't' || c == 'f') return boolean();
    if (c == '-' || (c >= '0' && c <= '9')) return number();
    fail("unexpected character");
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      JsonValue key = string();
      skip_ws();
      expect(':');
      v.object.emplace(std::move(key.text), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue string() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    expect('"');
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return v;
      if (c != '\\') {
        v.text += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': v.text += '"'; break;
        case '\\': v.text += '\\'; break;
        case '/': v.text += '/'; break;
        case 'n': v.text += '\n'; break;
        case 'r': v.text += '\r'; break;
        case 't': v.text += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid \\u escape");
          }
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          v.text += static_cast<char>(code);
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.substr(pos_, 4) == "true") {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.substr(pos_, 5) == "false") {
      pos_ += 5;
    } else {
      fail("expected boolean");
    }
    return v;
  }

  JsonValue number() {
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected number");
    v.text = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::string_view context_;
  std::size_t pos_ = 0;
};

/// Builds one JSON object (or a nested one) as a single line, in the
/// exact key order of the field() calls. Strings are escaped to the
/// subset JsonParser reads back (ASCII control bytes as \u00XX); numbers
/// are emitted via snprintf with enough digits to round-trip doubles.
class JsonWriter {
 public:
  JsonWriter() { out_.push_back('{'); }

  JsonWriter& field(std::string_view key, std::string_view value) {
    begin_field(key);
    append_string(value);
    return *this;
  }
  JsonWriter& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }
  JsonWriter& field(std::string_view key, bool value) {
    begin_field(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonWriter& field(std::string_view key, std::uint64_t value) {
    begin_field(key);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(value));
    out_ += buf;
    return *this;
  }
  JsonWriter& field(std::string_view key, int value) {
    begin_field(key);
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", value);
    out_ += buf;
    return *this;
  }
  JsonWriter& field(std::string_view key, double value) {
    begin_field(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
    return *this;
  }
  /// Verbatim JSON (an already-rendered nested object, for example).
  JsonWriter& field_raw(std::string_view key, std::string_view json) {
    begin_field(key);
    out_.append(json);
    return *this;
  }

  /// The finished object. The writer is spent after this call.
  [[nodiscard]] std::string str() && {
    out_.push_back('}');
    return std::move(out_);
  }

 private:
  void begin_field(std::string_view key) {
    if (out_.size() > 1) out_.push_back(',');
    append_string(key);
    out_.push_back(':');
  }

  void append_string(std::string_view s) {
    util::append_json_string(out_, s);
  }

  std::string out_;
};

inline const JsonValue* opt_field(const JsonValue& obj, const std::string& key,
                                  std::string_view context = "shard manifest") {
  WDAG_REQUIRE(obj.kind == JsonValue::Kind::kObject,
               std::string(context) + ": expected a JSON object");
  const auto it = obj.object.find(key);
  return it == obj.object.end() ? nullptr : &it->second;
}

inline const JsonValue& req_field(const JsonValue& obj, const std::string& key,
                                  std::string_view context = "shard manifest") {
  WDAG_REQUIRE(obj.kind == JsonValue::Kind::kObject,
               std::string(context) + ": expected a JSON object");
  const auto it = obj.object.find(key);
  if (it == obj.object.end()) {
    throw InvalidArgument(std::string(context) + ": missing field '" + key +
                          "'");
  }
  return it->second;
}

inline std::uint64_t req_u64(const JsonValue& obj, const std::string& key,
                             std::string_view context = "shard manifest") {
  const JsonValue& v = req_field(obj, key, context);
  WDAG_REQUIRE(v.kind == JsonValue::Kind::kNumber,
               std::string(context) + ": field '" + key +
                   "' must be a number");
  try {
    return std::stoull(v.text);
  } catch (const std::exception&) {
    throw InvalidArgument(std::string(context) + ": field '" + key +
                          "' is not a valid integer: " + v.text);
  }
}

inline double req_double(const JsonValue& obj, const std::string& key,
                         std::string_view context = "shard manifest") {
  const JsonValue& v = req_field(obj, key, context);
  WDAG_REQUIRE(v.kind == JsonValue::Kind::kNumber,
               std::string(context) + ": field '" + key +
                   "' must be a number");
  try {
    return std::stod(v.text);
  } catch (const std::exception&) {
    throw InvalidArgument(std::string(context) + ": field '" + key +
                          "' is not a valid number: " + v.text);
  }
}

inline std::string req_str(const JsonValue& obj, const std::string& key,
                           std::string_view context = "shard manifest") {
  const JsonValue& v = req_field(obj, key, context);
  WDAG_REQUIRE(v.kind == JsonValue::Kind::kString,
               std::string(context) + ": field '" + key +
                   "' must be a string");
  return v.text;
}

inline std::uint64_t req_hex(const JsonValue& obj, const std::string& key,
                             std::string_view context = "shard manifest") {
  const std::string s = req_str(obj, key, context);
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(s, &used, 16);
    WDAG_REQUIRE(used == s.size() && !s.empty(),
                 std::string(context) + ": field '" + key +
                     "' is not a hex id");
    return v;
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {
    throw InvalidArgument(std::string(context) + ": field '" + key +
                          "' is not a hex id: " + s);
  }
}

}  // namespace wdag::core::minjson
