#pragma once
// Minimal JSON string escaping shared by every emitter (api/sink.cpp,
// core/shard.cpp, core/driver.cpp, core/json_min.hpp's JsonWriter,
// util::Table::to_json_rows): quotes, backslashes and control
// characters. One
// implementation so an escaping fix can never silently diverge between
// layers.

#include <string>
#include <string_view>

namespace wdag::util {

/// Appends `s` to `out` as a quoted JSON string.
inline void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace wdag::util
