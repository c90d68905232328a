#pragma once

#include <cstdio>
#include <ostream>
#include <string_view>

namespace cwgl::obs {

/// Minimal JSON string escape for metric/span names (plain ASCII by
/// convention; this keeps output well-formed even if one is not). obs sits
/// below util in the layering, so it cannot reuse util::JsonWriter.
inline void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out << "\\u00" << kHex[(c >> 4) & 0xf] << kHex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

/// Writes `v` as printf's "%.12g": 12 significant digits, trailing zeros
/// dropped, an exponent outside [1e-4, 1e12). That is not a round trip
/// (0.1 + 0.2 prints 0.3); it is the format util::JsonWriter gives finite
/// doubles. Non-finite values print as nan, inf or -inf, so a JSON writer
/// must put null in their place itself.
inline void write_double_g12(std::ostream& out, double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.12g", v);
  out << buffer;
}

}  // namespace cwgl::obs
