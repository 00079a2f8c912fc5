#include "util/strings.h"

#include <cstdarg>
#include <cstdio>

namespace zen::util {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string format_bps(double bits_per_second) {
  const char* unit = "bit/s";
  double v = bits_per_second;
  if (v >= 1e9) {
    v /= 1e9;
    unit = "Gbit/s";
  } else if (v >= 1e6) {
    v /= 1e6;
    unit = "Mbit/s";
  } else if (v >= 1e3) {
    v /= 1e3;
    unit = "kbit/s";
  }
  return format("%.2f %s", v, unit);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += format("\\u%04x", static_cast<unsigned>(c));
        else
          out += c;
    }
  }
  return out;
}

}  // namespace zen::util
