// Small string helpers shared across modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace zen::util {

// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

// Parses an unsigned decimal integer; nullopt on any non-digit or overflow.
std::optional<std::uint64_t> parse_u64(std::string_view s);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// "1.50 Gbit/s"-style human formatting for rates in bits per second.
std::string format_bps(double bits_per_second);

// Escapes `s` for use inside a JSON string literal: '"' and '\' get a
// backslash, newline and tab become \n and \t, and the other control
// bytes become \u00XX.
std::string json_escape(std::string_view s);

}  // namespace zen::util
