#pragma once
// Small string helpers shared by the SPICE parser and CSV reader.
#include <string>
#include <string_view>
#include <vector>

namespace lmmir::util {

/// std::isspace of the "C" locale (space, \t \n \v \f \r), inline.
constexpr bool is_space(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Strip leading/trailing whitespace (is_space).
std::string_view trim(std::string_view s);

/// Split on a single-character delimiter; empty tokens are kept.
std::vector<std::string> split(std::string_view s, char delim);

/// Parse a double; returns false on malformed input instead of throwing.
bool parse_double(std::string_view s, double& out);

/// Parse a long; returns false on malformed input.
bool parse_long(std::string_view s, long& out);

/// printf-style float formatting ("%.*f") returning std::string.
std::string format_fixed(double v, int decimals);

}  // namespace lmmir::util
