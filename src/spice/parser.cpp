#include "spice/parser.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace lmmir::spice {

namespace {

// std::isalpha / std::tolower of the "C" locale, inline.
constexpr bool is_alpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
constexpr char to_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Case-insensitive equality with an all-lower-case `lower`.
bool iequals(std::string_view s, std::string_view lower) {
  if (s.size() != lower.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (to_lower(s[i]) != lower[i]) return false;
  return true;
}

struct Suffix {
  std::string_view name;
  double mult;
};
constexpr Suffix kSuffixes[] = {
    {"", 1.0},   {"f", 1e-15}, {"p", 1e-12},   {"n", 1e-9},
    {"u", 1e-6}, {"m", 1e-3},  {"k", 1e3},     {"meg", 1e6},
    {"x", 1e6},  {"g", 1e9},   {"t", 1e12}};

/// The first four whitespace-separated tokens of a line and the total
/// token count (an element line needs exactly four).
struct Tokens {
  std::string_view tok[4];
  std::size_t count = 0;
};

Tokens split_tokens(std::string_view s) {
  Tokens t;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && util::is_space(s[i])) ++i;
    std::size_t j = i;
    while (j < s.size() && !util::is_space(s[j])) ++j;
    if (j > i) {
      if (t.count < 4) t.tok[t.count] = s.substr(i, j - i);
      ++t.count;
    }
    i = j;
  }
  return t;
}

[[noreturn]] void fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("spice parse error at line " +
                           std::to_string(lineno) + ": " + what);
}

}  // namespace

bool parse_spice_value(std::string_view token, double& out) {
  if (token.empty()) return false;
  // Split off a trailing alphabetic suffix, if any.
  std::size_t num_end = token.size();
  while (num_end > 0 && is_alpha(token[num_end - 1])) --num_end;
  double base = 0.0;
  if (!util::parse_double(token.substr(0, num_end), base)) return false;
  const std::string_view suffix = token.substr(num_end);
  for (const Suffix& s : kSuffixes) {
    if (!iequals(suffix, s.name)) continue;
    // Overflow ("1e308k") and literal inf/nan are malformed values too.
    if (!std::isfinite(base * s.mult)) return false;
    out = base * s.mult;
    return true;
  }
  return false;
}

Netlist parse_netlist_string(std::string_view text, ParseStats* stats) {
  Netlist nl;
  ParseStats local;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view s = util::trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    const std::size_t lineno = ++local.lines;
    if (s.empty()) continue;
    if (s[0] == '*' || s[0] == ';') {
      ++local.comments;
      continue;
    }
    const Tokens t = split_tokens(s);
    if (s[0] == '.') {
      ++local.directives;
      if (iequals(t.tok[0], ".end")) break;
      continue;  // .title / .op / anything else: ignored
    }
    if (t.count != 4)
      fail(lineno, "expected 4 tokens, got " + std::to_string(t.count));
    const std::string_view head = t.tok[0];
    double value = 0.0;
    if (!parse_spice_value(t.tok[3], value))
      fail(lineno, "bad value '" + std::string(t.tok[3]) + "'");
    const std::string_view name = head.substr(1);
    const NodeId a = nl.intern_node(t.tok[1]);
    const NodeId b = nl.intern_node(t.tok[2]);
    switch (to_lower(head[0])) {
      case 'r':
        if (value <= 0.0) fail(lineno, "non-positive resistance");
        nl.add_resistor(name, a, b, value);
        break;
      case 'i':
        nl.add_current_source(name, a, b, value);
        break;
      case 'v':
        nl.add_voltage_source(name, a, b, value);
        break;
      default:
        fail(lineno, std::string("unsupported element '") + head[0] + "'");
    }
    ++local.elements;
  }
  if (stats) *stats = local;
  return nl;
}

Netlist parse_netlist_file(const std::string& path, ParseStats* stats) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("spice: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_netlist_string(std::move(text).str(), stats);
}

}  // namespace lmmir::spice
