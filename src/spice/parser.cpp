#include "spice/parser.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/string_utils.hpp"

namespace lmmir::spice {

bool parse_spice_value(const std::string& token, double& out) {
  if (token.empty()) return false;
  // Split off a trailing alphabetic suffix, if any.
  std::size_t num_end = token.size();
  while (num_end > 0 &&
         std::isalpha(static_cast<unsigned char>(token[num_end - 1])))
    --num_end;
  const std::string digits = token.substr(0, num_end);
  const std::string suffix = util::to_lower(token.substr(num_end));
  double base = 0.0;
  if (!util::parse_double(digits, base)) return false;

  double mult = 1.0;
  if (suffix.empty()) mult = 1.0;
  else if (suffix == "f") mult = 1e-15;
  else if (suffix == "p") mult = 1e-12;
  else if (suffix == "n") mult = 1e-9;
  else if (suffix == "u") mult = 1e-6;
  else if (suffix == "m") mult = 1e-3;
  else if (suffix == "k") mult = 1e3;
  else if (suffix == "meg" || suffix == "x") mult = 1e6;
  else if (suffix == "g") mult = 1e9;
  else if (suffix == "t") mult = 1e12;
  else return false;

  // Overflow ("1e308k") and literal inf/nan are malformed values too.
  if (!std::isfinite(base * mult)) return false;
  out = base * mult;
  return true;
}

namespace {

[[noreturn]] void fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("spice parse error at line " +
                           std::to_string(lineno) + ": " + what);
}

}  // namespace

Netlist parse_netlist_stream(std::istream& in, ParseStats* stats) {
  Netlist nl;
  ParseStats local;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    ++local.lines;
    auto s = util::trim(line);
    if (s.empty()) continue;
    if (s[0] == '*' || s[0] == ';') {
      ++local.comments;
      continue;
    }
    if (s[0] == '.') {
      ++local.directives;
      const auto word = util::to_lower(util::split_ws(s)[0]);
      if (word == ".end") break;
      continue;  // .title / .op / anything else: ignored
    }
    const auto tok = util::split_ws(s);
    if (tok.size() != 4)
      fail(lineno, "expected 4 tokens, got " + std::to_string(tok.size()));
    const char kind = static_cast<char>(
        std::tolower(static_cast<unsigned char>(tok[0][0])));
    double value = 0.0;
    if (!parse_spice_value(tok[3], value))
      fail(lineno, "bad value '" + tok[3] + "'");
    const std::string name = tok[0].size() > 1 ? tok[0].substr(1) : "";
    const NodeId a = nl.intern_node(tok[1]);
    const NodeId b = nl.intern_node(tok[2]);
    switch (kind) {
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
        fail(lineno, std::string("unsupported element '") + tok[0][0] + "'");
    }
    ++local.elements;
  }
  if (stats) *stats = local;
  return nl;
}

Netlist parse_netlist_string(const std::string& text, ParseStats* stats) {
  std::istringstream in(text);
  return parse_netlist_stream(in, stats);
}

Netlist parse_netlist_file(const std::string& path, ParseStats* stats) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("spice: cannot open " + path);
  return parse_netlist_stream(in, stats);
}

}  // namespace lmmir::spice
