#pragma once
// Test-only reference for the SPICE ingest path: the line-by-line,
// string-copying parser that the single-pass parser replaced, kept
// verbatim (std::getline lines, util::split_ws tokens, util::to_lower
// suffixes, util::split node names, an unordered_map node index).
// test_spice_differential.cpp parses the same text with both and requires
// the same netlist or the same error.
#include <cctype>
#include <cmath>
#include <istream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "spice/netlist.hpp"
#include "spice/parser.hpp"
#include "util/string_utils.hpp"

namespace lmmir::spice::reference {

namespace util {

using lmmir::util::parse_double;
using lmmir::util::parse_long;
using lmmir::util::split;

inline std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

inline std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

inline std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace util

inline bool is_ground(const std::string& name) { return name == "0"; }

inline bool parse_node_name(const std::string& name, NodeName& out) {
  // Expected shape: n<digits>_m<digits>_<digits>_<digits>
  const auto parts = util::split(name, '_');
  if (parts.size() != 4) return false;
  if (parts[0].size() < 2 || (parts[0][0] != 'n' && parts[0][0] != 'N'))
    return false;
  if (parts[1].size() < 2 || (parts[1][0] != 'm' && parts[1][0] != 'M'))
    return false;
  long net = 0, layer = 0, x = 0, y = 0;
  if (!util::parse_long(parts[0].substr(1), net)) return false;
  if (!util::parse_long(parts[1].substr(1), layer)) return false;
  if (!util::parse_long(parts[2], x)) return false;
  if (!util::parse_long(parts[3], y)) return false;
  out.net = static_cast<int>(net);
  out.layer = static_cast<int>(layer);
  out.x = x;
  out.y = y;
  return true;
}

/// The reference parser's netlist: the node interning and element list of
/// spice::Netlist as they were, without revisions or geometry queries.
class Netlist {
 public:
  NodeId intern_node(const std::string& raw_name) {
    if (is_ground(raw_name)) return kGroundNode;
    auto it = node_index_.find(raw_name);
    if (it != node_index_.end()) return it->second;
    Node n;
    n.raw_name = raw_name;
    NodeName parsed;
    if (parse_node_name(raw_name, parsed)) n.parsed = parsed;
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::move(n));
    node_index_.emplace(raw_name, id);
    return id;
  }

  void add_resistor(const std::string& name, NodeId a, NodeId b, double ohms) {
    elements_.push_back({ElementType::Resistor, name, a, b, ohms});
  }
  void add_current_source(const std::string& name, NodeId from, NodeId to,
                          double amps) {
    elements_.push_back({ElementType::CurrentSource, name, from, to, amps});
  }
  void add_voltage_source(const std::string& name, NodeId plus, NodeId minus,
                          double volts) {
    elements_.push_back({ElementType::VoltageSource, name, plus, minus, volts});
  }

  const std::vector<Element>& elements() const { return elements_; }
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  std::vector<Element> elements_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, NodeId> node_index_;
};

inline bool parse_spice_value(const std::string& token, double& out) {
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

[[noreturn]] inline void fail(std::size_t lineno, const std::string& what) {
  throw std::runtime_error("spice parse error at line " +
                           std::to_string(lineno) + ": " + what);
}

inline Netlist parse_netlist_stream(std::istream& in, ParseStats* stats) {
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

inline Netlist parse_netlist_string(const std::string& text,
                                    ParseStats* stats) {
  std::istringstream in(text);
  return parse_netlist_stream(in, stats);
}

}  // namespace lmmir::spice::reference
