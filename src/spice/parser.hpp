#pragma once
// SPICE PDN netlist parser (ICCAD-2023 contest subset).
//
// Grammar accepted, one element per line:
//   R<name> <node> <node> <ohms>
//   I<name> <node> <node> <amps>      (current flows node1 -> node2)
//   V<name> <node> <node> <volts>
// plus '*' / ';' comments, blank lines, and the directives
// ".title", ".end", ".op" (all ignored).  Element letters are
// case-insensitive; values accept SPICE engineering suffixes
// (f p n u m k meg g t) and plain scientific notation.
//
// There is one parse path: a single pass over a caller-owned buffer.
// Lines end at '\n'; whitespace is what std::isspace accepts in the "C"
// locale.  Tokens are views into the buffer, so a line costs no
// allocation beyond the element and node names the netlist keeps.
#include <string>
#include <string_view>

#include "spice/netlist.hpp"

namespace lmmir::spice {

struct ParseStats {
  std::size_t lines = 0;
  std::size_t elements = 0;
  std::size_t comments = 0;
  std::size_t directives = 0;
};

/// Parse a numeric literal with optional SPICE engineering suffix.
/// Returns false on malformed input, including non-finite results.
bool parse_spice_value(std::string_view token, double& out);

/// Parse netlist text. Throws std::runtime_error with a line number on
/// malformed element lines; `stats` is written only on success.
Netlist parse_netlist_string(std::string_view text,
                             ParseStats* stats = nullptr);

/// Read the whole file, then parse it as parse_netlist_string does.
Netlist parse_netlist_file(const std::string& path,
                           ParseStats* stats = nullptr);

}  // namespace lmmir::spice
