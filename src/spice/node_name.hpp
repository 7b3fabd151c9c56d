#pragma once
// PDN node naming in the ICCAD-2023 CAD contest convention:
//     n<net>_m<layer>_<x>_<y>
// e.g. "n1_m1_108000_26000" is net 1, metal layer 1, at (x, y) in database
// units (1 DBU = 1 nm; 1000 DBU = 1 µm, the feature-map pixel pitch).
// The ground node is the literal "0".
#include <cstdint>
#include <string>
#include <string_view>

namespace lmmir::spice {

/// Database units per feature-map pixel (1 µm at contest scale).
inline constexpr std::int64_t kDbuPerMicron = 1000;

struct NodeName {
  int net = 1;          // power net index (n1 = VDD)
  int layer = 1;        // metal layer index (m1 is the standard-cell rail)
  std::int64_t x = 0;   // DBU
  std::int64_t y = 0;   // DBU

  std::string to_string() const;

  bool operator==(const NodeName&) const = default;
};

/// True for the ground node spelling "0".
bool is_ground(std::string_view name);

/// Parse "n<net>_m<layer>_<x>_<y>". Returns false (and leaves `out`
/// unspecified) when the string is not a well-formed node name.
bool parse_node_name(std::string_view name, NodeName& out);

}  // namespace lmmir::spice
