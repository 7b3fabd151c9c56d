#include "spice/node_name.hpp"

#include "util/string_utils.hpp"

namespace lmmir::spice {

std::string NodeName::to_string() const {
  return "n" + std::to_string(net) + "_m" + std::to_string(layer) + "_" +
         std::to_string(x) + "_" + std::to_string(y);
}

bool is_ground(std::string_view name) { return name == "0"; }

bool parse_node_name(std::string_view name, NodeName& out) {
  // Expected shape: n<digits>_m<digits>_<digits>_<digits>.  A fourth '_'
  // stays in the last field, which then fails to parse as a number.
  std::string_view parts[4];
  for (int i = 0; i < 3; ++i) {
    const std::size_t sep = name.find('_');
    if (sep == std::string_view::npos) return false;
    parts[i] = name.substr(0, sep);
    name.remove_prefix(sep + 1);
  }
  parts[3] = name;
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

}  // namespace lmmir::spice
