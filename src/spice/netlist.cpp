#include "spice/netlist.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

namespace lmmir::spice {

namespace {
// Process-wide revision source: each mutation event gets a unique value,
// which is what makes Netlist::revision() a content key (equal revisions
// can only come from copies of the same snapshot).
std::atomic<std::uint64_t> g_netlist_revision{0};
}  // namespace

void Netlist::touch() {
  revision_ = 1 + g_netlist_revision.fetch_add(1, std::memory_order_relaxed);
}

NodeId Netlist::intern_node(const std::string& raw_name) {
  if (is_ground(raw_name)) return kGroundNode;
  auto it = node_index_.find(raw_name);
  if (it != node_index_.end()) return it->second;
  touch();
  Node n;
  n.raw_name = raw_name;
  NodeName parsed;
  if (parse_node_name(raw_name, parsed)) n.parsed = parsed;
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(n));
  node_index_.emplace(raw_name, id);
  return id;
}

std::optional<NodeId> Netlist::find_node(const std::string& raw_name) const {
  if (is_ground(raw_name)) return kGroundNode;
  auto it = node_index_.find(raw_name);
  if (it == node_index_.end()) return std::nullopt;
  return it->second;
}

void Netlist::add_resistor(const std::string& name, NodeId a, NodeId b,
                           double ohms) {
  touch();
  elements_.push_back({ElementType::Resistor, name, a, b, ohms});
}

void Netlist::add_current_source(const std::string& name, NodeId from,
                                 NodeId to, double amps) {
  touch();
  elements_.push_back({ElementType::CurrentSource, name, from, to, amps});
}

void Netlist::add_voltage_source(const std::string& name, NodeId plus,
                                 NodeId minus, double volts) {
  touch();
  elements_.push_back({ElementType::VoltageSource, name, plus, minus, volts});
}

void Netlist::set_element_value(std::size_t element_index, double value) {
  check_element_value(element_index, value);
  touch();
  elements_[element_index].value = value;
}

void Netlist::check_element_value(std::size_t element_index,
                                  double value) const {
  const Element& e = elements_.at(element_index);
  if (!std::isfinite(value))
    throw std::invalid_argument("set_element_value: non-finite value");
  if (e.type == ElementType::Resistor && value <= 0.0)
    throw std::invalid_argument("set_element_value: non-positive resistance");
}

std::size_t Netlist::count(ElementType t) const {
  return static_cast<std::size_t>(
      std::count_if(elements_.begin(), elements_.end(),
                    [t](const Element& e) { return e.type == t; }));
}

int Netlist::max_layer() const {
  int layer = 0;
  for (const auto& n : nodes_)
    if (n.parsed) layer = std::max(layer, n.parsed->layer);
  return layer;
}

Netlist::Bounds Netlist::bounds() const {
  Bounds b;
  for (const auto& n : nodes_) {
    if (!n.parsed) continue;
    if (!b.valid) {
      b.min_x = b.max_x = n.parsed->x;
      b.min_y = b.max_y = n.parsed->y;
      b.valid = true;
    } else {
      b.min_x = std::min(b.min_x, n.parsed->x);
      b.max_x = std::max(b.max_x, n.parsed->x);
      b.min_y = std::min(b.min_y, n.parsed->y);
      b.max_y = std::max(b.max_y, n.parsed->y);
    }
  }
  return b;
}

Netlist::PixelShape Netlist::pixel_shape() const {
  const Bounds b = bounds();
  PixelShape s;
  if (!b.valid) return s;
  s.cols = static_cast<std::size_t>(b.max_x / kDbuPerMicron) + 1;
  s.rows = static_cast<std::size_t>(b.max_y / kDbuPerMicron) + 1;
  return s;
}

std::size_t Netlist::resident_bytes() const {
  std::size_t bytes = sizeof(Netlist);
  bytes += elements_.capacity() * sizeof(Element);
  for (const auto& e : elements_) bytes += e.name.capacity();
  bytes += nodes_.capacity() * sizeof(Node);
  for (const auto& n : nodes_) bytes += n.raw_name.capacity();
  // Hash map: one bucket pointer per bucket plus a node (key copy + id +
  // chain link) per entry — the dominant unordered_map costs.
  bytes += node_index_.bucket_count() * sizeof(void*);
  for (const auto& [name, id] : node_index_) {
    (void)id;
    bytes += name.capacity() + sizeof(NodeId) + 2 * sizeof(void*);
  }
  return bytes;
}

}  // namespace lmmir::spice
