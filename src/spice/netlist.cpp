#include "spice/netlist.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
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

std::size_t Netlist::probe(std::string_view raw_name,
                           std::size_t hash) const {
  const std::size_t mask = node_index_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const NodeId id = node_index_[slot];
    if (id == kGroundNode) return slot;
    const auto i = static_cast<std::size_t>(id);
    if (node_hashes_[i] == hash && nodes_[i].raw_name == raw_name) return slot;
  }
}

void Netlist::grow_index() {
  const std::size_t size = node_index_.empty() ? 16 : 2 * node_index_.size();
  node_index_.assign(size, kGroundNode);
  const std::size_t mask = size - 1;
  for (std::size_t i = 0; i < node_hashes_.size(); ++i) {
    std::size_t slot = node_hashes_[i] & mask;
    while (node_index_[slot] != kGroundNode) slot = (slot + 1) & mask;
    node_index_[slot] = static_cast<NodeId>(i);
  }
}

NodeId Netlist::intern_node(std::string_view raw_name) {
  if (is_ground(raw_name)) return kGroundNode;
  if (2 * (nodes_.size() + 1) > node_index_.size()) grow_index();
  const std::size_t hash = std::hash<std::string_view>{}(raw_name);
  const std::size_t slot = probe(raw_name, hash);
  if (node_index_[slot] != kGroundNode) return node_index_[slot];
  touch();
  Node& n = nodes_.emplace_back();
  n.raw_name = raw_name;
  NodeName parsed;
  if (parse_node_name(raw_name, parsed)) n.parsed = parsed;
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  node_hashes_.push_back(hash);
  node_index_[slot] = id;
  return id;
}

std::optional<NodeId> Netlist::find_node(std::string_view raw_name) const {
  if (is_ground(raw_name)) return kGroundNode;
  if (node_index_.empty()) return std::nullopt;
  const NodeId id =
      node_index_[probe(raw_name, std::hash<std::string_view>{}(raw_name))];
  if (id == kGroundNode) return std::nullopt;
  return id;
}

void Netlist::add_resistor(std::string_view name, NodeId a, NodeId b,
                           double ohms) {
  touch();
  elements_.push_back({ElementType::Resistor, std::string(name), a, b, ohms});
}

void Netlist::add_current_source(std::string_view name, NodeId from,
                                 NodeId to, double amps) {
  touch();
  elements_.push_back(
      {ElementType::CurrentSource, std::string(name), from, to, amps});
}

void Netlist::add_voltage_source(std::string_view name, NodeId plus,
                                 NodeId minus, double volts) {
  touch();
  elements_.push_back(
      {ElementType::VoltageSource, std::string(name), plus, minus, volts});
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
  // Node index: the id slots plus one cached hash per node.  It holds no
  // name copies.
  bytes += node_index_.capacity() * sizeof(NodeId);
  bytes += node_hashes_.capacity() * sizeof(std::size_t);
  return bytes;
}

}  // namespace lmmir::spice
