#pragma once
// In-memory PDN netlist: the list of R / I / V elements plus an interned
// node table.  This is the shared data model between the parser, the golden
// solver, the feature extractor, and the point-cloud encoder.
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spice/node_name.hpp"

namespace lmmir::spice {

enum class ElementType { Resistor, CurrentSource, VoltageSource };

/// Index of an interned node within Netlist; kGroundNode marks "0".
using NodeId = std::int32_t;
inline constexpr NodeId kGroundNode = -1;

struct Element {
  ElementType type = ElementType::Resistor;
  std::string name;      // e.g. "R1023" (without leading type letter: "1023")
  NodeId node1 = kGroundNode;
  NodeId node2 = kGroundNode;
  double value = 0.0;    // ohms / amps / volts
};

/// Interned node: parsed coordinates when the name follows the contest
/// grammar, or just the raw name for free-form nodes.
struct Node {
  std::string raw_name;
  std::optional<NodeName> parsed;  // nullopt for free-form names
};

class Netlist {
 public:
  /// Content revision key.  Every mutation (interning a new node, adding
  /// an element, rewriting an element value) stamps the netlist with a
  /// fresh value from a process-wide counter, so a given revision value is
  /// assigned to exactly one content snapshot: equal revisions imply equal
  /// content, across distinct Netlist objects (copies carry the revision
  /// of the snapshot they were taken from; mutating a copy re-stamps it).
  /// Caches keyed on the revision (feat::FeatureContext) can therefore
  /// skip re-validating a netlist they have already seen.
  std::uint64_t revision() const { return revision_; }

  /// Intern a node by raw name; returns kGroundNode for "0".  Ids are
  /// dense and follow first-interning order.
  NodeId intern_node(std::string_view raw_name);

  /// Look up an interned node id; returns nullopt if never interned.
  std::optional<NodeId> find_node(std::string_view raw_name) const;

  void add_resistor(std::string_view name, NodeId a, NodeId b, double ohms);
  void add_current_source(std::string_view name, NodeId from, NodeId to,
                          double amps);
  void add_voltage_source(std::string_view name, NodeId plus, NodeId minus,
                          double volts);

  /// Replace an element's value (PDN optimization: wire upsizing rewrites
  /// resistor values in place).  Throws what check_element_value throws,
  /// leaving the netlist and its revision untouched.
  void set_element_value(std::size_t element_index, double value);
  /// Throws std::out_of_range for a bad index and std::invalid_argument
  /// for a non-finite value or a non-positive resistance; changes nothing.
  void check_element_value(std::size_t element_index, double value) const;

  const std::vector<Element>& elements() const { return elements_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t element_count() const { return elements_.size(); }
  std::size_t count(ElementType t) const;

  /// Highest metal layer index among parsed nodes (0 when none parse).
  int max_layer() const;

  /// Bounding box over parsed node coordinates, in DBU.
  struct Bounds {
    std::int64_t min_x = 0, min_y = 0, max_x = 0, max_y = 0;
    bool valid = false;
  };
  Bounds bounds() const;

  /// Chip extent in feature-map pixels (ceil(max/µm) + 1 in each axis).
  struct PixelShape {
    std::size_t rows = 0;  // y extent
    std::size_t cols = 0;  // x extent
  };
  PixelShape pixel_shape() const;

  /// Estimated heap footprint of this netlist (elements, interned nodes,
  /// name strings, the node-index slots and the per-node hashes).  An
  /// accounting estimate for cache memory budgets (serve::SessionServer),
  /// not an allocator-exact count.
  std::size_t resident_bytes() const;

 private:
  void touch();  // stamp a fresh process-unique revision
  // Slot of `raw_name` in node_index_: the slot holding its id, or the
  // empty slot where it would go.  node_index_ must be non-empty.
  std::size_t probe(std::string_view raw_name, std::size_t hash) const;
  void grow_index();

  std::vector<Element> elements_;
  std::vector<Node> nodes_;
  // Node index: open addressing with linear probing over a power-of-two
  // table of ids (kGroundNode marks an empty slot), kept at most half
  // full.  node_hashes_[id] caches the hash of nodes_[id].raw_name, so a
  // probe compares names only on a hash match and growth never rehashes a
  // string; names live once, in nodes_.
  std::vector<NodeId> node_index_;
  std::vector<std::size_t> node_hashes_;
  std::uint64_t revision_ = 0;  // 0 = pristine empty netlist
};

}  // namespace lmmir::spice
