#include "inputs.hpp"

#include <stdexcept>

#include "gen/suite.hpp"
#include "harness.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"

namespace perfbench {

using lmmir::spice::ElementType;

std::vector<lmmir::gen::GeneratorConfig> design_configs(std::uint64_t seed) {
  lmmir::gen::SuiteOptions suite;
  suite.scale = kSuiteScale;
  const lmmir::gen::GeneratorConfig base =
      lmmir::gen::table2_suite(suite).at(kSuiteIndex);
  std::vector<lmmir::gen::GeneratorConfig> configs(kDesignCount, base);
  for (std::size_t i = 0; i < kDesignCount; ++i) {
    configs[i].seed = derive_seed(seed, i);
    configs[i].name = base.name + "-" + std::to_string(i);
  }
  return configs;
}

Design make_design(const lmmir::gen::GeneratorConfig& config) {
  Design d;
  d.config = config;
  d.text = lmmir::spice::write_netlist_string(lmmir::gen::generate_pdn(config));
  d.netlist = lmmir::spice::parse_netlist_string(d.text);
  return d;
}

EditStream::EditStream(const lmmir::spice::Netlist& netlist,
                       std::uint64_t seed)
    : seed_(seed) {
  const auto& elements = netlist.elements();
  original_.reserve(elements.size());
  for (std::size_t i = 0; i < elements.size(); ++i) {
    original_.push_back(elements[i].value);
    if (elements[i].type == ElementType::CurrentSource) currents_.push_back(i);
    if (elements[i].type == ElementType::Resistor) resistors_.push_back(i);
  }
  if (currents_.empty() || resistors_.empty())
    throw std::invalid_argument("EditStream: design has no sources or wires");
}

std::vector<lmmir::serve::ValueEdit> EditStream::edits(std::size_t step) const {
  SplitMix64 rng{derive_seed(seed_, step)};
  std::vector<lmmir::serve::ValueEdit> out;
  auto rescale = [&](const std::vector<std::size_t>& pool, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t index = pool[rng.below(pool.size())];
      const double factor = kEditLo + (kEditHi - kEditLo) * rng.uniform();
      out.push_back({index, original_[index] * factor});
    }
  };
  rescale(currents_, kEditCurrents);
  if (step % kResistorEvery == kResistorEvery - 1)
    rescale(resistors_, kEditResistors);
  return out;
}

std::uint64_t workload_fingerprint(
    const std::string& workload, std::size_t clients, std::uint64_t seed,
    const std::vector<lmmir::gen::GeneratorConfig>& configs,
    const lmmir::data::SampleOptions& sample) {
  std::uint64_t h = hash_string(workload);
  h = hash_value(clients, h);
  h = hash_value(seed, h);
  for (const auto& c : configs) {
    h = hash_string(c.name, h);
    for (double v : {c.width_um, c.height_um, c.via_resistance, c.vdd,
                     c.bump_pitch_um, c.total_current, c.hotspot_sigma_min_um,
                     c.hotspot_sigma_max_um, c.background_fraction})
      h = hash_value(v, h);
    h = hash_value(c.n_hotspots, h);
    h = hash_value(c.seed, h);
    for (const auto& l : c.layers) {
      h = hash_value(l.layer, h);
      h = hash_value(static_cast<int>(l.dir), h);
      for (double v : {l.pitch_um, l.offset_um, l.res_per_um})
        h = hash_value(v, h);
    }
  }
  h = hash_value(sample.input_side, h);
  h = hash_value(sample.pc_grid, h);
  h = hash_string(kModelName, h);
  h = hash_value(kModelSeed, h);
  for (std::size_t v : {kEditCurrents, kEditResistors, kResistorEvery})
    h = hash_value(v, h);
  h = hash_value(kEditLo, h);
  return hash_value(kEditHi, h);
}

}  // namespace perfbench
