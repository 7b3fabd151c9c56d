#pragma once
// Seeded inputs of the benchmark: the designs every workload draws from,
// the ECO edit stream, and the workload fingerprint.  Generating them is
// never timed.
#include <cstdint>
#include <string>
#include <vector>

#include "data/sample.hpp"
#include "gen/began.hpp"
#include "serve/session.hpp"
#include "spice/netlist.hpp"

namespace perfbench {

/// Table-II testcase9 geometry at suite scale 0.25: a 208 um die with
/// about 22.5k nodes, 40k elements and 2 MB of SPICE text.
inline constexpr double kSuiteScale = 0.25;
inline constexpr std::size_t kSuiteIndex = 2;
inline constexpr std::size_t kDesignCount = 8;

/// The model every serving workload runs: untrained (the cost of a
/// forward does not depend on the weights), built from a fixed seed.
inline constexpr const char* kModelName = "LMM-IR";
inline constexpr std::uint64_t kModelSeed = 2025;

struct Design {
  lmmir::gen::GeneratorConfig config;
  std::string text;               // SPICE source, as a client sends it
  lmmir::spice::Netlist netlist;  // parsed from `text`
};

/// Eight designs that differ only in GeneratorConfig::seed, derived from
/// the workload seed.
std::vector<lmmir::gen::GeneratorConfig> design_configs(std::uint64_t seed);
Design make_design(const lmmir::gen::GeneratorConfig& config);

/// The ECO edit mix: each request rescales kEditCurrents current sources
/// by U(kEditLo, kEditHi) relative to their original values, and every
/// kResistorEvery-th request also rescales kEditResistors resistors.
inline constexpr std::size_t kEditCurrents = 8;
inline constexpr std::size_t kEditResistors = 8;
inline constexpr std::size_t kResistorEvery = 2;
inline constexpr double kEditLo = 0.8;
inline constexpr double kEditHi = 1.2;

/// One tenant's edit stream over its design.  Step k's edits depend only
/// on (seed, k), so any step can be regenerated for the output checks.
class EditStream {
 public:
  EditStream(const lmmir::spice::Netlist& netlist, std::uint64_t seed);
  std::vector<lmmir::serve::ValueEdit> edits(std::size_t step) const;

 private:
  std::vector<std::size_t> currents_, resistors_;  // element indices
  std::vector<double> original_;                   // per element index
  std::uint64_t seed_;
};

/// Hash of everything that defines a workload's inputs: its name and
/// client count, the generator configs, the seed, input side and token
/// grid, model name and seed, and the edit mix.
std::uint64_t workload_fingerprint(
    const std::string& workload, std::size_t clients, std::uint64_t seed,
    const std::vector<lmmir::gen::GeneratorConfig>& configs,
    const lmmir::data::SampleOptions& sample);

}  // namespace perfbench
