#pragma once
// Output checks.  They run after the timed loop and are never timed.
#include <cstdint>
#include <string>

#include "data/sample.hpp"
#include "grid/grid2d.hpp"
#include "models/common.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "spice/netlist.hpp"

namespace perfbench {

/// Hash of a map's shape and every bit of its values.
std::uint64_t map_hash(const lmmir::grid::Grid2D& map);

/// The eager single-request reference for a netlist revision: cold
/// featurize_netlist, IrModel::predict at batch 1, restore_percent_map.
lmmir::grid::Grid2D reference_map(lmmir::models::IrModel& model,
                                  const lmmir::spice::Netlist& netlist,
                                  const lmmir::data::SampleOptions& opts);

/// The golden solve options make_sample uses for `opts`.
lmmir::pdn::SolveOptions golden_solve_options(
    const lmmir::data::SampleOptions& opts);

/// The truth map make_sample derives from a solve (percent of vdd at the
/// netlist's pixel shape).
lmmir::grid::Grid2D truth_map(const lmmir::spice::Netlist& netlist,
                              const lmmir::pdn::Solution& solution);

/// A golden solve is sane when it converged without breakdown, every
/// node voltage and drop is finite with 0 <= drop <= vdd, and the
/// relative residual ||b - A x|| / ||b||, recomputed on
/// assemble_ir_system's matrix, is within the CG tolerance.  Returns an
/// empty string when sane, otherwise what failed.
std::string check_solution(const lmmir::pdn::Circuit& circuit,
                           const lmmir::pdn::Solution& solution,
                           double tolerance);

}  // namespace perfbench
