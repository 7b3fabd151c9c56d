#include "checks.hpp"

#include <cmath>

#include "data/dataset.hpp"
#include "harness.hpp"
#include "pdn/raster.hpp"
#include "serve/server.hpp"

namespace perfbench {

std::uint64_t map_hash(const lmmir::grid::Grid2D& map) {
  const std::uint64_t h = hash_value(map.cols(), hash_value(map.rows()));
  return lmmir::data::fnv1a_bytes(map.data().data(),
                                  map.data().size() * sizeof(float), h);
}

lmmir::grid::Grid2D reference_map(lmmir::models::IrModel& model,
                                  const lmmir::spice::Netlist& netlist,
                                  const lmmir::data::SampleOptions& opts) {
  using lmmir::tensor::Tensor;
  lmmir::data::SampleOptions cold = opts;
  cold.feature_context = nullptr;
  const lmmir::data::FeaturizedNetlist f =
      lmmir::data::featurize_netlist(netlist, cold);
  const auto& cs = f.circuit.shape();
  const auto& ts = f.tokens.shape();
  const Tensor circuit = lmmir::data::slice_channels(
      Tensor::from_data({1, cs[0], cs[1], cs[2]}, f.circuit.data()),
      model.in_channels());
  const Tensor tokens = Tensor::from_data({1, ts[0], ts[1]}, f.tokens.data());
  const Tensor pred = model.predict(circuit, tokens);
  lmmir::serve::PredictResult result;
  result.map = Tensor::from_data({pred.dim(1), pred.dim(2), pred.dim(3)},
                                 pred.data());
  return lmmir::serve::restore_percent_map(result, f.adjust);
}

lmmir::pdn::SolveOptions golden_solve_options(
    const lmmir::data::SampleOptions& opts) {
  lmmir::pdn::SolveOptions solve;
  solve.cg.preconditioner = opts.solver_precond;
  solve.cg.precision = opts.solver_precision;
  return solve;
}

lmmir::grid::Grid2D truth_map(const lmmir::spice::Netlist& netlist,
                              const lmmir::pdn::Solution& solution) {
  lmmir::grid::Grid2D truth = lmmir::pdn::rasterize_ir_drop(netlist, solution);
  truth.scale(static_cast<float>(100.0 / solution.vdd));
  return truth;
}

std::string check_solution(const lmmir::pdn::Circuit& circuit,
                           const lmmir::pdn::Solution& solution,
                           double tolerance) {
  if (!solution.converged || solution.breakdown)
    return "solve did not converge (residual " +
           std::to_string(solution.cg_residual) + ")";
  const double vdd = solution.vdd;
  if (!std::isfinite(vdd) || vdd <= 0.0) return "vdd is not positive";
  for (std::size_t i = 0; i < solution.node_voltage.size(); ++i) {
    const double drop = solution.ir_drop[i];
    if (!std::isfinite(solution.node_voltage[i]) || !std::isfinite(drop))
      return "non-finite voltage at node " + std::to_string(i);
    if (drop < 0.0 || drop > vdd)
      return "drop " + std::to_string(drop) + " outside [0, vdd] at node " +
             std::to_string(i);
  }
  const lmmir::pdn::AssembledSystem sys =
      lmmir::pdn::assemble_ir_system(circuit);
  std::vector<double> x(sys.matrix.dim(), 0.0);
  for (std::size_t node = 0; node < sys.unknown_of.size(); ++node)
    if (sys.unknown_of[node] >= 0)
      x[static_cast<std::size_t>(sys.unknown_of[node])] =
          solution.node_voltage[node];
  std::vector<double> ax;
  sys.matrix.multiply(x, ax);
  double r2 = 0.0, b2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double r = sys.rhs[i] - ax[i];
    r2 += r * r;
    b2 += sys.rhs[i] * sys.rhs[i];
  }
  const double relative = b2 > 0.0 ? std::sqrt(r2 / b2) : std::sqrt(r2);
  if (!(relative <= tolerance))
    return "relative residual " + std::to_string(relative) +
           " exceeds the CG tolerance " + std::to_string(tolerance);
  return {};
}

}  // namespace perfbench
