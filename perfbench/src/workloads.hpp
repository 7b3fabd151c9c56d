#pragma once
// The benchmark's three workloads, each one closed-loop client.  Each run builds its
// inputs from the seed, sets the system up several times (the median is
// setup_s), runs the timed loop untraced, or, with tracing on, a short
// serving phase plus a traced replay through the layers' public
// functions, and finally checks every output.
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome-trace file of the traced replay
};

struct RunReport {
  std::uint64_t fingerprint = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;    // exceptions, rejections and failed checks
  std::vector<std::string> errors;  // the first few failure messages
  int tail_per_mille = 0;    // highest percentile with 10 samples beyond
  double tail_ms = 0.0;
  std::vector<Metric> metrics;
};

/// Throws std::invalid_argument for an unknown workload.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
