// End-to-end benchmark of the LMM-IR stack.
//
//   perfbench_e2e --workload <tat_cold|eco_session|golden_corpus>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-out <file>] [--git-sha <sha>]
//                 [--source-digest <hex>]
//   perfbench_e2e --self-test
//
// Prints one run-record line, then as the last line one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Refuses to run
// from a non-Release or sanitizer build, or when any LMMIR_* variable is
// set, so numbers always describe the program as users get it.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "models/registry.hpp"
#include "workloads.hpp"

extern char** environ;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Seed held out from tuning; later changes confirm a claimed gain on it.
constexpr std::uint64_t kHeldOutSeed = 424242;

bool sanitized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(PERFBENCH_SANITIZED)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  return false;
}

bool optimized_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);)
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      const std::size_t start = line.find_first_not_of(' ', colon + 1);
      if (start != std::string::npos) return line.substr(start);
    }
  return "unknown";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::fprintf(stderr, "self-test %s: %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // Percentile helper: the highest percentile with ten samples beyond it.
  expect(tail_percentile(100) == 900, "n=100 supports p90");
  expect(tail_percentile(99) == 750, "n=99 supports only p75");
  expect(tail_percentile(200) == 950, "n=200 supports p95");
  expect(tail_percentile(1000) == 990, "n=1000 supports p99");
  expect(tail_percentile(10000) == 999, "n=10000 supports p99.9");
  expect(tail_percentile(20) == 500 && tail_percentile(19) == 0,
         "n=19 supports no percentile");
  std::vector<double> ramp;
  for (int i = 1; i <= 100; ++i) ramp.push_back(i);
  expect(percentile(ramp, 900) == 90.0 && percentile(ramp, 500) == 50.0,
         "nearest-rank p90 of 1..100 is 90, ten samples beyond");

  // Fingerprint: stable for a seed, different for another.
  const lmmir::data::SampleOptions sample =
      lmmir::core::PipelineOptions::from_environment().sample;
  auto fingerprint = [&](std::uint64_t seed) {
    return workload_fingerprint("tat_cold", 1, seed, design_configs(seed),
                                sample);
  };
  expect(fingerprint(1) == fingerprint(1), "fingerprint is stable");
  expect(fingerprint(1) != fingerprint(2), "fingerprint changes with the seed");

  // Output checks on a small design.
  lmmir::gen::GeneratorConfig config;
  config.use_default_stack();
  config.seed = 11;
  const Design design = make_design(config);
  const EditStream edits(design.netlist, 5);
  expect(edits.edits(3).size() == 16 && edits.edits(4).size() == 8 &&
             edits.edits(3)[0].value == EditStream(design.netlist, 5).edits(3)[0].value,
         "edit stream is seeded and mixes in resistors every second step");

  auto model = lmmir::models::make_model(kModelName, kModelSeed);
  model->set_training(false);
  const lmmir::grid::Grid2D ref = reference_map(*model, design.netlist, sample);
  expect(map_hash(ref) == map_hash(reference_map(*model, design.netlist, sample)),
         "reference map is reproducible");
  lmmir::grid::Grid2D flipped = ref;
  float& cell = flipped.data()[flipped.size() / 2];
  std::uint32_t bits = 0;
  std::memcpy(&bits, &cell, sizeof(bits));
  bits ^= 1u;
  std::memcpy(&cell, &bits, sizeof(bits));
  expect(map_hash(flipped) != map_hash(ref), "a map with one flipped bit is rejected");

  const lmmir::pdn::Circuit circuit(design.netlist);
  const lmmir::pdn::SolveOptions solve = golden_solve_options(sample);
  const lmmir::pdn::Solution sol = lmmir::pdn::solve_ir_drop(circuit, solve);
  const double tol = solve.cg.tolerance;
  expect(check_solution(circuit, sol, tol).empty(), "the golden solve passes");
  std::size_t free_node = 0;
  while (circuit.is_pinned(static_cast<lmmir::spice::NodeId>(free_node)) ||
         !circuit.component_powered(static_cast<lmmir::spice::NodeId>(free_node)))
    ++free_node;
  lmmir::pdn::Solution perturbed = sol;
  perturbed.node_voltage[free_node] -= 1e-6;
  perturbed.ir_drop[free_node] += 1e-6;
  expect(!check_solution(circuit, perturbed, tol).empty(),
         "a perturbed solve is rejected by its residual");
  lmmir::pdn::Solution negative = sol;
  negative.ir_drop[free_node] = -1e-3;
  expect(!check_solution(circuit, negative, tol).empty(),
         "a negative drop is rejected");
  lmmir::pdn::Solution stalled = sol;
  stalled.converged = false;
  expect(!check_solution(circuit, stalled, tol).empty(),
         "an unconverged solve is rejected");
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--git-sha <sha>] "
               "[--source-digest <hex>]\n       perfbench_e2e --self-test\n");
  return 2;
}

int run(int argc, char** argv) {
  RunOptions opts;
  std::string git_sha = "unknown", source_digest = "unknown";
  bool self = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end) return usage();
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end || !(opts.seconds > 0.0)) return usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage();
      opts.trace = value == "1";
    } else if (arg == "--trace-out") {
      opts.trace_out = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return usage();
    }
  }

  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "LMMIR_", 6) == 0) {
      std::fprintf(stderr,
                   "perfbench: refusing to run with %s set; the benchmark "
                   "measures the compiled-in defaults\n", *e);
      return 3;
    }
  if (!optimized_build() || sanitized_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to run from a %s%s build; build with "
                 "CMAKE_BUILD_TYPE=Release and no sanitizers\n",
                 PERFBENCH_BUILD_TYPE, sanitized_build() ? " sanitizer" : "");
    return 3;
  }
  if (self) return self_test();
  if (!have_workload) return usage();

  const RunReport report = run_workload(opts);
  bool finite = true;
  for (const Metric& m : report.metrics) finite = finite && std::isfinite(m.value);
  const bool correct = report.failed == 0 && report.errors.empty() && finite;

  std::string record = "{\"run_record\": {";
  record += "\"workload\": " + json_string(opts.workload);
  record += ", \"seed\": " + std::to_string(opts.seed);
  record += ", \"held_out_seed\": " + std::to_string(kHeldOutSeed);
  record += ", \"seconds\": " + json_number(opts.seconds);
  record += std::string(", \"trace\": ") + (opts.trace ? "true" : "false");
  record += ", \"git_sha\": " + json_string(git_sha);
  record += ", \"source_digest\": " + json_string(source_digest);
  record += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  record += ", \"compiler\": " + json_string(compiler());
  record += ", \"cpu_model\": " + json_string(cpu_model());
  record += ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  record += ", \"pool_threads\": 1";
  record += ", \"clients\": 1";
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(report.fingerprint));
  record += ", \"fingerprint\": " + json_string(fp);
  record += ", \"attempted\": " + std::to_string(report.attempted);
  record += ", \"succeeded\": " + std::to_string(report.attempted - report.failed);
  record += ", \"failed\": " + std::to_string(report.failed);
  if (!opts.trace) {
    record += ", \"tail_percentile\": " + json_number(report.tail_per_mille / 10.0);
    record += ", \"tail_ms\": " + json_number(report.tail_ms);
  }
  record += ", \"errors\": [";
  for (std::size_t i = 0; i < report.errors.size(); ++i)
    record += (i ? ", " : "") + json_string(report.errors[i]);
  record += "]}}";

  std::string result = std::string("{\"correct\": ") + (correct ? "true" : "false");
  result += ", \"attempted\": " + std::to_string(report.attempted);
  result += ", \"failed\": " + std::to_string(report.failed);
  result += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    result += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
              json_number(std::isfinite(m.value) ? m.value : 0.0) +
              ", \"unit\": " + json_string(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n%s\n", record.c_str(), result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 4;
  }
}
