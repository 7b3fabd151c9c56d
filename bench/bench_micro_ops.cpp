// Microbenchmarks (google-benchmark) backing the paper's scaling claims:
//  - SPICE parsing and point-cloud encoding stay linear in netlist size
//    ("directly process netlists with 100k+ nodes", Sec. I);
//  - grid_pool keeps the LNT input constant-size regardless of netlist
//    size (the "large-scale" mechanism of Sec. III-C);
//  - golden MNA solve cost vs node count (the simulation bottleneck that
//    motivates ML prediction, Fig. 1);
//  - the Fig. 3 contrast: 2-D rasterized netlist representation vs the
//    lossless point-cloud encoding;
//  - model inference building blocks (conv2d, attention) for TAT context;
//  - the plan-replay microkernels: dispatched GEMM vs the scalar
//    reference, and a recorded-plan replay vs the eager forward it
//    recorded (docs/PLAN.md).
#include <benchmark/benchmark.h>

#include <sstream>

#include "bench_common.hpp"
#include "features/maps.hpp"
#include "gen/began.hpp"
#include "nn/attention.hpp"
#include "pdn/circuit.hpp"
#include "pdn/solver.hpp"
#include "pointcloud/cloud.hpp"
#include "pointcloud/pool.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "tensor/microkernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace {

using namespace lmmir;

spice::Netlist make_netlist(int side_um) {
  gen::GeneratorConfig cfg;
  cfg.name = "bench";
  cfg.width_um = side_um;
  cfg.height_um = side_um;
  cfg.seed = 7;
  cfg.use_default_stack();
  return gen::generate_pdn(cfg);
}

void BM_SpiceParse(benchmark::State& state) {
  const auto nl = make_netlist(static_cast<int>(state.range(0)));
  const std::string text = spice::write_netlist_string(nl);
  for (auto _ : state) {
    auto parsed = spice::parse_netlist_string(text);
    benchmark::DoNotOptimize(parsed.node_count());
  }
  state.counters["nodes"] = static_cast<double>(nl.node_count());
  state.counters["elements"] = static_cast<double>(nl.element_count());
}
BENCHMARK(BM_SpiceParse)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_PointCloudEncode(benchmark::State& state) {
  const auto nl = make_netlist(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto cloud = pc::cloud_from_netlist(nl);
    benchmark::DoNotOptimize(cloud.points.size());
  }
  state.counters["elements"] = static_cast<double>(nl.element_count());
}
BENCHMARK(BM_PointCloudEncode)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_GridPool(benchmark::State& state) {
  const auto nl = make_netlist(static_cast<int>(state.range(0)));
  const auto cloud = pc::cloud_from_netlist(nl);
  for (auto _ : state) {
    auto tokens = pc::grid_pool(cloud, 8);
    benchmark::DoNotOptimize(tokens.features.data());
  }
  state.counters["points"] = static_cast<double>(cloud.points.size());
  state.counters["tokens"] = 64;  // constant regardless of netlist size
}
BENCHMARK(BM_GridPool)->Arg(32)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_GoldenSolve(benchmark::State& state) {
  const auto nl = make_netlist(static_cast<int>(state.range(0)));
  const pdn::Circuit circuit(nl);
  for (auto _ : state) {
    auto sol = pdn::solve_ir_drop(circuit);
    benchmark::DoNotOptimize(sol.worst_drop);
  }
  state.counters["nodes"] = static_cast<double>(nl.node_count());
}
BENCHMARK(BM_GoldenSolve)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

// Fig. 3 contrast: rasterizing the netlist to 2-D maps (lossy, the
// "ordinary representation") vs the point-cloud encoding (lossless).
void BM_Fig3_Rasterize2D(benchmark::State& state) {
  const auto nl = make_netlist(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto maps = feat::compute_feature_maps(nl);
    benchmark::DoNotOptimize(maps.current.data().data());
  }
}
BENCHMARK(BM_Fig3_Rasterize2D)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Fig3_PointCloud(benchmark::State& state) {
  const auto nl = make_netlist(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto cloud = pc::cloud_from_netlist(nl);
    auto tokens = pc::grid_pool(cloud, 8);
    benchmark::DoNotOptimize(tokens.features.data());
  }
}
BENCHMARK(BM_Fig3_PointCloud)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_Conv2dForward(benchmark::State& state) {
  util::Rng rng(1);
  const int side = static_cast<int>(state.range(0));
  auto x = tensor::Tensor::randn({1, 8, side, side}, rng);
  auto w = tensor::Tensor::randn({8, 8, 3, 3}, rng, 0.1f);
  auto b = tensor::Tensor::randn({8}, rng, 0.1f);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    auto y = tensor::conv2d(x, w, b, 1, 1);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(32)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_CrossAttention(benchmark::State& state) {
  util::Rng rng(2);
  const int tokens = static_cast<int>(state.range(0));
  nn::MultiHeadAttention attn(32, 2, rng);
  attn.set_training(false);
  auto q = tensor::Tensor::randn({1, 36, 32}, rng);
  auto kv = tensor::Tensor::randn({1, tokens, 32}, rng);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    auto y = attn.forward(q, kv);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_CrossAttention)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// The plan executor's GEMM: scalar reference vs the dispatched kernel
// (AVX2 when the binary, the CPU and LMMIR_SIMD all allow — bitwise
// identical either way, so the delta is pure speed).
void BM_GemmAccScalar(benchmark::State& state) {
  util::Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 32, k = 72;
  const auto a = rng.normal_vec(m * k);
  const auto b = rng.normal_vec(k * n);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    tensor::mk::gemm_acc_scalar(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
}
BENCHMARK(BM_GemmAccScalar)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmAccDispatched(benchmark::State& state) {
  util::Rng rng(3);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 32, k = 72;
  const auto a = rng.normal_vec(m * k);
  const auto b = rng.normal_vec(k * n);
  std::vector<float> c(m * n, 0.0f);
  for (auto _ : state) {
    tensor::mk::gemm_acc(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(tensor::mk::active_kernel());
}
BENCHMARK(BM_GemmAccDispatched)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// Eager forward vs replaying the plan it recorded: same arithmetic,
// minus per-op dispatch, liveness-free allocation and unfused loops.
tensor::Tensor plan_bench_forward(const tensor::Tensor& x,
                                  const tensor::Tensor& w,
                                  const tensor::Tensor& b,
                                  const tensor::Tensor& gamma,
                                  const tensor::Tensor& beta,
                                  tensor::Tensor& rm,
                                  tensor::Tensor& rv) {
  tensor::Tensor y = tensor::conv2d(x, w, b, 1, 1);
  y = tensor::batch_norm2d(y, gamma, beta, rm, rv, false);
  return tensor::relu(y);
}

void BM_ConvBnReluEager(benchmark::State& state) {
  util::Rng rng(4);
  const int side = static_cast<int>(state.range(0));
  const auto x = tensor::Tensor::randn({1, 8, side, side}, rng);
  const auto w = tensor::Tensor::randn({8, 8, 3, 3}, rng, 0.1f);
  const auto b = tensor::Tensor::randn({8}, rng, 0.1f);
  const auto gamma = tensor::Tensor::full({8}, 1.0f);
  const auto beta = tensor::Tensor::full({8}, 0.0f);
  auto rm = tensor::Tensor::zeros({8});
  auto rv = tensor::Tensor::full({8}, 1.0f);
  tensor::NoGradGuard no_grad;
  for (auto _ : state) {
    auto y = plan_bench_forward(x, w, b, gamma, beta, rm, rv);
    benchmark::DoNotOptimize(y.data().data());
  }
}
BENCHMARK(BM_ConvBnReluEager)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

void BM_ConvBnReluPlanReplay(benchmark::State& state) {
  util::Rng rng(4);
  const int side = static_cast<int>(state.range(0));
  const auto x = tensor::Tensor::randn({1, 8, side, side}, rng);
  const auto w = tensor::Tensor::randn({8, 8, 3, 3}, rng, 0.1f);
  const auto b = tensor::Tensor::randn({8}, rng, 0.1f);
  const auto gamma = tensor::Tensor::full({8}, 1.0f);
  const auto beta = tensor::Tensor::full({8}, 0.0f);
  auto rm = tensor::Tensor::zeros({8});
  auto rv = tensor::Tensor::full({8}, 1.0f);
  tensor::NoGradGuard no_grad;
  tensor::plan::PlanRuntime rt;
  auto fn = [&](const tensor::Tensor& c, const tensor::Tensor&) {
    return plan_bench_forward(c, w, b, gamma, beta, rm, rv);
  };
  rt.run(x, tensor::Tensor(), fn);  // record once outside the timed loop
  for (auto _ : state) {
    auto y = rt.run(x, tensor::Tensor(), fn);
    benchmark::DoNotOptimize(y.data().data());
  }
  state.counters["fused_ops"] = static_cast<double>(
      rt.plan_for(x, tensor::Tensor())->fused_ops());
}
BENCHMARK(BM_ConvBnReluPlanReplay)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

namespace {

// Forwards every report to both wrapped reporters, so one benchmark run
// produces the human console table and a captured JSON document without
// needing the --benchmark_out flag (which library-managed file reporters
// insist on and which would bypass the capture stream).
class TeeReporter : public benchmark::BenchmarkReporter {
 public:
  TeeReporter(benchmark::BenchmarkReporter& a, benchmark::BenchmarkReporter& b)
      : a_(a), b_(b) {}
  bool ReportContext(const Context& context) override {
    const bool keep_a = a_.ReportContext(context);
    const bool keep_b = b_.ReportContext(context);
    return keep_a && keep_b;
  }
  void ReportRuns(const std::vector<Run>& report) override {
    a_.ReportRuns(report);
    b_.ReportRuns(report);
  }
  void Finalize() override {
    a_.Finalize();
    b_.Finalize();
  }

 private:
  benchmark::BenchmarkReporter& a_;
  benchmark::BenchmarkReporter& b_;
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the console output stays, and
// the same results render as JSON once more into the repo-root
// BENCH_micro_ops.json history (one timestamped line per run).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::ConsoleReporter console;
  benchmark::JSONReporter json;
  std::ostringstream captured;
  json.SetOutputStream(&captured);
  json.SetErrorStream(&captured);
  TeeReporter tee(console, json);
  benchmark::RunSpecifiedBenchmarks(&tee);
  benchmark::Shutdown();
  lmmir::benchio::append_history("micro_ops", captured.str());
  return 0;
}
