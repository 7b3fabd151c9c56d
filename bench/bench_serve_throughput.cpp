// Serving throughput: dynamic batching and thread-pool scaling on the
// recorded-plan inference path.
//
// Drives an InferenceServer with concurrent client threads over generated
// contest-style cases and reports latency percentiles and throughput as a
// JSON perf record, comparing runtime thread counts (1 vs 8 by default).
// On multi-core hosts the 8-thread configuration parallelizes the batched
// forward over the pool; the record includes hardware_concurrency so
// single-core results are interpretable.  Every batch runs through
// IrModel::predict, so each batch shape the coalescer forms records one
// inference plan and replays it afterwards (docs/PLAN.md).
//
// The bench exits non-zero unless
//   * every thread-count configuration reproduces the serial eager
//     reference (batch-1 forward, one thread) bitwise, and
//   * a deterministic steady-state probe (1 thread, batch size 1, after
//     each shape has recorded and replayed once) shows that replay
//     allocates nothing per recorded step: counted by global operator
//     new, every round of IrModel::predict replays makes the same number
//     of allocations per request, fewer than the plan has steps.  The
//     record carries that count (the replay output) next to the plan's
//     step count, and the served per-request count of the same requests
//     through a one-dispatcher server (stacked inputs, replay output, one
//     owning map, promise and queue bookkeeping per request).
//
// Knobs (environment):
//   LMMIR_BENCH_THREADS   comma list of pool sizes      (default "1,8")
//   LMMIR_BENCH_CLIENTS   concurrent client threads     (default 8)
//   LMMIR_BENCH_REQUESTS  requests per client           (default 12)
//   LMMIR_BENCH_SIDE      model input side              (default 32)
//   LMMIR_BENCH_CASES     distinct generated cases      (default 3)
//   LMMIR_BENCH_MODEL     registry model name           (default LMM-IR)
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "data/dataset.hpp"
#include "data/sample.hpp"
#include "gen/suite.hpp"
#include "models/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/plan.hpp"
#include "util/stopwatch.hpp"

// ---- global allocation counter ----------------------------------------
// Replacing the global throwing operator new in this TU instruments every
// heap allocation the whole binary performs (malloc-backed, matching
// deletes below).  Aligned-new falls through to the default implementation,
// which is self-consistent — std::vector<float> and the rest of the hot
// path use the plain forms counted here.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace lmmir;
using tensor::Tensor;

struct ConfigResult {
  std::size_t threads = 0;
  double seconds = 0.0;
  serve::ServerStats stats;
};

/// A sample's request stacked to batch 1 exactly as the server stacks it.
struct BatchOne {
  Tensor circuit, tokens;
};

BatchOne batch_one(const models::IrModel& model, const data::Sample& s) {
  const serve::PredictRequest req = serve::request_from_sample(s);
  const auto& cs = req.circuit.shape();
  BatchOne b;
  b.circuit = data::slice_channels(
      Tensor::from_data({1, cs[0], cs[1], cs[2]}, req.circuit.data()),
      model.in_channels());
  if (req.tokens.defined()) {
    const auto& ts = req.tokens.shape();
    b.tokens = Tensor::from_data({1, ts[0], ts[1]}, req.tokens.data());
  }
  return b;
}

void print_plan_stats_json(benchio::JsonRecord& rec,
                           const tensor::plan::RuntimeStats& s) {
  rec.printf(
      "{\"plans_recorded\": %zu, \"plans_unsupported\": %zu, "
      "\"replays\": %zu, \"eager_runs\": %zu}",
      s.plans_recorded, s.plans_unsupported, s.replays, s.eager_runs);
}

}  // namespace

int main() {
  const std::size_t clients =
      static_cast<std::size_t>(benchio::env_long("LMMIR_BENCH_CLIENTS", 8));
  const std::size_t requests_per_client =
      static_cast<std::size_t>(benchio::env_long("LMMIR_BENCH_REQUESTS", 12));
  const std::size_t side =
      static_cast<std::size_t>(benchio::env_long("LMMIR_BENCH_SIDE", 32));
  const std::size_t cases = static_cast<std::size_t>(
      std::max(1L, benchio::env_long("LMMIR_BENCH_CASES", 3)));
  std::string model_name = "LMM-IR";
  if (const char* v = std::getenv("LMMIR_BENCH_MODEL")) model_name = v;
  const std::vector<std::size_t> thread_cfgs = benchio::env_thread_list();

  // Record registry telemetry alongside the timings (instrument creation
  // happens on first touch, before the counted phases; recording itself
  // never heap-allocates, so the allocation gate below is unaffected).
  obs::set_metrics_enabled(true);

  // Generated contest-style cases, featurized + golden-solved once.
  data::SampleOptions sopts;
  sopts.input_side = side;
  sopts.pc_grid = 4;
  gen::SuiteOptions suite_opts;
  suite_opts.scale = 0.05;
  const auto configs =
      gen::fake_training_suite(static_cast<int>(cases), 1717, suite_opts);
  std::vector<data::Sample> samples;
  for (const auto& cfg : configs) samples.push_back(data::make_sample(cfg, sopts));

  std::shared_ptr<models::IrModel> model;
  try {
    model = models::make_model(model_name, 99);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_serve_throughput: %s\n", e.what());
    return 2;
  }
  model->set_training(false);

  // Reference predictions for every identity check below: the eager
  // forward, serial, one request at a time.
  runtime::set_global_threads(1);
  std::vector<std::vector<float>> reference;
  for (const auto& s : samples) {
    const BatchOne b = batch_one(*model, s);
    tensor::NoGradGuard no_grad;
    reference.push_back(model->forward(b.circuit, b.tokens).data());
  }

  // ---- thread-scaling configs ------------------------------------------
  std::vector<ConfigResult> results;
  std::atomic<bool> identical{true};
  for (std::size_t threads : thread_cfgs) {
    runtime::set_global_threads(threads);
    serve::ServeOptions opts;
    opts.max_batch = 8;
    opts.max_wait_us = 1000;
    serve::InferenceServer server(model, opts);

    util::Stopwatch watch;
    std::vector<std::thread> pool;
    pool.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
      pool.emplace_back([&, c] {
        for (std::size_t r = 0; r < requests_per_client; ++r) {
          const std::size_t si = (c + r) % samples.size();
          const auto res =
              server.predict(serve::request_from_sample(samples[si]));
          const auto& want = reference[si];
          if (res.map.data() != want) identical.store(false);
        }
      });
    for (auto& t : pool) t.join();

    ConfigResult cr;
    cr.threads = threads;
    cr.seconds = watch.seconds();
    cr.stats = server.stats();
    results.push_back(cr);
  }

  // min/max by thread count, not list order (LMMIR_BENCH_THREADS may be
  // given in any order).
  const auto* min_cfg = &results.front();
  const auto* max_cfg = &results.front();
  for (const auto& r : results) {
    if (r.threads < min_cfg->threads) min_cfg = &r;
    if (r.threads > max_cfg->threads) max_cfg = &r;
  }
  const double base_rps = min_cfg->stats.throughput_rps;
  const double peak_rps = max_cfg->stats.throughput_rps;

  // ---- deterministic steady-state probe --------------------------------
  // 1 runtime thread, batch size 1.  A one-dispatcher server serves every
  // sample twice (recording each batch-1 plan if the configs above formed
  // no batch of one, then replaying it), and once more for the served
  // count.  Then the rounds replay every sample through IrModel::predict
  // directly, with nothing but the replay between the counter reads.
  runtime::set_global_threads(1);
  constexpr std::size_t kRounds = 4;
  bool steady_identical = true;
  bool steady_replayed = true;
  std::uint64_t served_allocs = 0;
  {
    serve::ServeOptions opts;
    opts.max_batch = 1;
    opts.worker_threads = 1;
    serve::InferenceServer server(model, opts);
    for (int warm = 0; warm < 2; ++warm)
      for (const auto& s : samples)
        server.predict(serve::request_from_sample(s));
    const tensor::plan::RuntimeStats before = server.plan_stats();
    const std::uint64_t g0 = g_alloc_count.load(std::memory_order_relaxed);
    for (std::size_t si = 0; si < samples.size(); ++si) {
      const auto res = server.predict(serve::request_from_sample(samples[si]));
      if (res.map.data() != reference[si]) steady_identical = false;
    }
    served_allocs = g_alloc_count.load(std::memory_order_relaxed) - g0;
    steady_replayed = server.plan_stats().replays - before.replays ==
                      samples.size();
  }
  std::vector<BatchOne> inputs;
  for (const auto& s : samples) inputs.push_back(batch_one(*model, s));
  std::vector<std::uint64_t> round_allocs;
  const tensor::plan::RuntimeStats probe_before =
      model->plan_runtime().stats();
  for (std::size_t round = 0; round < kRounds; ++round) {
    const std::uint64_t g0 = g_alloc_count.load(std::memory_order_relaxed);
    for (std::size_t si = 0; si < inputs.size(); ++si) {
      const Tensor pred = model->predict(inputs[si].circuit, inputs[si].tokens);
      if (pred.data() != reference[si]) steady_identical = false;
    }
    round_allocs.push_back(g_alloc_count.load(std::memory_order_relaxed) - g0);
  }
  const tensor::plan::RuntimeStats probe_after = model->plan_runtime().stats();
  steady_replayed = steady_replayed &&
                    probe_after.replays - probe_before.replays ==
                        kRounds * inputs.size() &&
                    probe_after.eager_runs == probe_before.eager_runs;
  const auto plan = model->plan_runtime().plan_for(inputs.front().circuit,
                                                   inputs.front().tokens);
  const std::size_t plan_steps =
      plan && plan->supported() ? plan->live_steps() : 0;
  const double per_request = static_cast<double>(round_allocs.front()) /
                             static_cast<double>(inputs.size());
  const double served_per_request =
      static_cast<double>(served_allocs) / static_cast<double>(samples.size());
  const bool steady_flat =
      std::all_of(round_allocs.begin(), round_allocs.end(),
                  [&](std::uint64_t a) { return a == round_allocs.front(); }) &&
      per_request < static_cast<double>(plan_steps);

  benchio::JsonRecord rec;
  rec.printf("{\n");
  rec.printf("  \"bench\": \"serve_throughput\",\n");
  rec.printf("  \"model\": \"%s\",\n", model_name.c_str());
  rec.printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  rec.printf("  \"clients\": %zu,\n", clients);
  rec.printf("  \"requests_per_client\": %zu,\n", requests_per_client);
  rec.printf("  \"input_side\": %zu,\n", side);
  rec.printf("  \"batched_equals_sequential\": %s,\n",
              identical.load() ? "true" : "false");
  rec.printf("  \"configs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    rec.printf("    {\"threads\": %zu, \"seconds\": %.4f, "
                "\"throughput_rps\": %.2f, \"p50_us\": %.0f, "
                "\"p95_us\": %.0f, \"p99_us\": %.0f, \"mean_batch\": %.2f, "
                "\"max_batch\": %zu}%s\n",
                r.threads, r.seconds, r.stats.throughput_rps, r.stats.p50_us,
                r.stats.p95_us, r.stats.p99_us, r.stats.mean_batch,
                r.stats.max_batch_seen,
                i + 1 < results.size() ? "," : "");
  }
  rec.printf("  ],\n");
  rec.printf("  \"steady_state\": {\"round_allocs\": [");
  for (std::size_t i = 0; i < round_allocs.size(); ++i)
    rec.printf("%s%llu", i ? ", " : "",
               static_cast<unsigned long long>(round_allocs[i]));
  rec.printf("], \"replay_allocs_per_request\": %.2f, "
              "\"served_allocs_per_request\": %.2f, "
              "\"plan_live_steps\": %zu, \"flat\": %s, "
              "\"all_replayed\": %s, \"identical\": %s},\n",
              per_request, served_per_request, plan_steps,
              steady_flat ? "true" : "false",
              steady_replayed ? "true" : "false",
              steady_identical ? "true" : "false");
  rec.printf("  \"plan_stats\": ");
  print_plan_stats_json(rec, probe_after);
  rec.printf(",\n");
  rec.printf("  \"speedup_max_vs_min_threads\": %.3f,\n",
              base_rps > 0.0 ? peak_rps / base_rps : 0.0);
  rec.printf("  \"metrics\": %s\n", benchio::metrics_snapshot().c_str());
  rec.printf("}\n");
  std::fputs(rec.text().c_str(), stdout);
  benchio::append_history("serve_throughput", rec.text());

  if (!identical.load() || !steady_identical) {
    std::fprintf(stderr, "FAIL: served predictions diverged from the serial "
                         "eager reference\n");
    return 1;
  }
  if (!steady_replayed) {
    std::fprintf(stderr, "FAIL: steady-state requests did not all replay a "
                         "recorded plan\n");
    return 1;
  }
  if (!steady_flat) {
    std::fprintf(stderr,
                 "FAIL: steady-state replay rounds are not flat below the "
                 "plan's %zu steps (first round %llu allocations for %zu "
                 "requests)\n",
                 plan_steps,
                 static_cast<unsigned long long>(round_allocs.front()),
                 inputs.size());
    return 1;
  }
  return 0;
}
