#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "features/feature_context.hpp"
#include "features/spatial.hpp"
#include "inputs.hpp"
#include "models/registry.hpp"
#include "pointcloud/cloud.hpp"
#include "pointcloud/pool.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/session.hpp"
#include "sparse/cg.hpp"
#include "spice/parser.hpp"

namespace perfbench {
namespace {

using namespace lmmir;
using tensor::Tensor;

constexpr std::size_t kClients = 1;  // every workload is one closed loop
constexpr std::size_t kMinRequests = 100;  // so that ten lie beyond p90
constexpr int kSetupRepeats = 9;
constexpr std::size_t kEcoWarmupSteps = 2;  // edits during set-up
constexpr std::size_t kColdWarmupRequests = 2;
constexpr std::size_t kCheckThreads = 4;
constexpr double kServeShare = 0.4;  // traced runs: serving-phase share
constexpr std::size_t kMinReplaySteps = 8;
constexpr std::size_t kMaxErrors = 5;

/// One output to check: the netlist revision it answers, and its hash.
struct Output {
  std::uint64_t key = 0;
  std::uint64_t hash = 0;
};

/// Everything one closed-loop client (or the replay) saw.
struct Client {
  std::vector<double> latency_ms, extract_ms, queue_ms, compute_ms;
  std::size_t channels_computed = 0, channels_reused = 0;  // SessionResult
  std::vector<Output> outputs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < kMaxErrors) errors.push_back(what);
  }
};

/// Per-request counts the replay records besides its spans.
struct ReplayCounts {
  std::vector<double> channels_computed, parse_mb_per_s;
  std::vector<double> unknowns, pcg_iterations, spmv_mb;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

/// Runs one client's closed loop (it sends its next request only after
/// the previous reply) until `seconds` have passed and at least
/// `min_requests` were sent.  `step` must not throw.  Returns the wall
/// time.
double closed_loop(double seconds, std::size_t min_requests,
                   const std::function<void()>& step) {
  const Clock::time_point start = Clock::now();
  for (std::size_t sent = 0;
       sent < min_requests || seconds_between(start, Clock::now()) < seconds;
       ++sent)
    step();
  return seconds_between(start, Clock::now());
}

/// Sends one request; records its latency, the server's own timings and
/// the hash of the restored map.
void serve_one(serve::SessionServer& server, serve::SessionRequest request,
               std::uint64_t key, Client& client) {
  ++client.attempted;
  try {
    const Clock::time_point t0 = Clock::now();
    const serve::SessionResult r = server.predict(std::move(request));
    client.latency_ms.push_back(ms_between(t0, Clock::now()));
    client.extract_ms.push_back(r.extract_us / 1e3);
    client.queue_ms.push_back(r.queue_us / 1e3);
    client.compute_ms.push_back(r.compute_us / 1e3);
    client.channels_computed += r.channels_computed;
    client.channels_reused += r.channels_reused;
    client.outputs.push_back({key, map_hash(r.percent_map)});
  } catch (const std::exception& e) {
    client.fail(e.what());
  }
}

/// Runs jobs 0..n-1 on up to kCheckThreads threads; returns the messages
/// of the jobs that threw.
std::vector<std::string> run_jobs(std::size_t n,
                                  const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::vector<std::string> errors;
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        job(i);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        errors.push_back(e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < std::min(n, kCheckThreads); ++t)
    threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return errors;
}

// ------------------------------------------------ replay building blocks

/// The feature state a session keeps: the previous classification and
/// the six channel grids.
struct FeatureState {
  feat::ClassifiedNetlist prev;
  bool has_prev = false;
  std::array<grid::Grid2D, feat::kChannelCount> grids;

  /// classify_netlist, then rasterize_channel for each channel whose
  /// inputs changed (all six the first time), as FeatureContext::extract
  /// does.  Returns how many channels were rasterized.
  std::size_t extract(Tracer& tr, const spice::Netlist& nl) {
    feat::ClassifiedNetlist cls;
    {
      Tracer::Span span(tr, "features.classify_netlist");
      cls = feat::classify_netlist(nl);
    }
    std::size_t computed = 0;
    for (int c = 0; c < feat::kChannelCount; ++c) {
      if (has_prev && feat::channel_inputs_equal(prev, cls, c)) continue;
      Tracer::Span span(tr, "features.rasterize_channel", c);
      grids[static_cast<std::size_t>(c)] = feat::rasterize_channel(cls, c);
      ++computed;
    }
    prev = std::move(cls);
    has_prev = true;
    return computed;
  }
};

/// The inference inputs featurize_netlist builds.
struct Inputs {
  Tensor circuit;  // [C,S,S]
  Tensor tokens;   // [T,F]
  feat::AdjustInfo adjust;
};

/// adjust_to_side and normalize_channel_fixed per channel, then the
/// point-cloud tokens, each call in its own span.
Inputs finish_inputs(Tracer& tr, const FeatureState& features,
                     const spice::Netlist& nl,
                     const data::SampleOptions& opts) {
  Inputs in;
  const int side = static_cast<int>(opts.input_side);
  std::vector<float> stack;
  stack.reserve(feat::kChannelCount * opts.input_side * opts.input_side);
  for (int c = 0; c < feat::kChannelCount; ++c) {
    Tracer::Span span(tr, "data.adjust_normalize", c);
    feat::AdjustInfo info;
    const grid::Grid2D normed = feat::normalize_channel_fixed(
        feat::adjust_to_side(features.grids[static_cast<std::size_t>(c)],
                             opts.input_side, info),
        c);
    stack.insert(stack.end(), normed.data().begin(), normed.data().end());
    if (c == 0) in.adjust = info;
  }
  in.circuit = Tensor::from_data({feat::kChannelCount, side, side},
                                 std::move(stack));
  pc::Cloud cloud;
  {
    Tracer::Span span(tr, "pointcloud.cloud_from_netlist");
    cloud = pc::cloud_from_netlist(nl);
  }
  pc::TokenGrid tokens;
  {
    Tracer::Span span(tr, "pointcloud.grid_pool");
    tokens = pc::grid_pool(cloud, opts.pc_grid);
  }
  in.tokens = Tensor::from_data(
      {static_cast<int>(tokens.token_count()), pc::kTokenFeatureDim},
      std::move(tokens.features));
  return in;
}

/// One request as the server's dispatcher runs it at batch size one:
/// add the batch axis, IrModel::predict, drop the batch axis.
serve::PredictResult predict(Tracer& tr, models::IrModel& model,
                             const Inputs& in) {
  const auto& cs = in.circuit.shape();
  const auto& ts = in.tokens.shape();
  const Tensor circuit = data::slice_channels(
      Tensor::from_data({1, cs[0], cs[1], cs[2]}, in.circuit.data()),
      model.in_channels());
  const Tensor tokens = Tensor::from_data({1, ts[0], ts[1]}, in.tokens.data());
  Tensor pred;
  {
    Tracer::Span span(tr, "model.predict");
    pred = model.predict(circuit, tokens);
  }
  serve::PredictResult out;
  out.map = Tensor::from_data({pred.dim(1), pred.dim(2), pred.dim(3)},
                              pred.data());
  return out;
}

grid::Grid2D restore(Tracer& tr, const serve::PredictResult& result,
                     const feat::AdjustInfo& adjust) {
  Tracer::Span span(tr, "serve.restore_percent_map");
  return serve::restore_percent_map(result, adjust);
}

// ------------------------------------------------------------ workloads

struct ServeCounters {
  std::size_t completed = 0, batches = 0, requests = 0, hits = 0;
};

class Workload {
 public:
  Workload(const RunOptions& opts, std::size_t designs)
      : opts_(opts),
        pipe_(core::PipelineOptions::from_environment()),
        sample_(pipe_.options().sample),
        configs_(design_configs(opts.seed)) {
    configs_.resize(designs);
    designs_.resize(designs);
    for (std::size_t i = 0; i < designs; ++i)
      designs_[i] = make_design(configs_[i]);
  }
  virtual ~Workload() = default;

  std::uint64_t fingerprint() const {
    return workload_fingerprint(opts_.workload, kClients, opts_.seed,
                                configs_, sample_);
  }
  const data::SampleOptions& sample() const { return sample_; }
  const std::vector<Design>& designs() const { return designs_; }

  /// Build the system under test and warm it up (timed as set-up).
  virtual void setup() = 0;
  /// Release what setup() built (not timed).
  virtual void teardown() {}
  /// The closed loop of the timed phase.
  virtual double loop(Client& client, double seconds,
                      std::size_t min_requests) = 0;
  /// Shut the server down after its phase; the model stays for checks.
  virtual void stop() {}
  virtual bool serving() const { return true; }
  virtual ServeCounters serve_counters() const { return {}; }

  /// Traced replay: one request (a round of requests for several
  /// tenants) through the layers' public functions.
  virtual void begin_replay(Tracer&) {}
  virtual bool traced_step(std::size_t step) const { return step % 2 == 0; }
  virtual void replay_step(std::size_t step, Tracer& tr, Client& out,
                           ReplayCounts& counts) = 0;

  /// The design an output key belongs to.
  virtual std::size_t design_of(std::uint64_t key) const { return key; }
  /// Reference hash for each key; `truth` holds each design's checked
  /// golden raster hash.
  virtual std::map<std::uint64_t, std::uint64_t> references(
      const std::set<std::uint64_t>& keys,
      const std::vector<std::uint64_t>& truth) = 0;

 protected:
  const RunOptions& opts_;
  core::Pipeline pipe_;
  data::SampleOptions sample_;
  std::vector<gen::GeneratorConfig> configs_;
  std::vector<Design> designs_;
};

/// Shared part of the two serving workloads: the model and session server.
class ServingWorkload : public Workload {
 public:
  using Workload::Workload;

  void teardown() override {
    server_.reset();
    model_.reset();
  }
  void stop() override {
    if (server_) server_->shutdown();
  }
  ServeCounters serve_counters() const override {
    const serve::ServerStats s = server_->server_stats();
    const serve::SessionCacheStats c = server_->cache_stats();
    return {s.completed, s.batches, c.requests, c.hits};
  }

 protected:
  void build() {
    model_ = std::shared_ptr<models::IrModel>(
        models::make_model(kModelName, kModelSeed));
    server_ = pipe_.make_session_server(model_);
  }

  std::shared_ptr<models::IrModel> model_;
  std::unique_ptr<serve::SessionServer> server_;
};

/// tat_cold: one client sends each design's full SPICE text under a fresh
/// session and drops the session after the reply.
class TatCold : public ServingWorkload {
 public:
  explicit TatCold(const RunOptions& opts) : ServingWorkload(opts, kDesignCount) {}

  void setup() override {
    build();
    for (std::size_t w = 0; w < kColdWarmupRequests; ++w) send(w, nullptr);
  }

  double loop(Client& client, double seconds,
              std::size_t min_requests) override {
    std::size_t k = 0;
    return closed_loop(seconds, min_requests,
                       [&] { send(k++ % designs_.size(), &client); });
  }

  void replay_step(std::size_t step, Tracer& tr, Client& out,
                   ReplayCounts& counts) override {
    const std::size_t d = (step / 2) % designs_.size();
    const Design& design = designs_[d];
    tr.set_unit(static_cast<std::uint32_t>(step));
    ++out.attempted;
    try {
      grid::Grid2D map;
      {
        Tracer::Span request(tr, "request");
        spice::Netlist nl;
        const Clock::time_point t0 = Clock::now();
        {
          Tracer::Span span(tr, "spice.parse_netlist_string");
          nl = spice::parse_netlist_string(design.text);
        }
        counts.parse_mb_per_s.push_back(static_cast<double>(design.text.size()) /
                                        1e6 / seconds_between(t0, Clock::now()));
        FeatureState features;
        features.extract(tr, nl);
        const Inputs in = finish_inputs(tr, features, nl, sample_);
        map = restore(tr, predict(tr, *model_, in), in.adjust);
      }
      out.outputs.push_back({d, map_hash(map)});
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }

  std::map<std::uint64_t, std::uint64_t> references(
      const std::set<std::uint64_t>& keys,
      const std::vector<std::uint64_t>&) override {
    const std::vector<std::uint64_t> list(keys.begin(), keys.end());
    std::vector<std::uint64_t> hashes(list.size());
    run_jobs(list.size(), [&](std::size_t i) {
      hashes[i] = map_hash(reference_map(*model_, designs_[list[i]].netlist,
                                         sample_));
    });
    std::map<std::uint64_t, std::uint64_t> out;
    for (std::size_t i = 0; i < list.size(); ++i) out[list[i]] = hashes[i];
    return out;
  }

 private:
  /// One full-netlist request under a fresh session id, dropped after.
  void send(std::size_t d, Client* client) {
    serve::SessionRequest req;
    req.session_id = "cold-" + std::to_string(next_session_++);
    req.netlist_text = designs_[d].text;
    const std::string session = req.session_id;
    if (client) {
      serve_one(*server_, std::move(req), d, *client);
    } else {
      server_->predict(std::move(req));
    }
    server_->drop_session(session);
  }

  std::size_t next_session_ = 0;
};

/// eco_session: one tenant holds one design, loaded during set-up, and
/// sends seeded ValueEdit deltas against its cached revision.  Output keys
/// are edit steps.  One tenant, not two: with two tenants on one
/// dispatcher, run medians fell mostly into two clusters (p50 33.9-38.9
/// ms and 48.3-52.5 ms over eight seeds); see perfbench/README.md.
class EcoSession : public ServingWorkload {
 public:
  explicit EcoSession(const RunOptions& opts)
      : ServingWorkload(opts, 1),
        stream_(designs_[0].netlist, derive_seed(opts.seed, 1000)) {}

  void setup() override {
    build();
    next_step_ = 0;
    serve::SessionRequest req;
    req.session_id = kSession;
    req.netlist_text = designs_[0].text;
    server_->predict(std::move(req));
    Client warm;
    loop(warm, 0.0, kEcoWarmupSteps);
    if (warm.failed)
      throw std::runtime_error("eco warm-up failed: " + warm.errors[0]);
  }

  double loop(Client& client, double seconds,
              std::size_t min_requests) override {
    return closed_loop(seconds, min_requests, [&] {
      const std::size_t step = next_step_++;
      serve::SessionRequest req;
      req.session_id = kSession;
      req.edits = stream_.edits(step);
      serve_one(*server_, std::move(req), step, client);
    });
  }

  void begin_replay(Tracer& tr) override {
    netlist_ = designs_[0].netlist;
    features_ = FeatureState{};
    features_.extract(tr, netlist_);  // the full load
  }

  /// Steps go traced, traced, untraced, untraced, so both halves see the
  /// steps that also rescale resistors.
  bool traced_step(std::size_t step) const override { return (step / 2) % 2 == 0; }

  void replay_step(std::size_t step, Tracer& tr, Client& out,
                   ReplayCounts&) override {
    const std::vector<serve::ValueEdit> edits = stream_.edits(step);
    tr.set_unit(static_cast<std::uint32_t>(step));
    ++out.attempted;
    try {
      grid::Grid2D map;
      {
        Tracer::Span request(tr, "request");
        for (const serve::ValueEdit& e : edits) {
          Tracer::Span span(tr, "spice.set_element_value");
          netlist_.set_element_value(e.element_index, e.value);
        }
        features_.extract(tr, netlist_);
        const Inputs in = finish_inputs(tr, features_, netlist_, sample_);
        map = restore(tr, predict(tr, *model_, in), in.adjust);
      }
      out.outputs.push_back({step, map_hash(map)});
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }

  std::size_t design_of(std::uint64_t) const override { return 0; }

  /// Each job applies the edits from the original design up to a chunk of
  /// needed steps, then computes a cold reference per step.
  std::map<std::uint64_t, std::uint64_t> references(
      const std::set<std::uint64_t>& keys,
      const std::vector<std::uint64_t>&) override {
    const std::vector<std::uint64_t> steps(keys.begin(), keys.end());
    const std::size_t chunk = std::max<std::size_t>(
        8, (steps.size() + 2 * kCheckThreads - 1) / (2 * kCheckThreads));
    const std::size_t jobs = (steps.size() + chunk - 1) / chunk;
    std::vector<std::uint64_t> hashes(steps.size(), 0);
    run_jobs(jobs, [&](std::size_t j) {
      spice::Netlist nl = designs_[0].netlist;
      std::size_t applied = 0;  // steps whose edits are in nl
      for (std::size_t i = j * chunk; i < std::min(steps.size(), (j + 1) * chunk); ++i) {
        while (applied <= steps[i])
          for (const serve::ValueEdit& e : stream_.edits(applied++))
            nl.set_element_value(e.element_index, e.value);
        hashes[i] = map_hash(reference_map(*model_, nl, sample_));
      }
    });
    std::map<std::uint64_t, std::uint64_t> out;
    for (std::size_t i = 0; i < steps.size(); ++i) out[steps[i]] = hashes[i];
    return out;
  }

 private:
  static constexpr const char* kSession = "tenant-0";

  EditStream stream_;
  std::size_t next_step_ = 0;
  spice::Netlist netlist_;  // replay state
  FeatureState features_;
};

/// golden_corpus: one loop calls data::make_sample on each design with no
/// shared solver or feature context.
class GoldenCorpus : public Workload {
 public:
  explicit GoldenCorpus(const RunOptions& opts) : Workload(opts, kDesignCount) {}

  bool serving() const override { return false; }

  void setup() override { make(0); }

  double loop(Client& client, double seconds,
              std::size_t min_requests) override {
    std::size_t k = 0;
    return closed_loop(seconds, min_requests, [&] {
      const std::size_t d = k++ % designs_.size();
      ++client.attempted;
      try {
        const Clock::time_point t0 = Clock::now();
        const data::Sample s = make(d);
        client.latency_ms.push_back(ms_between(t0, Clock::now()));
        client.outputs.push_back({d, map_hash(s.truth_full)});
      } catch (const std::exception& e) {
        client.fail(e.what());
      }
    });
  }

  void replay_step(std::size_t step, Tracer& tr, Client& out,
                   ReplayCounts& counts) override {
    const std::size_t d = (step / 2) % designs_.size();
    const spice::Netlist& nl = designs_[d].netlist;
    tr.set_unit(static_cast<std::uint32_t>(step));
    ++out.attempted;
    try {
      grid::Grid2D truth;
      {
        Tracer::Span request(tr, "request");
        const pdn::SolveOptions solve = golden_solve_options(sample_);
        std::optional<pdn::Circuit> circuit;
        {
          Tracer::Span span(tr, "pdn.circuit");
          circuit.emplace(nl);
        }
        pdn::AssembledSystem sys;
        {
          Tracer::Span span(tr, "pdn.assemble_ir_system");
          sys = pdn::assemble_ir_system(*circuit);
        }
        std::unique_ptr<sparse::Preconditioner> precond;
        {
          Tracer::Span span(tr, "sparse.make_preconditioner");
          precond = sparse::make_preconditioner(solve.cg.preconditioner, sys.matrix);
        }
        sparse::CgResult cg;
        {
          Tracer::Span span(tr, "sparse.conjugate_gradient");
          cg = sparse::conjugate_gradient(sys.matrix, sys.rhs, solve.cg,
                                          precond.get());
        }
        counts.unknowns.push_back(static_cast<double>(sys.matrix.dim()));
        counts.pcg_iterations.push_back(static_cast<double>(cg.iterations));
        counts.spmv_mb.push_back(static_cast<double>(cg.spmv_bytes) / 1e6);
        pdn::Solution sol;
        {
          Tracer::Span span(tr, "pdn.finish_solution");
          sol = pdn::detail::finish_solution(*circuit, sys, std::move(cg));
        }
        {
          Tracer::Span span(tr, "pdn.rasterize_ir_drop");
          truth = truth_map(nl, sol);
        }
        {
          Tracer::Span span(tr, "data.featurize_netlist");
          FeatureState features;
          counts.channels_computed.push_back(
              static_cast<double>(features.extract(tr, nl)));
          finish_inputs(tr, features, nl, sample_);
        }
        {
          // make_sample's target: the truth map adjusted to the model side.
          Tracer::Span span(tr, "data.adjust_normalize", feat::kChannelCount);
          feat::AdjustInfo info;
          grid::Grid2D target = feat::adjust_to_side(truth, sample_.input_side, info);
          target.scale(data::kTargetScale);
        }
      }
      out.outputs.push_back({d, map_hash(truth)});
    } catch (const std::exception& e) {
      out.fail(e.what());
    }
  }

  std::map<std::uint64_t, std::uint64_t> references(
      const std::set<std::uint64_t>& keys,
      const std::vector<std::uint64_t>& truth) override {
    std::map<std::uint64_t, std::uint64_t> out;
    for (std::uint64_t key : keys) out[key] = truth.at(key);
    return out;
  }

 private:
  data::Sample make(std::size_t d) {
    return data::make_sample(designs_[d].netlist, designs_[d].config.name,
                             sample_);
  }
};

std::unique_ptr<Workload> make_workload(const RunOptions& opts) {
  if (opts.workload == "tat_cold") return std::make_unique<TatCold>(opts);
  if (opts.workload == "eco_session") return std::make_unique<EcoSession>(opts);
  if (opts.workload == "golden_corpus")
    return std::make_unique<GoldenCorpus>(opts);
  throw std::invalid_argument("unknown workload '" + opts.workload + "'");
}

// --------------------------------------------------------------- metrics

/// Per-layer metrics read from the replay's spans: the median per request
/// of the self time of the named call.
struct SpanMetric {
  const char* metric;
  const char* span;
  int tag;  // -1: any
};

constexpr SpanMetric kSpanMetrics[] = {
    {"spice.parse_ms", "spice.parse_netlist_string", -1},
    {"spice.edit_ms", "spice.set_element_value", -1},
    {"features.classify_ms", "features.classify_netlist", -1},
    {"features.rasterize_ms", "features.rasterize_channel", -1},
    {"features.pdn_density_ms", "features.rasterize_channel",
     feat::kChannelPdnDensity},
    {"features.effective_distance_ms", "features.rasterize_channel",
     feat::kChannelEffectiveDistance},
    {"data.adjust_normalize_ms", "data.adjust_normalize", -1},
    {"pointcloud.cloud_ms", "pointcloud.cloud_from_netlist", -1},
    {"pointcloud.pool_ms", "pointcloud.grid_pool", -1},
    {"model.forward_b1_ms", "model.predict", -1},
    {"serve.restore_ms", "serve.restore_percent_map", -1},
    {"pdn.circuit_ms", "pdn.circuit", -1},
    {"pdn.assemble_ms", "pdn.assemble_ir_system", -1},
    {"pdn.truth_raster_ms", "pdn.rasterize_ir_drop", -1},
    {"sparse.precond_setup_ms", "sparse.make_preconditioner", -1},
    {"sparse.pcg_ms", "sparse.conjugate_gradient", -1},
};

double share(std::size_t part, std::size_t whole) {
  return whole ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Untraced timed run: the end-to-end metrics.
Client timed_run(Workload& w, const RunOptions& opts,
                 std::vector<Metric>& metrics, RunReport& report) {
  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) w.teardown();
    const Clock::time_point t0 = Clock::now();
    w.setup();
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  Client all;
  const double wall = w.loop(all, opts.seconds, kMinRequests);
  const double rss = peak_rss_mb();
  w.stop();

  std::vector<double> sorted = all.latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const bool any = !sorted.empty();
  report.tail_per_mille = tail_percentile(sorted.size());
  report.tail_ms = any && report.tail_per_mille
                       ? percentile(sorted, report.tail_per_mille)
                       : 0.0;
  metrics = {
      {"latency_p50_ms", any ? percentile(sorted, 500) : 0.0, "ms"},
      {"latency_p90_ms", any ? percentile(sorted, 900) : 0.0, "ms"},
      {"throughput_per_s", static_cast<double>(sorted.size()) / wall, "1/s"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", rss, "MB"},
  };
  return all;
}

/// Traced run: a short serving phase for the serve-layer numbers, then
/// the replay with spans on every other step (or pair of steps).
Client traced_run(Workload& w, const RunOptions& opts,
                  std::vector<Metric>& metrics) {
  w.setup();
  double replay_seconds = opts.seconds;
  Client all;
  ServeCounters before, after;
  if (w.serving()) {
    before = w.serve_counters();
    w.loop(all, opts.seconds * kServeShare, 0);
    after = w.serve_counters();
    replay_seconds -= opts.seconds * kServeShare;
  }
  w.stop();

  // The replay adds outputs and failures only, so the serve-layer numbers
  // below still describe the serving phase alone.
  Tracer tr;
  ReplayCounts counts;
  std::vector<double> traced_ms, plain_ms;
  w.begin_replay(tr);  // tracer still off
  const Clock::time_point start = Clock::now();
  for (std::size_t step = 0;
       step < kMinReplaySteps ||
       seconds_between(start, Clock::now()) < replay_seconds;
       ++step) {
    const bool traced = w.traced_step(step);
    tr.set_enabled(traced);
    const Clock::time_point t0 = Clock::now();
    w.replay_step(step, tr, all, counts);
    (traced ? traced_ms : plain_ms).push_back(ms_between(t0, Clock::now()));
  }
  tr.set_enabled(false);
  if (!opts.trace_out.empty() && !tr.write_chrome(opts.trace_out))
    std::fprintf(stderr, "perfbench: cannot write %s\n", opts.trace_out.c_str());

  for (const SpanMetric& m : kSpanMetrics)
    metrics.push_back({m.metric, median(tr.self_ms_per_unit(m.span, m.tag)), "ms"});
  // Channel counts as the server returns them; golden_corpus has no
  // server, so there they come from the replay's own extractions.
  std::size_t computed = all.channels_computed, reused = all.channels_reused;
  std::size_t requests = all.latency_ms.size();
  if (!w.serving()) {
    computed = 0;
    for (double c : counts.channels_computed) computed += static_cast<std::size_t>(c);
    reused = counts.channels_computed.size() * feat::kChannelCount - computed;
    requests = counts.channels_computed.size();
  }
  const double plain = median(plain_ms);
  metrics.insert(
      metrics.end(),
      {
          {"spice.parse_mb_per_s", median(counts.parse_mb_per_s), "MB/s"},
          {"features.channels_computed", share(computed, requests), "count"},
          {"features.reuse_share", share(reused, computed + reused), "fraction"},
          {"serve.extract_ms", median(all.extract_ms), "ms"},
          {"serve.queue_wait_ms", median(all.queue_ms), "ms"},
          {"serve.compute_ms", median(all.compute_ms), "ms"},
          {"serve.batch_size_mean",
           share(after.completed - before.completed, after.batches - before.batches),
           "count"},
          {"serve.session_hit_share",
           share(after.hits - before.hits, after.requests - before.requests),
           "fraction"},
          {"pdn.unknowns", median(counts.unknowns), "count"},
          {"sparse.pcg_iterations", median(counts.pcg_iterations), "count"},
          {"sparse.spmv_mb", median(counts.spmv_mb), "MB"},
          {"trace.overhead_pct",
           plain > 0.0 ? 100.0 * (median(traced_ms) / plain - 1.0) : 0.0, "%"},
      });
  return all;
}

/// The output checks: every design's golden solve is sane, and every
/// output equals its reference bit for bit.  Each failed output counts as
/// a failed request.
void check_outputs(Workload& w, const Client& all, RunReport& report) {
  const auto& designs = w.designs();
  std::vector<std::string> solve_error(designs.size());
  std::vector<std::uint64_t> truth(designs.size(), 0);
  const pdn::SolveOptions solve = golden_solve_options(w.sample());
  for (const std::string& e : run_jobs(designs.size(), [&](std::size_t d) {
         const pdn::Circuit circuit(designs[d].netlist);
         const pdn::Solution sol = pdn::solve_ir_drop(circuit, solve);
         solve_error[d] = check_solution(circuit, sol, solve.cg.tolerance);
         truth[d] = map_hash(truth_map(designs[d].netlist, sol));
       }))
    report.errors.push_back("golden solve threw: " + e);
  for (std::size_t d = 0; d < designs.size(); ++d)
    if (!solve_error[d].empty())
      report.errors.push_back(designs[d].config.name + ": " + solve_error[d]);

  std::set<std::uint64_t> keys;
  for (const Output& o : all.outputs) keys.insert(o.key);
  const std::map<std::uint64_t, std::uint64_t> refs = w.references(keys, truth);
  std::size_t mismatched = 0;
  for (const Output& o : all.outputs) {
    const auto it = refs.find(o.key);
    const bool ok = it != refs.end() && it->second == o.hash &&
                    solve_error[w.design_of(o.key)].empty();
    if (!ok) ++mismatched;
  }
  if (mismatched)
    report.errors.push_back(std::to_string(mismatched) +
                            " outputs differ from their reference");
  if (refs.size() != keys.size())
    report.errors.push_back("a reference could not be computed");
  report.failed += mismatched;
}

}  // namespace

RunReport run_workload(const RunOptions& opts) {
  runtime::set_global_threads(1);
  std::unique_ptr<Workload> w = make_workload(opts);
  RunReport report;
  report.fingerprint = w->fingerprint();
  const Client all = opts.trace ? traced_run(*w, opts, report.metrics)
                                : timed_run(*w, opts, report.metrics, report);
  report.attempted = all.attempted;
  report.failed = all.failed;
  report.errors = all.errors;
  check_outputs(*w, all, report);
  return report;
}

}  // namespace perfbench
