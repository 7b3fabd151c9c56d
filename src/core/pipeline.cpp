#include "core/pipeline.hpp"

#include <cstdlib>

#include "features/feature_context.hpp"
#include "pdn/solver_context.hpp"
#include "sparse/precision.hpp"
#include "sparse/preconditioner.hpp"
#include "spice/parser.hpp"
#include "util/log.hpp"

namespace lmmir::core {

namespace {
long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') {
    util::log_warn("ignoring malformed ", name, "='", v, "'");
    return fallback;
  }
  return parsed;
}

double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    util::log_warn("ignoring malformed ", name, "='", v, "'");
    return fallback;
  }
  return parsed;
}
}  // namespace

PipelineOptions PipelineOptions::from_environment() {
  PipelineOptions o;
  o.sample.input_side =
      static_cast<std::size_t>(env_long("LMMIR_INPUT_SIDE", 48));
  o.sample.pc_grid = static_cast<int>(env_long("LMMIR_PC_GRID", 8));
  o.suite_scale = env_double("LMMIR_SCALE", 0.09);
  o.fake_cases = static_cast<int>(env_long("LMMIR_FAKE_CASES", 16));
  o.real_cases = static_cast<int>(env_long("LMMIR_REAL_CASES", 6));
  o.train.finetune_epochs = static_cast<int>(env_long("LMMIR_EPOCHS", 55));
  o.train.pretrain_epochs =
      static_cast<int>(env_long("LMMIR_PRETRAIN_EPOCHS", 3));
  o.seed = static_cast<std::uint64_t>(env_long("LMMIR_SEED", 7));
  o.train.seed = o.seed + 1;
  o.sample.solver_precond =
      sparse::preconditioner_kind_from_env(o.sample.solver_precond);
  o.sample.solver_precision =
      sparse::solver_precision_from_env(o.sample.solver_precision);
  o.session_cache_sessions = static_cast<std::size_t>(
      env_long("LMMIR_SESSION_CACHE",
               static_cast<long>(o.session_cache_sessions)));
  o.session_cache_bytes =
      static_cast<std::size_t>(env_long(
          "LMMIR_SESSION_CACHE_MB",
          static_cast<long>(o.session_cache_bytes >> 20)))
      << 20;
  if (const char* dir = std::getenv("LMMIR_CORPUS_DIR")) o.corpus_dir = dir;
  o.prefetch = env_long("LMMIR_PREFETCH", 1) != 0;
  return o;
}

namespace {
void log_context_stats(const char* what, const pdn::SolverContext& ctx) {
  const auto& st = ctx.stats();
  util::log_stats("solver_context",
                  {{"phase", what},
                   {"solves", std::to_string(st.solves)},
                   {"rebuilds", std::to_string(st.rebuilds)},
                   {"refreshes", std::to_string(st.refreshes)},
                   {"precond_builds", std::to_string(st.precond_builds)},
                   {"warm_starts", std::to_string(st.warm_starts)},
                   {"cg_iterations", std::to_string(st.total_cg_iterations)}});
}

void log_feature_stats(const char* what, const feat::FeatureContext& ctx) {
  const auto& st = ctx.stats();
  util::log_stats(
      "feature_context",
      {{"phase", what},
       {"extractions", std::to_string(st.extractions)},
       {"classify_passes", std::to_string(st.classify_passes)},
       {"channels_computed", std::to_string(st.channels_computed)},
       {"channels_reused", std::to_string(st.channels_reused)},
       {"revision_hits", std::to_string(st.revision_hits)}});
}
}  // namespace

data::Dataset Pipeline::build_training_dataset() const {
  data::DatasetOptions d;
  d.sample = opts_.sample;
  d.fake_cases = opts_.fake_cases;
  d.real_cases = opts_.real_cases;
  d.fake_oversample = opts_.fake_oversample;
  d.real_oversample = opts_.real_oversample;
  d.suite_scale = opts_.suite_scale;
  d.seed = opts_.seed;
  pdn::SolverContext solver_ctx;
  feat::FeatureContext feature_ctx;
  d.sample.solver_context = &solver_ctx;
  d.sample.feature_context = &feature_ctx;
  data::Dataset ds = data::build_training_dataset(d);
  log_context_stats("dataset", solver_ctx);
  log_feature_stats("dataset", feature_ctx);
  return ds;
}

data::CorpusManifest Pipeline::export_training_corpus(
    const std::string& dir, std::size_t samples_per_shard) const {
  data::DatasetOptions d;
  d.sample = opts_.sample;
  d.fake_cases = opts_.fake_cases;
  d.real_cases = opts_.real_cases;
  d.fake_oversample = opts_.fake_oversample;
  d.real_oversample = opts_.real_oversample;
  d.suite_scale = opts_.suite_scale;
  d.seed = opts_.seed;
  pdn::SolverContext solver_ctx;
  feat::FeatureContext feature_ctx;
  d.sample.solver_context = &solver_ctx;
  d.sample.feature_context = &feature_ctx;
  const data::CorpusManifest manifest =
      data::spill_training_dataset(d, dir, samples_per_shard);
  log_context_stats("corpus", solver_ctx);
  log_feature_stats("corpus", feature_ctx);
  return manifest;
}

std::unique_ptr<data::StreamingLoader> Pipeline::make_streaming_loader(
    const std::string& dir) const {
  const std::string& corpus_dir = dir.empty() ? opts_.corpus_dir : dir;
  if (corpus_dir.empty())
    throw std::invalid_argument(
        "make_streaming_loader: no corpus directory (set LMMIR_CORPUS_DIR "
        "or pass one)");
  auto corpus = std::make_unique<data::ShardCorpus>(corpus_dir);
  return std::make_unique<data::StreamingLoader>(
      std::move(corpus), train::provider_options(opts_.train, opts_.prefetch));
}

std::vector<data::Sample> Pipeline::build_hidden_testset() const {
  data::SampleOptions sample = opts_.sample;
  pdn::SolverContext solver_ctx;
  feat::FeatureContext feature_ctx;
  sample.solver_context = &solver_ctx;
  sample.feature_context = &feature_ctx;
  auto tests = data::build_table2_testset(sample, opts_.suite_scale);
  log_context_stats("testset", solver_ctx);
  log_feature_stats("testset", feature_ctx);
  return tests;
}

data::Sample Pipeline::sample_from_netlist_file(const std::string& path) const {
  const spice::Netlist nl = spice::parse_netlist_file(path);
  return data::make_sample(nl, path, opts_.sample);
}

std::unique_ptr<serve::InferenceServer> Pipeline::make_server(
    std::shared_ptr<models::IrModel> model, serve::ServeOptions options) const {
  return std::make_unique<serve::InferenceServer>(std::move(model), options);
}

std::unique_ptr<serve::SessionServer> Pipeline::make_session_server(
    std::shared_ptr<models::IrModel> model,
    serve::SessionServeOptions options) const {
  options.sample = opts_.sample;
  // Per-session FeatureContexts are owned by the cache; no shared solver
  // either (serving never golden-solves).
  options.sample.solver_context = nullptr;
  options.sample.feature_context = nullptr;
  options.max_sessions = opts_.session_cache_sessions;
  options.max_resident_bytes = opts_.session_cache_bytes;
  return std::make_unique<serve::SessionServer>(std::move(model), options);
}

std::vector<train::EvalCase> Pipeline::train_and_evaluate(
    models::IrModel& model, const data::Dataset& dataset,
    const std::vector<data::Sample>& tests, float extra_augmentation) const {
  train::TrainConfig cfg = opts_.train;
  data::Dataset ds = dataset;  // cheap: samples share tensor storage
  if (extra_augmentation > 1.0f) {
    // Model-specific augmented regime (the 2nd-place team's extra data):
    // extend the epoch list proportionally.
    const std::size_t extra = static_cast<std::size_t>(
        static_cast<float>(dataset.epoch.size()) * (extra_augmentation - 1.0f));
    util::Rng rng(opts_.seed + 33);
    for (std::size_t i = 0; i < extra; ++i)
      ds.epoch.push_back(dataset.epoch[static_cast<std::size_t>(
          rng.randint(0, static_cast<int>(dataset.epoch.size()) - 1))]);
  }
  train::fit(model, ds, cfg);
  return train::evaluate_testset(model, tests);
}

}  // namespace lmmir::core
