// Out-of-core training pipeline gates + throughput record.
//
// Drives train::fit over the same tiny corpus twice — resident
// data::Dataset vs sharded on-disk corpus behind a StreamingLoader — and
// exits non-zero unless (docs/DATA.md):
//   * the streaming run reproduces the in-memory run BITWISE (every
//     epoch loss and every model weight) at every benched thread count;
//   * steady-state training steps make zero batch-tensor heap
//     allocations: the whole multi-epoch in-memory run is allowed one
//     Batch generation (3 tensors) and the streaming run three (the
//     caller slot + two prefetch slots);
//   * the loader's resident sample memory is bounded by the prefetch
//     window (2 batches), not the corpus size;
//   * the shard corpus round-trips verification (per-sample FNV-1a).
// Training samples/sec per thread count is appended to
// BENCH_train_pipeline.json.
//
// Knobs (environment):
//   LMMIR_BENCH_THREADS     pool sizes               (default "1,8")
//   LMMIR_BENCH_SIDE        sample input side        (default 16)
//   LMMIR_BENCH_CASES       fake training cases      (default 3)
//   LMMIR_BENCH_EPOCHS      fine-tune epochs         (default 3)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "data/dataset.hpp"
#include "data/loader.hpp"
#include "models/lmmir_model.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "train/trainer.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace lmmir;

std::uint64_t fnv_floats(std::uint64_t h, const std::vector<float>& v) {
  return v.empty()
             ? h
             : data::fnv1a_bytes(v.data(), v.size() * sizeof(float), h);
}

/// Bitwise fingerprint of a finished run: every epoch loss + every weight.
std::uint64_t run_fingerprint(const train::TrainHistory& hist,
                              models::IrModel& model) {
  std::uint64_t h = fnv_floats(14695981039346656037ull, hist.pretrain_loss);
  h = fnv_floats(h, hist.finetune_loss);
  for (const auto& p : model.parameters()) h = fnv_floats(h, p.data());
  return h;
}

models::LmmirConfig tiny_model_config() {
  models::LmmirConfig mc;
  mc.base_channels = 4;
  mc.levels = 2;
  mc.token_dim = 16;
  mc.lnt_blocks = 1;
  return mc;
}

struct FitResult {
  std::uint64_t fingerprint = 0;
  std::uint64_t batch_allocs = 0;  // batch-tensor allocations this run
  double seconds = 0.0;
};

}  // namespace

int main() {
  const std::size_t side = static_cast<std::size_t>(
      std::max(8L, benchio::env_long("LMMIR_BENCH_SIDE", 16)));
  const int cases = static_cast<int>(
      std::max(1L, benchio::env_long("LMMIR_BENCH_CASES", 3)));
  const int epochs = static_cast<int>(
      std::max(1L, benchio::env_long("LMMIR_BENCH_EPOCHS", 3)));
  const std::vector<std::size_t> thread_cfgs = benchio::env_thread_list();

  obs::set_metrics_enabled(true);

  data::DatasetOptions dopts;
  dopts.sample.input_side = side;
  dopts.sample.pc_grid = 4;
  dopts.fake_cases = cases;
  dopts.real_cases = 1;
  dopts.fake_oversample = 2;
  dopts.real_oversample = 2;
  dopts.suite_scale = 0.04;
  dopts.seed = 17;

  train::TrainConfig cfg;
  cfg.pretrain_epochs = 1;
  cfg.finetune_epochs = epochs;
  cfg.batch_size = 2;
  cfg.seed = 5;

  runtime::set_global_threads(1);
  const data::Dataset ds = data::build_training_dataset(dopts);
  const std::size_t epoch_samples = ds.epoch_size();
  const std::size_t total_samples =
      epoch_samples *
      static_cast<std::size_t>(cfg.pretrain_epochs + cfg.finetune_epochs);

  const std::string corpus_dir =
      (std::filesystem::temp_directory_path() / "lmmir_bench_train_corpus")
          .string();
  std::filesystem::remove_all(corpus_dir);
  const data::CorpusManifest manifest =
      data::write_corpus(ds, corpus_dir, /*samples_per_shard=*/2);
  data::ShardCorpus corpus(corpus_dir);
  std::string verify_error;
  const bool corpus_verified = corpus.verify(&verify_error);

  // ---- in-memory baseline (1 thread) ----------------------------------
  FitResult baseline;
  {
    models::LMMIR model(tiny_model_config());
    const std::uint64_t allocs0 = data::batch_tensor_allocations();
    util::Stopwatch watch;
    const auto hist = train::fit(model, ds, cfg);
    baseline.seconds = watch.seconds();
    baseline.batch_allocs = data::batch_tensor_allocations() - allocs0;
    baseline.fingerprint = run_fingerprint(hist, model);
  }

  // ---- streaming runs per thread count --------------------------------
  std::vector<FitResult> streaming(thread_cfgs.size());
  std::size_t resident_bytes = 0;
  for (std::size_t i = 0; i < thread_cfgs.size(); ++i) {
    runtime::set_global_threads(thread_cfgs[i]);
    data::StreamingLoader loader(corpus, train::provider_options(cfg));
    models::LMMIR model(tiny_model_config());
    const std::uint64_t allocs0 = data::batch_tensor_allocations();
    util::Stopwatch watch;
    const auto hist = train::fit(model, loader, cfg);
    streaming[i].seconds = watch.seconds();
    streaming[i].batch_allocs = data::batch_tensor_allocations() - allocs0;
    streaming[i].fingerprint = run_fingerprint(hist, model);
    resident_bytes = std::max(resident_bytes, loader.resident_batch_bytes());
  }
  runtime::set_global_threads(1);

  // ---- gates -----------------------------------------------------------
  bool bitwise_identical = true;
  for (const FitResult& r : streaming)
    bitwise_identical =
        bitwise_identical && r.fingerprint == baseline.fingerprint;

  // One Batch generation for the in-memory provider; three (caller + two
  // prefetch slots) for the streaming loader.  Anything above means a
  // steady-state step allocated.
  const std::uint64_t max_stream_allocs = 9, max_memory_allocs = 3;
  bool allocs_ok = baseline.batch_allocs <= max_memory_allocs;
  for (const FitResult& r : streaming)
    allocs_ok = allocs_ok && r.batch_allocs <= max_stream_allocs;

  const data::Sample& first = ds.samples.front();
  const std::size_t batch_bytes =
      static_cast<std::size_t>(cfg.batch_size) *
      (first.circuit.numel() + first.tokens.numel() + first.target.numel()) *
      sizeof(float);
  const bool resident_ok = resident_bytes <= 2 * batch_bytes;

  benchio::JsonRecord rec;
  rec.printf("{\n");
  rec.printf("  \"bench\": \"train_pipeline\",\n");
  rec.printf("  \"input_side\": %zu,\n", side);
  rec.printf("  \"cases\": %zu,\n", ds.case_count());
  rec.printf("  \"epoch_samples\": %zu,\n", epoch_samples);
  rec.printf("  \"epochs\": %d,\n", cfg.pretrain_epochs + cfg.finetune_epochs);
  rec.printf("  \"corpus\": {\"shards\": %zu, \"bytes\": %zu, "
             "\"mapped_bytes\": %zu, \"verified\": %s},\n",
             manifest.shard_files.size(), manifest.bytes,
             corpus.mapped_bytes(), corpus_verified ? "true" : "false");
  rec.printf("  \"in_memory\": {\"seconds\": %.4f, \"samples_per_sec\": "
             "%.2f, \"batch_allocs\": %llu},\n",
             baseline.seconds,
             static_cast<double>(total_samples) / baseline.seconds,
             static_cast<unsigned long long>(baseline.batch_allocs));
  rec.printf("  \"streaming\": [");
  for (std::size_t i = 0; i < thread_cfgs.size(); ++i) {
    rec.printf("%s{\"threads\": %zu, \"seconds\": %.4f, "
               "\"samples_per_sec\": %.2f, \"batch_allocs\": %llu, "
               "\"bitwise_equal\": %s}",
               i ? ", " : "", thread_cfgs[i], streaming[i].seconds,
               static_cast<double>(total_samples) / streaming[i].seconds,
               static_cast<unsigned long long>(streaming[i].batch_allocs),
               streaming[i].fingerprint == baseline.fingerprint ? "true"
                                                                : "false");
  }
  rec.printf("],\n");
  rec.printf("  \"resident_batch_bytes\": %zu,\n", resident_bytes);
  rec.printf("  \"prefetch_window_bytes\": %zu,\n", 2 * batch_bytes);
  rec.printf("  \"metrics\": %s\n", benchio::metrics_snapshot().c_str());
  rec.printf("}\n");
  std::fputs(rec.text().c_str(), stdout);
  benchio::append_history("train_pipeline", rec.text());
  std::filesystem::remove_all(corpus_dir);

  bool ok = true;
  if (!corpus_verified) {
    std::fprintf(stderr, "FAIL: corpus verification: %s\n",
                 verify_error.c_str());
    ok = false;
  }
  if (!bitwise_identical) {
    std::fprintf(stderr,
                 "FAIL: streaming fit diverged bitwise from the in-memory "
                 "fit (losses or weights)\n");
    ok = false;
  }
  if (!allocs_ok) {
    std::fprintf(stderr,
                 "FAIL: steady-state training steps allocated batch "
                 "tensors (in-memory %llu > %llu or streaming over %llu)\n",
                 static_cast<unsigned long long>(baseline.batch_allocs),
                 static_cast<unsigned long long>(max_memory_allocs),
                 static_cast<unsigned long long>(max_stream_allocs));
    ok = false;
  }
  if (!resident_ok) {
    std::fprintf(stderr,
                 "FAIL: loader resident %zu bytes exceeds the prefetch "
                 "window (%zu bytes)\n",
                 resident_bytes, 2 * batch_bytes);
    ok = false;
  }
  return ok ? 0 : 1;
}
