#pragma once
// Batch providers: the training loop's data plane (see docs/DATA.md).
//
// train::fit consumes batches through the BatchProvider interface; two
// implementations exist:
//  - DatasetBatchProvider wraps the resident data::Dataset (the original
//    in-memory path, behavior unchanged);
//  - StreamingLoader streams a sharded on-disk corpus (data/shard.hpp)
//    with async double-buffered prefetch over runtime::global_pool():
//    the next batch is stacked straight out of the memory-mapped shards
//    while the current optimization step runs, so resident sample memory
//    is the prefetch window (two pooled batches), never the corpus.
//
// Determinism contract (gated by bench_train_pipeline): for the same
// corpus, seed, and options, both providers produce bitwise-identical
// batch sequences at any thread count.  Three properties make that hold:
//  1. ShardCorpus::epoch_order() reconstructs exactly the Dataset::epoch
//     index list (sample order, oversample repeats adjacent), so the
//     seeded Fisher-Yates shuffle visits identical state;
//  2. every RNG draw (shuffle, per-batch noise sigma, per-element noise)
//     happens in the same sequence as the in-memory loop — the loader
//     keeps at most ONE prefetch task in flight and issues the next only
//     after the previous completed, so draws stay serialized no matter
//     how many pool workers exist;
//  3. batch stacking copies sample floats verbatim (same insert order as
//     make_batch) before applying noise with the shared helper.
//
// Zero-allocation contract: batch tensors are pooled.  next() SWAPS the
// ready slot with the caller's Batch (never copies handles), so after a
// warmup of at most three Batch generations the same tensor buffers
// rotate caller -> slot -> caller forever and
// data::batch_tensor_allocations() stays flat (gated by
// bench_train_pipeline).
#include <cstddef>
#include <future>
#include <memory>
#include <vector>

#include "data/dataset.hpp"
#include "util/rng.hpp"

namespace lmmir::data {

/// Batching knobs shared by both providers.  Noise settings mirror
/// train::TrainConfig (the trainer forwards its own values).
struct LoaderOptions {
  int batch_size = 2;
  bool augment = true;          // draw sigma ~ U(0, noise_std_max) per batch
  float noise_std_max = 1e-2f;  // Gaussian augmentation ceiling
  /// Stack the next batch on a pool worker while the current step runs.
  /// Off (or no pool, or called from inside a worker): stacking runs
  /// inline with identical results.  Env: LMMIR_PREFETCH=0 via
  /// core::PipelineOptions.
  bool prefetch = true;
};

/// Source of shuffled training batches for one epoch at a time.
/// start_epoch() borrows the caller's Rng for the whole epoch (shuffle +
/// noise draws); the caller must not draw from it again until next()
/// has returned false (or a new epoch is started).
class BatchProvider {
 public:
  virtual ~BatchProvider() = default;

  /// Over-sampled samples per epoch (== ceil-div steps * batch size).
  virtual std::size_t epoch_size() const = 0;

  /// Shuffle a fresh epoch order from `rng` and arm the first batch.
  virtual void start_epoch(util::Rng& rng) = 0;

  /// Produce the next batch into `out`, reusing out's tensors when
  /// possible (see make_batch_into).  False once the epoch is drained.
  virtual bool next(Batch& out) = 0;
};

/// The resident path: batches stacked from Dataset::samples exactly as
/// the pre-provider training loop did.
class DatasetBatchProvider final : public BatchProvider {
 public:
  explicit DatasetBatchProvider(const Dataset& dataset,
                                LoaderOptions opts = {});

  std::size_t epoch_size() const override;
  void start_epoch(util::Rng& rng) override;
  bool next(Batch& out) override;

 private:
  const Dataset* dataset_;
  LoaderOptions opts_;
  util::Rng* rng_ = nullptr;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> idx_;  // current-batch scratch, capacity reused
  std::size_t cursor_ = 0;
};

/// The out-of-core path: double-buffered prefetching reader over a
/// ShardCorpus.  The corpus reference must outlive the loader.
class StreamingLoader final : public BatchProvider {
 public:
  explicit StreamingLoader(const ShardCorpus& corpus, LoaderOptions opts = {});
  /// Owning variant: the loader keeps the corpus (and its mappings)
  /// alive — what core::Pipeline::make_streaming_loader hands out.
  explicit StreamingLoader(std::unique_ptr<ShardCorpus> corpus,
                           LoaderOptions opts = {});
  ~StreamingLoader() override;
  StreamingLoader(const StreamingLoader&) = delete;
  StreamingLoader& operator=(const StreamingLoader&) = delete;

  std::size_t epoch_size() const override;
  void start_epoch(util::Rng& rng) override;
  bool next(Batch& out) override;

  const ShardCorpus& corpus() const { return *corpus_; }
  /// Prefetch depth in batches (the resident-sample window).
  std::size_t prefetch_window() const { return 2; }
  /// Bytes held by the pooled batch slots right now — the loader's whole
  /// resident sample footprint (shard payloads stay in the file-backed
  /// mapping).  bench_train_pipeline gates this against the prefetch
  /// window, independent of corpus size.
  std::size_t resident_batch_bytes() const;

 private:
  void issue_prefetch();
  void stack_range(Batch& out, std::size_t begin, std::size_t end);

  std::unique_ptr<ShardCorpus> owned_corpus_;  // set by the owning ctor
  const ShardCorpus* corpus_;
  LoaderOptions opts_;
  util::Rng* rng_ = nullptr;
  std::vector<std::size_t> base_order_;  // epoch_order(), shuffled per epoch
  std::vector<std::size_t> order_;
  std::size_t cursor_ = 0;
  Batch slots_[2];
  int fill_ = 0;  // slot the in-flight (or armed) batch lands in
  bool pending_valid_ = false;
  bool pending_async_ = false;
  std::future<void> pending_;
  double inline_stack_seconds_ = 0.0;  // stacking time when run inline
};

}  // namespace lmmir::data
