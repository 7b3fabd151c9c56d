#pragma once
// Dataset assembly mirroring the paper's regime (Sec. IV-A): fake cases +
// real-like cases, over-sampled (fake x10, real x20 at paper scale) and
// augmented with Gaussian noise at batch time.
#include <vector>

#include "data/sample.hpp"
#include "data/shard.hpp"
#include "util/rng.hpp"

namespace lmmir::data {

struct DatasetOptions {
  SampleOptions sample;
  int fake_cases = 12;
  int real_cases = 4;
  int fake_oversample = 2;   // paper: 10
  int real_oversample = 4;   // paper: 20
  double suite_scale = 0.125;
  std::uint64_t seed = 7;
};

/// The training pool: generated fake + real-like cases, with the
/// over-sampling realized as repeated (index) entries so memory stays flat.
struct Dataset {
  std::vector<Sample> samples;       // unique cases
  std::vector<std::size_t> epoch;    // indices into samples, over-sampled

  std::size_t case_count() const { return samples.size(); }
  std::size_t epoch_size() const { return epoch.size(); }
};

Dataset build_training_dataset(const DatasetOptions& opts);

/// Spill-to-disk mode of build_training_dataset: generates the exact same
/// cases in the exact same order (bitwise-identical samples), but each one
/// is appended to a shard corpus under `dir` and released instead of kept
/// resident — corpus scale is bounded by disk, not memory.  The per-sample
/// oversample counts land in the shard index, so ShardCorpus::epoch_order()
/// reproduces the Dataset::epoch list.
CorpusManifest spill_training_dataset(const DatasetOptions& opts,
                                      const std::string& dir,
                                      std::size_t samples_per_shard = 64);

/// Write an already-built Dataset as a shard corpus under `dir`
/// (oversample counts recovered from the epoch list).  Round trip is
/// bitwise: ShardCorpus::read_sample returns the same tensors and
/// epoch_order() the same index list.
CorpusManifest write_corpus(const Dataset& dataset, const std::string& dir,
                            std::size_t samples_per_shard = 64);

/// The 10 hidden Table-II evaluation cases.
std::vector<Sample> build_table2_testset(const SampleOptions& opts,
                                         double suite_scale = 0.125);

/// A stacked minibatch (inputs carry no autograd tape).
struct Batch {
  tensor::Tensor circuit;  // [B, 6, S, S]
  tensor::Tensor tokens;   // [B, T, F]
  tensor::Tensor target;   // [B, 1, S, S]
};

/// Assemble a batch from dataset indices.  When noise_std > 0, Gaussian
/// noise is added to the circuit channels (paper's augmentation, sigma
/// drawn per batch from U(0, noise_std_max) by the caller).
Batch make_batch(const std::vector<Sample>& samples,
                 const std::vector<std::size_t>& indices, float noise_std,
                 util::Rng& rng);

/// Assemble a batch into caller-provided tensors.  A slot of `out` is
/// reused in place when it is uniquely owned and its buffer capacity
/// already covers the batch (the capacity test absorbs a ragged tail
/// batch without reallocating); otherwise a fresh tensor is allocated
/// and counted by batch_tensor_allocations().  Values are bitwise
/// identical to the allocating overload for the same rng state.
void make_batch_into(const std::vector<Sample>& samples,
                     const std::vector<std::size_t>& indices, float noise_std,
                     util::Rng& rng, Batch& out);

/// Fresh batch-tensor allocations made by make_batch_into (and the
/// streaming loader's stacker) since process start: a pooled training
/// loop allocates a fixed number up front and then holds this counter
/// flat in steady state (gated by bench_train_pipeline).
std::uint64_t batch_tensor_allocations();

/// Slice the canonical 6-channel stack down to the first k channels
/// (IREDGe consumes 3, IRPnet 1). Returns the input unchanged for k == 6.
tensor::Tensor slice_channels(const tensor::Tensor& circuit, int k);

namespace detail {
/// Reuse-or-allocate one batch tensor slot: when `t` is uniquely owned
/// with enough capacity it is retargeted in place (shape updated, data
/// cleared, capacity kept); otherwise a fresh tensor is allocated and
/// batch_tensor_allocations() incremented.  Returns the (empty) data
/// vector for the caller to fill to exactly shape_numel(shape) floats.
std::vector<float>& ensure_batch_slot(tensor::Tensor& t,
                                      const tensor::Shape& shape);
}  // namespace detail

}  // namespace lmmir::data
