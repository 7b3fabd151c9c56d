#pragma once
// Standard layers built on tensor ops: Linear, Conv2d, ConvTranspose2d,
// BatchNorm2d, LayerNorm, activations, pooling, upsampling, Dropout and
// Sequential.  Weight layouts and default initializations follow PyTorch so
// architectures port over directly.
#include <memory>
#include <vector>

#include "nn/module.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace lmmir::nn {

/// Global parameter-init RNG seed helper: layers draw from the rng passed
/// to their constructor so model construction is deterministic.
class Linear : public Layer {
 public:
  Linear(int in_features, int out_features, util::Rng& rng, bool bias = true);
  Tensor forward(const Tensor& x) override;

  Tensor weight;  // [out,in]
  Tensor bias_t;  // [out] (undefined when bias == false)
};

class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, util::Rng& rng,
         int stride = 1, int padding = 0, bool bias = true);
  /// Rectangular-kernel variant (kh x kw with independent padding) used by
  /// IRPnet's shape-adaptive kernels.
  Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w,
         util::Rng& rng, int stride, int pad_h, int pad_w, bool bias = true);
  Tensor forward(const Tensor& x) override;

  Tensor weight;  // [out,in,kh,kw]
  Tensor bias_t;  // [out]
  int stride;
  int pad_h;
  int pad_w;
};

class ConvTranspose2d : public Layer {
 public:
  ConvTranspose2d(int in_channels, int out_channels, int kernel,
                  util::Rng& rng, int stride = 1, int padding = 0,
                  bool bias = true);
  Tensor forward(const Tensor& x) override;

  Tensor weight;  // [in,out,k,k]
  Tensor bias_t;  // [out]
  int stride;
  int padding;
};

class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(int channels, float momentum = 0.1f, float eps = 1e-5f);
  Tensor forward(const Tensor& x) override;

  Tensor gamma, beta;
  Tensor running_mean, running_var;  // [C], buffers, updated in place
  float momentum, eps;
};

class LayerNorm : public Layer {
 public:
  explicit LayerNorm(int dim, float eps = 1e-5f);
  Tensor forward(const Tensor& x) override;

  Tensor gamma, beta;
  float eps;
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x) override { return tensor::relu(x); }
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& x) override { return tensor::sigmoid(x); }
};

class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(int kernel, int stride = -1)
      : kernel_(kernel), stride_(stride < 0 ? kernel : stride) {}
  Tensor forward(const Tensor& x) override {
    return tensor::maxpool2d(x, kernel_, stride_);
  }

 private:
  int kernel_, stride_;
};

class UpsampleNearest2x : public Layer {
 public:
  Tensor forward(const Tensor& x) override {
    return tensor::upsample_nearest2x(x);
  }
};

class Dropout : public Layer {
 public:
  explicit Dropout(float p, std::uint64_t seed = 0xd20f0e1u)
      : p_(p), rng_(seed) {}
  Tensor forward(const Tensor& x) override {
    return tensor::dropout(x, p_, rng_, training());
  }

 private:
  float p_;
  util::Rng rng_;
};

/// Ordered container of layers applied in sequence; owns its children.
class Sequential : public Layer {
 public:
  Sequential() = default;

  /// Append a layer (takes ownership) and register it.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    register_module("seq" + std::to_string(layers_.size()), raw);
    layers_.push_back(std::move(layer));
    return raw;
  }

  Tensor forward(const Tensor& x) override {
    Tensor y = x;
    for (auto& l : layers_) y = l->forward(y);
    return y;
  }

  std::size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace lmmir::nn
