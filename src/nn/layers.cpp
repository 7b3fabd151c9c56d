#include "nn/layers.hpp"

#include <cmath>

namespace lmmir::nn {

namespace {
/// Kaiming-uniform bound used by PyTorch's default Linear/Conv init.
float kaiming_bound(std::size_t fan_in) {
  return fan_in > 0 ? 1.0f / std::sqrt(static_cast<float>(fan_in)) : 0.0f;
}

Tensor uniform_init(const tensor::Shape& shape, float bound, util::Rng& rng) {
  std::vector<float> v(tensor::shape_numel(shape));
  for (auto& x : v) x = rng.uniform(-bound, bound);
  return Tensor::from_data(shape, std::move(v));
}
}  // namespace

Linear::Linear(int in_features, int out_features, util::Rng& rng, bool bias) {
  const float bound = kaiming_bound(static_cast<std::size_t>(in_features));
  weight = register_parameter(
      "weight", uniform_init({out_features, in_features}, bound, rng));
  if (bias)
    bias_t = register_parameter("bias",
                                uniform_init({out_features}, bound, rng));
}

Tensor Linear::forward(const Tensor& x) {
  return tensor::linear(x, weight, bias_t);
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, util::Rng& rng,
               int stride_in, int padding_in, bool bias)
    : Conv2d(in_channels, out_channels, kernel, kernel, rng, stride_in,
             padding_in, padding_in, bias) {}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel_h, int kernel_w,
               util::Rng& rng, int stride_in, int pad_h_in, int pad_w_in,
               bool bias)
    : stride(stride_in), pad_h(pad_h_in), pad_w(pad_w_in) {
  const std::size_t fan_in = static_cast<std::size_t>(in_channels) *
                             static_cast<std::size_t>(kernel_h) *
                             static_cast<std::size_t>(kernel_w);
  const float bound = kaiming_bound(fan_in);
  weight = register_parameter(
      "weight", uniform_init({out_channels, in_channels, kernel_h, kernel_w},
                             bound, rng));
  if (bias)
    bias_t = register_parameter("bias",
                                uniform_init({out_channels}, bound, rng));
}

Tensor Conv2d::forward(const Tensor& x) {
  return tensor::conv2d(x, weight, bias_t, stride, pad_h, pad_w);
}

ConvTranspose2d::ConvTranspose2d(int in_channels, int out_channels, int kernel,
                                 util::Rng& rng, int stride_in, int padding_in,
                                 bool bias)
    : stride(stride_in), padding(padding_in) {
  const std::size_t fan_in = static_cast<std::size_t>(in_channels) *
                             static_cast<std::size_t>(kernel) *
                             static_cast<std::size_t>(kernel);
  const float bound = kaiming_bound(fan_in);
  weight = register_parameter(
      "weight",
      uniform_init({in_channels, out_channels, kernel, kernel}, bound, rng));
  if (bias)
    bias_t = register_parameter("bias",
                                uniform_init({out_channels}, bound, rng));
}

Tensor ConvTranspose2d::forward(const Tensor& x) {
  return tensor::conv_transpose2d(x, weight, bias_t, stride, padding);
}

BatchNorm2d::BatchNorm2d(int channels, float momentum_in, float eps_in)
    : momentum(momentum_in), eps(eps_in) {
  gamma = register_parameter(
      "weight", Tensor::full({channels}, 1.0f));
  beta = register_parameter("bias", Tensor::zeros({channels}));
  running_mean = Tensor::zeros({channels});
  running_var = Tensor::full({channels}, 1.0f);
  register_buffer("running_mean", &running_mean.data());
  register_buffer("running_var", &running_var.data());
}

Tensor BatchNorm2d::forward(const Tensor& x) {
  return tensor::batch_norm2d(x, gamma, beta, running_mean, running_var,
                              training(), momentum, eps);
}

LayerNorm::LayerNorm(int dim, float eps_in) : eps(eps_in) {
  gamma = register_parameter("weight", Tensor::full({dim}, 1.0f));
  beta = register_parameter("bias", Tensor::zeros({dim}));
}

Tensor LayerNorm::forward(const Tensor& x) {
  return tensor::layer_norm_lastdim(x, gamma, beta, eps);
}

}  // namespace lmmir::nn
