#pragma once
// Differentiable operations over tensor::Tensor.  Every op returns a fresh
// tensor; when gradients can flow (grad mode on and some input requires
// grad) a backward closure is recorded on the output.
//
// Conventions:
//  - image tensors are NCHW;
//  - token tensors are [B, T, D] (batch, tokens, channels);
//  - weights follow PyTorch layouts: Linear [out,in], Conv2d
//    [out,in,kh,kw], ConvTranspose2d [in,out,kh,kw].
#include "tensor/tensor.hpp"

namespace lmmir::tensor {

// ---- element-wise ----------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor add_scalar(const Tensor& a, float s);
Tensor neg(const Tensor& a);

// ---- activations ------------------------------------------------------
Tensor relu(const Tensor& x);
Tensor leaky_relu(const Tensor& x, float negative_slope = 0.01f);
Tensor sigmoid(const Tensor& x);
Tensor tanh_act(const Tensor& x);
/// Softmax over the last dimension.
Tensor softmax_lastdim(const Tensor& x);

// ---- shape ------------------------------------------------------------
/// Same number of elements, new shape (data copied; grads route through).
Tensor reshape(const Tensor& x, Shape new_shape);
/// Concatenate along `axis` (other dims must match).
Tensor concat(const Tensor& a, const Tensor& b, int axis);
/// Slice `len` entries starting at `start` along `axis`.
Tensor slice_axis(const Tensor& x, int axis, int start, int len);
/// Swap the last two axes of a 2-D or 3-D tensor.
Tensor transpose_last2(const Tensor& x);

// ---- reductions & losses ----------------------------------------------
Tensor sum_all(const Tensor& x);
Tensor mean_all(const Tensor& x);
Tensor mse_loss(const Tensor& pred, const Tensor& target);
Tensor l1_loss(const Tensor& pred, const Tensor& target);

/// x[N,C,H,W] * a[N,1,H,W]  (attention-gate style spatial mask broadcast
/// over channels).
Tensor mul_broadcast_channel(const Tensor& x, const Tensor& a);

// ---- bias -------------------------------------------------------------
/// x[..., D] + b[D]
Tensor add_bias_lastdim(const Tensor& x, const Tensor& b);
/// x[N, C, H, W] + b[C]
Tensor add_bias_channels(const Tensor& x, const Tensor& b);

// ---- matmul family ----------------------------------------------------
/// [M,K] x [K,N] -> [M,N]
Tensor matmul(const Tensor& a, const Tensor& b);
/// [B,M,K] x [B,K,N] -> [B,M,N]
Tensor bmm(const Tensor& a, const Tensor& b);
/// x[..., in] * w[out,in]^T + b[out]; pass an undefined bias to skip it.
Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b);

// ---- convolution family -------------------------------------------------
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int padding);
/// Rectangular padding variant (pad_h rows, pad_w cols); kernel shape is
/// taken from w, so 1xk / kx1 "shape-adaptive" kernels are supported.
Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad_h, int pad_w);
Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        int stride, int padding);
Tensor maxpool2d(const Tensor& x, int kernel, int stride);
Tensor upsample_nearest2x(const Tensor& x);

// ---- normalization ------------------------------------------------------
/// Batch norm over (N, H, W) per channel; updates the [C] running stats
/// in place in training mode and uses them in eval mode.
Tensor batch_norm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    Tensor& running_mean, Tensor& running_var, bool training,
                    float momentum = 0.1f, float eps = 1e-5f);
/// Layer norm over the last dimension.
Tensor layer_norm_lastdim(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps = 1e-5f);
/// Inverted dropout; identity when !training or p == 0.
Tensor dropout(const Tensor& x, float p, util::Rng& rng, bool training);

}  // namespace lmmir::tensor
