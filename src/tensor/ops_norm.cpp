#include <cmath>
#include <stdexcept>

#include "tensor/op_helpers.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace lmmir::tensor {

using detail::make_node;
using detail::needs_grad;
using ophelp::attach;

Tensor batch_norm2d(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                    Tensor& running_mean, Tensor& running_var, bool training,
                    float momentum, float eps) {
  if (x.ndim() != 4) throw std::invalid_argument("batch_norm2d: expects NCHW");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t hw = static_cast<std::size_t>(x.dim(2)) *
                         static_cast<std::size_t>(x.dim(3));
  if (gamma.ndim() != 1 || static_cast<std::size_t>(gamma.dim(0)) != c ||
      beta.ndim() != 1 || static_cast<std::size_t>(beta.dim(0)) != c)
    throw std::invalid_argument("batch_norm2d: affine shape mismatch");
  if (running_mean.numel() != c || running_var.numel() != c)
    throw std::invalid_argument("batch_norm2d: running stats size mismatch");

  const std::size_t m = n * hw;  // elements per channel
  std::vector<float>& rmean = running_mean.data();
  std::vector<float>& rvar = running_var.data();
  std::vector<float> mean(c);
  std::vector<float> invstd(c);
  if (training) {
    // Batch statistics and running-stat updates are per-pass state a
    // recorded plan cannot replay.
    plan::record_unsupported("batch_norm2d in training mode");
    for (std::size_t ci = 0; ci < c; ++ci) {
      double acc = 0.0;
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* in = x.data().data() + (ni * c + ci) * hw;
        for (std::size_t i = 0; i < hw; ++i) acc += in[i];
      }
      const double mu = acc / static_cast<double>(m);
      double var = 0.0;
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* in = x.data().data() + (ni * c + ci) * hw;
        for (std::size_t i = 0; i < hw; ++i) {
          const double d = in[i] - mu;
          var += d * d;
        }
      }
      var /= static_cast<double>(m);
      mean[ci] = static_cast<float>(mu);
      invstd[ci] = static_cast<float>(1.0 / std::sqrt(var + eps));
      rmean[ci] = (1.0f - momentum) * rmean[ci] +
                  momentum * static_cast<float>(mu);
      rvar[ci] = (1.0f - momentum) * rvar[ci] +
                 momentum * static_cast<float>(var);
    }
  } else {
    // A plan's batch-norm steps repeat these two expressions at replay.
    for (std::size_t ci = 0; ci < c; ++ci) {
      mean[ci] = rmean[ci];
      invstd[ci] = 1.0f / std::sqrt(rvar[ci] + eps);
    }
  }

  std::vector<float> xhat(x.numel());
  std::vector<float> y(x.numel());
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float* in = x.data().data() + (ni * c + ci) * hw;
      float* xh = xhat.data() + (ni * c + ci) * hw;
      float* o = y.data() + (ni * c + ci) * hw;
      const float mu = mean[ci];
      const float is = invstd[ci];
      const float gm = gamma.data()[ci];
      const float bt = beta.data()[ci];
      for (std::size_t i = 0; i < hw; ++i) {
        xh[i] = (in[i] - mu) * is;
        o[i] = gm * xh[i] + bt;
      }
    }

  auto out = make_node(x.shape(), std::move(y));
  // Eval mode only (training refused to record above): the running stats
  // are inputs like the weights, so a plan reads them live at replay.
  if (!training)
    plan::record_op(plan::OpKind::kBatchNorm2dEval, out,
                    {&x, &gamma, &beta, &running_mean, &running_var},
                    {.f0 = eps});
  if (needs_grad({&x, &gamma, &beta})) {
    attach(out, {x, gamma, beta},
           [self = out.get(), px = x.impl(), pg = gamma.impl(),
            pb = beta.impl(), xhat = std::move(xhat),
            invstd = std::move(invstd), n, c, hw, m, training]() {
             for (std::size_t ci = 0; ci < c; ++ci) {
               // Per-channel reductions of dY and dY·x̂.
               double sum_dy = 0.0, sum_dy_xhat = 0.0;
               for (std::size_t ni = 0; ni < n; ++ni) {
                 const std::size_t base = (ni * c + ci) * hw;
                 for (std::size_t i = 0; i < hw; ++i) {
                   const float gy = self->grad[base + i];
                   sum_dy += gy;
                   sum_dy_xhat += gy * xhat[base + i];
                 }
               }
               if (pg->requires_grad) {
                 pg->ensure_grad();
                 pg->grad[ci] += static_cast<float>(sum_dy_xhat);
               }
               if (pb->requires_grad) {
                 pb->ensure_grad();
                 pb->grad[ci] += static_cast<float>(sum_dy);
               }
               if (px->requires_grad) {
                 px->ensure_grad();
                 const float gm = pg->data[ci];
                 const float is = invstd[ci];
                 if (training) {
                   const float inv_m = 1.0f / static_cast<float>(m);
                   for (std::size_t ni = 0; ni < n; ++ni) {
                     const std::size_t base = (ni * c + ci) * hw;
                     for (std::size_t i = 0; i < hw; ++i) {
                       const float gy = self->grad[base + i];
                       px->grad[base + i] +=
                           gm * is *
                           (gy - inv_m * static_cast<float>(sum_dy) -
                            xhat[base + i] * inv_m *
                                static_cast<float>(sum_dy_xhat));
                     }
                   }
                 } else {
                   // Eval mode: stats are constants.
                   for (std::size_t ni = 0; ni < n; ++ni) {
                     const std::size_t base = (ni * c + ci) * hw;
                     for (std::size_t i = 0; i < hw; ++i)
                       px->grad[base + i] += self->grad[base + i] * gm * is;
                   }
                 }
               }
             }
           });
  }
  return Tensor(out);
}

Tensor layer_norm_lastdim(const Tensor& x, const Tensor& gamma,
                          const Tensor& beta, float eps) {
  const std::size_t d = static_cast<std::size_t>(x.dim(-1));
  if (gamma.ndim() != 1 || static_cast<std::size_t>(gamma.dim(0)) != d ||
      beta.ndim() != 1 || static_cast<std::size_t>(beta.dim(0)) != d)
    throw std::invalid_argument("layer_norm_lastdim: affine shape mismatch");
  const std::size_t rows = x.numel() / d;

  std::vector<float> xhat(x.numel());
  std::vector<float> invstd(rows);
  std::vector<float> y(x.numel());
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in = x.data().data() + r * d;
    double mu = 0.0;
    for (std::size_t i = 0; i < d; ++i) mu += in[i];
    mu /= static_cast<double>(d);
    double var = 0.0;
    for (std::size_t i = 0; i < d; ++i) {
      const double dv = in[i] - mu;
      var += dv * dv;
    }
    var /= static_cast<double>(d);
    const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
    invstd[r] = is;
    float* xh = xhat.data() + r * d;
    float* o = y.data() + r * d;
    for (std::size_t i = 0; i < d; ++i) {
      xh[i] = (in[i] - static_cast<float>(mu)) * is;
      o[i] = gamma.data()[i] * xh[i] + beta.data()[i];
    }
  }

  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kLayerNormLastDim, out, {&x, &gamma, &beta},
                  {.f0 = eps});
  if (needs_grad({&x, &gamma, &beta})) {
    attach(out, {x, gamma, beta},
           [self = out.get(), px = x.impl(), pg = gamma.impl(),
            pb = beta.impl(), xhat = std::move(xhat),
            invstd = std::move(invstd), rows, d]() {
             if (pg->requires_grad) pg->ensure_grad();
             if (pb->requires_grad) pb->ensure_grad();
             if (px->requires_grad) px->ensure_grad();
             for (std::size_t r = 0; r < rows; ++r) {
               const float* gy = self->grad.data() + r * d;
               const float* xh = xhat.data() + r * d;
               double sum_g = 0.0, sum_g_xhat = 0.0;
               for (std::size_t i = 0; i < d; ++i) {
                 const float gyg = gy[i] * pg->data[i];
                 sum_g += gyg;
                 sum_g_xhat += gyg * xh[i];
                 if (pg->requires_grad) pg->grad[i] += gy[i] * xh[i];
                 if (pb->requires_grad) pb->grad[i] += gy[i];
               }
               if (px->requires_grad) {
                 const float is = invstd[r];
                 const float inv_d = 1.0f / static_cast<float>(d);
                 float* gx = px->grad.data() + r * d;
                 for (std::size_t i = 0; i < d; ++i) {
                   const float gyg = gy[i] * pg->data[i];
                   gx[i] += is * (gyg - inv_d * static_cast<float>(sum_g) -
                                  xh[i] * inv_d * static_cast<float>(sum_g_xhat));
                 }
               }
             }
           });
  }
  return Tensor(out);
}

}  // namespace lmmir::tensor
