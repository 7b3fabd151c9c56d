#include <algorithm>
#include <limits>
#include <stdexcept>

#include "runtime/parallel_for.hpp"
#include "tensor/microkernels.hpp"
#include "tensor/op_helpers.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace lmmir::tensor {

using detail::make_node;
using detail::needs_grad;
using ophelp::attach;
using ophelp::gemm_a_bt_acc;
using ophelp::gemm_acc;
using ophelp::gemm_at_b_acc;

namespace {

struct ConvGeom {
  std::size_t n, cin, h, w;      // input
  std::size_t cout, kh, kw;      // kernel
  std::size_t oh, ow;            // output
  int stride, pad_h, pad_w;
};

/// col[cin*kh*kw, oh*ow] for one sample (zero-padded borders).  The
/// patch gather itself lives in tensor/microkernels.hpp so the plan
/// replay (tensor/plan.hpp) shares this exact implementation.
void im2col(const float* x, const ConvGeom& g, float* col) {
  mk::im2col(x, g.cin, g.h, g.w, g.kh, g.kw, g.oh, g.ow, g.stride, g.pad_h,
             g.pad_w, col);
}

/// Scatter col gradients back onto the (padded) input. Inverse of im2col.
void col2im_acc(const float* col, const ConvGeom& g, float* gx) {
  const std::size_t cols = g.oh * g.ow;
  for (std::size_t c = 0; c < g.cin; ++c) {
    for (std::size_t ki = 0; ki < g.kh; ++ki) {
      for (std::size_t kj = 0; kj < g.kw; ++kj) {
        const std::size_t prow = (c * g.kh + ki) * g.kw + kj;
        for (std::size_t oy = 0; oy < g.oh; ++oy) {
          const long iy = static_cast<long>(oy) * g.stride - g.pad_h +
                          static_cast<long>(ki);
          if (iy < 0 || iy >= static_cast<long>(g.h)) continue;
          for (std::size_t ox = 0; ox < g.ow; ++ox) {
            const long ix = static_cast<long>(ox) * g.stride - g.pad_w +
                            static_cast<long>(kj);
            if (ix < 0 || ix >= static_cast<long>(g.w)) continue;
            gx[(c * g.h + static_cast<std::size_t>(iy)) * g.w +
               static_cast<std::size_t>(ix)] +=
                col[prow * cols + oy * g.ow + ox];
          }
        }
      }
    }
  }
}

ConvGeom conv_geometry(const Tensor& x, const Tensor& w, int stride,
                       int pad_h, int pad_w, const char* op) {
  if (x.ndim() != 4 || w.ndim() != 4)
    throw std::invalid_argument(std::string(op) + ": expects 4-D x and w");
  if (stride < 1) throw std::invalid_argument(std::string(op) + ": stride<1");
  if (pad_h < 0 || pad_w < 0)
    throw std::invalid_argument(std::string(op) + ": pad<0");
  ConvGeom g;
  g.n = static_cast<std::size_t>(x.dim(0));
  g.cin = static_cast<std::size_t>(x.dim(1));
  g.h = static_cast<std::size_t>(x.dim(2));
  g.w = static_cast<std::size_t>(x.dim(3));
  g.stride = stride;
  g.pad_h = pad_h;
  g.pad_w = pad_w;
  return g;
}

}  // namespace

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int padding) {
  return conv2d(x, w, b, stride, padding, padding);
}

Tensor conv2d(const Tensor& x, const Tensor& w, const Tensor& b, int stride,
              int pad_h, int pad_w) {
  ConvGeom g = conv_geometry(x, w, stride, pad_h, pad_w, "conv2d");
  g.cout = static_cast<std::size_t>(w.dim(0));
  g.kh = static_cast<std::size_t>(w.dim(2));
  g.kw = static_cast<std::size_t>(w.dim(3));
  if (static_cast<std::size_t>(w.dim(1)) != g.cin)
    throw std::invalid_argument("conv2d: channel mismatch x " +
                                shape_to_string(x.shape()) + " w " +
                                shape_to_string(w.shape()));
  const long oh = (static_cast<long>(g.h) + 2 * pad_h -
                   static_cast<long>(g.kh)) / stride + 1;
  const long ow = (static_cast<long>(g.w) + 2 * pad_w -
                   static_cast<long>(g.kw)) / stride + 1;
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("conv2d: kernel larger than padded input");
  g.oh = static_cast<std::size_t>(oh);
  g.ow = static_cast<std::size_t>(ow);
  if (b.defined() && (b.ndim() != 1 ||
                      static_cast<std::size_t>(b.dim(0)) != g.cout))
    throw std::invalid_argument("conv2d: bias shape mismatch");

  const std::size_t patch = g.cin * g.kh * g.kw;
  const std::size_t spatial = g.oh * g.ow;
  std::vector<float> y(g.n * g.cout * spatial);
  // Samples are independent (each chunk keeps a private im2col buffer and
  // writes its own output planes), so the batch fans out over the pool.
  // For a single-sample batch (the serving latency path) the outer loop
  // cannot use the pool at all; only then does the gemm fan out over cout
  // row blocks — otherwise the inner level runs inline so the caller's
  // chunk never blocks behind other samples' queued work.
  runtime::ThreadPool* inner_pool = g.n == 1 ? runtime::global_pool() : nullptr;
  runtime::parallel_for(
      0, g.n, runtime::grain_for_cost(patch * spatial * g.cout),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<float> col(patch * spatial);
        for (std::size_t ni = lo; ni < hi; ++ni) {
          im2col(x.data().data() + ni * g.cin * g.h * g.w, g, col.data());
          runtime::parallel_for(
              inner_pool, 0, g.cout, runtime::grain_for_cost(patch * spatial),
              [&](std::size_t c_lo, std::size_t c_hi) {
                gemm_acc(w.data().data() + c_lo * patch, col.data(),
                         y.data() + (ni * g.cout + c_lo) * spatial,
                         c_hi - c_lo, patch, spatial);
                if (b.defined())
                  for (std::size_t c = c_lo; c < c_hi; ++c) {
                    float* dst = y.data() + (ni * g.cout + c) * spatial;
                    const float bv = b.data()[c];
                    for (std::size_t i = 0; i < spatial; ++i) dst[i] += bv;
                  }
              });
        }
      });
  auto out = make_node(Shape{static_cast<int>(g.n), static_cast<int>(g.cout),
                             static_cast<int>(g.oh), static_cast<int>(g.ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kConv2d, out, {&x, &w, &b},
                  {.i0 = stride,
                   .i1 = pad_h,
                   .i2 = pad_w,
                   .i3 = b.defined() ? 1 : 0});
  if (needs_grad({&x, &w, &b})) {
    attach(out, {x, w, b},
           [self = out.get(), px = x.impl(), pw = w.impl(),
            pb = b.defined() ? b.impl() : nullptr, g, patch, spatial]() {
             std::vector<float> col(patch * spatial);
             std::vector<float> dcol(patch * spatial);
             for (std::size_t ni = 0; ni < g.n; ++ni) {
               const float* gy = self->grad.data() + ni * g.cout * spatial;
               // Recompute the im2col matrix from the saved input.
               im2col(px->data.data() + ni * g.cin * g.h * g.w, g, col.data());
               if (pw->requires_grad) {
                 pw->ensure_grad();
                 // dW[cout,patch] += dY[cout,spatial] * col[patch,spatial]ᵀ
                 gemm_a_bt_acc(gy, col.data(), pw->grad.data(), g.cout,
                               spatial, patch);
               }
               if (px->requires_grad) {
                 px->ensure_grad();
                 std::fill(dcol.begin(), dcol.end(), 0.0f);
                 // dcol[patch,spatial] = W[cout,patch]ᵀ * dY[cout,spatial]
                 gemm_at_b_acc(pw->data.data(), gy, dcol.data(), g.cout,
                               patch, spatial);
                 col2im_acc(dcol.data(), g,
                            px->grad.data() + ni * g.cin * g.h * g.w);
               }
               if (pb && pb->requires_grad) {
                 pb->ensure_grad();
                 for (std::size_t c = 0; c < g.cout; ++c) {
                   float acc = 0.0f;
                   for (std::size_t i = 0; i < spatial; ++i)
                     acc += gy[c * spatial + i];
                   pb->grad[c] += acc;
                 }
               }
             }
           });
  }
  return Tensor(out);
}

Tensor conv_transpose2d(const Tensor& x, const Tensor& w, const Tensor& b,
                        int stride, int padding) {
  // w layout: [cin, cout, kh, kw]
  ConvGeom g =
      conv_geometry(x, w, stride, padding, padding, "conv_transpose2d");
  if (static_cast<std::size_t>(w.dim(0)) != g.cin)
    throw std::invalid_argument("conv_transpose2d: channel mismatch");
  g.cout = static_cast<std::size_t>(w.dim(1));
  g.kh = static_cast<std::size_t>(w.dim(2));
  g.kw = static_cast<std::size_t>(w.dim(3));
  const long oh = (static_cast<long>(g.h) - 1) * stride +
                  static_cast<long>(g.kh) - 2 * padding;
  const long ow = (static_cast<long>(g.w) - 1) * stride +
                  static_cast<long>(g.kw) - 2 * padding;
  if (oh <= 0 || ow <= 0)
    throw std::invalid_argument("conv_transpose2d: empty output");
  g.oh = static_cast<std::size_t>(oh);
  g.ow = static_cast<std::size_t>(ow);
  if (b.defined() && (b.ndim() != 1 ||
                      static_cast<std::size_t>(b.dim(0)) != g.cout))
    throw std::invalid_argument("conv_transpose2d: bias shape mismatch");

  std::vector<float> y(g.n * g.cout * g.oh * g.ow);
  if (b.defined())
    for (std::size_t ni = 0; ni < g.n; ++ni)
      for (std::size_t c = 0; c < g.cout; ++c)
        std::fill_n(y.data() + (ni * g.cout + c) * g.oh * g.ow, g.oh * g.ow,
                    b.data()[c]);

  // Scatter: each input pixel adds its kernel-weighted footprint.  Output
  // planes are disjoint per (sample, out-channel), so the batch fans out
  // over the pool; only a single-sample batch (n=1 serving) fans the
  // out-channel loop out instead (see conv2d above).  Per-element
  // accumulation order is (ci, hy, hx, ki, kj) in both the serial and the
  // parallel nesting, keeping results bitwise identical.
  runtime::ThreadPool* inner_pool = g.n == 1 ? runtime::global_pool() : nullptr;
  runtime::parallel_for(
      0, g.n,
      runtime::grain_for_cost(g.cin * g.h * g.w * g.cout * g.kh * g.kw),
      [&](std::size_t n_lo, std::size_t n_hi) {
        for (std::size_t ni = n_lo; ni < n_hi; ++ni) {
          runtime::parallel_for(
              inner_pool, 0, g.cout,
              runtime::grain_for_cost(g.cin * g.h * g.w * g.kh * g.kw),
              [&, ni](std::size_t co_lo, std::size_t co_hi) {
                for (std::size_t co = co_lo; co < co_hi; ++co) {
                  float* yout = y.data() + (ni * g.cout + co) * g.oh * g.ow;
                  for (std::size_t ci = 0; ci < g.cin; ++ci) {
                    const float* xin =
                        x.data().data() + (ni * g.cin + ci) * g.h * g.w;
                    const float* wk =
                        w.data().data() + ((ci * g.cout + co) * g.kh) * g.kw;
                    for (std::size_t hy = 0; hy < g.h; ++hy) {
                      for (std::size_t hx = 0; hx < g.w; ++hx) {
                        const float xv = xin[hy * g.w + hx];
                        if (xv == 0.0f) continue;
                        for (std::size_t ki = 0; ki < g.kh; ++ki) {
                          const long oy = static_cast<long>(hy) * stride +
                                          static_cast<long>(ki) - padding;
                          if (oy < 0 || oy >= static_cast<long>(g.oh))
                            continue;
                          for (std::size_t kj = 0; kj < g.kw; ++kj) {
                            const long ox = static_cast<long>(hx) * stride +
                                            static_cast<long>(kj) - padding;
                            if (ox < 0 || ox >= static_cast<long>(g.ow))
                              continue;
                            yout[static_cast<std::size_t>(oy) * g.ow +
                                 static_cast<std::size_t>(ox)] +=
                                xv * wk[ki * g.kw + kj];
                          }
                        }
                      }
                    }
                  }
                }
              });
        }
      });
  auto out = make_node(Shape{static_cast<int>(g.n), static_cast<int>(g.cout),
                             static_cast<int>(g.oh), static_cast<int>(g.ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kConvTranspose2d, out, {&x, &w, &b},
                  {.i0 = stride, .i1 = padding, .i3 = b.defined() ? 1 : 0});
  if (needs_grad({&x, &w, &b})) {
    const int s = stride;
    const int p = padding;
    attach(out, {x, w, b},
           [self = out.get(), px = x.impl(), pw = w.impl(),
            pb = b.defined() ? b.impl() : nullptr, g, s, p]() {
             if (px->requires_grad) px->ensure_grad();
             if (pw->requires_grad) pw->ensure_grad();
             for (std::size_t ni = 0; ni < g.n; ++ni) {
               for (std::size_t ci = 0; ci < g.cin; ++ci) {
                 const float* xin =
                     px->data.data() + (ni * g.cin + ci) * g.h * g.w;
                 float* gx = px->requires_grad
                                 ? px->grad.data() + (ni * g.cin + ci) * g.h * g.w
                                 : nullptr;
                 for (std::size_t hy = 0; hy < g.h; ++hy) {
                   for (std::size_t hx = 0; hx < g.w; ++hx) {
                     float gx_acc = 0.0f;
                     for (std::size_t co = 0; co < g.cout; ++co) {
                       const float* wk =
                           pw->data.data() + ((ci * g.cout + co) * g.kh) * g.kw;
                       float* gw =
                           pw->requires_grad
                               ? pw->grad.data() + ((ci * g.cout + co) * g.kh) * g.kw
                               : nullptr;
                       const float* gy =
                           self->grad.data() + (ni * g.cout + co) * g.oh * g.ow;
                       for (std::size_t ki = 0; ki < g.kh; ++ki) {
                         const long oy = static_cast<long>(hy) * s +
                                         static_cast<long>(ki) - p;
                         if (oy < 0 || oy >= static_cast<long>(g.oh)) continue;
                         for (std::size_t kj = 0; kj < g.kw; ++kj) {
                           const long ox = static_cast<long>(hx) * s +
                                           static_cast<long>(kj) - p;
                           if (ox < 0 || ox >= static_cast<long>(g.ow)) continue;
                           const float gyv =
                               gy[static_cast<std::size_t>(oy) * g.ow +
                                  static_cast<std::size_t>(ox)];
                           gx_acc += gyv * wk[ki * g.kw + kj];
                           if (gw)
                             gw[ki * g.kw + kj] += gyv * xin[hy * g.w + hx];
                         }
                       }
                     }
                     if (gx) gx[hy * g.w + hx] += gx_acc;
                   }
                 }
               }
               if (pb && pb->requires_grad) {
                 pb->ensure_grad();
                 for (std::size_t co = 0; co < g.cout; ++co) {
                   const float* gy =
                       self->grad.data() + (ni * g.cout + co) * g.oh * g.ow;
                   float acc = 0.0f;
                   for (std::size_t i = 0; i < g.oh * g.ow; ++i) acc += gy[i];
                   pb->grad[co] += acc;
                 }
               }
             }
           });
  }
  return Tensor(out);
}

Tensor maxpool2d(const Tensor& x, int kernel, int stride) {
  if (x.ndim() != 4) throw std::invalid_argument("maxpool2d: expects NCHW");
  if (kernel < 1 || stride < 1)
    throw std::invalid_argument("maxpool2d: bad kernel/stride");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t h = static_cast<std::size_t>(x.dim(2));
  const std::size_t w = static_cast<std::size_t>(x.dim(3));
  if (h < static_cast<std::size_t>(kernel) ||
      w < static_cast<std::size_t>(kernel))
    throw std::invalid_argument("maxpool2d: input smaller than kernel");
  const std::size_t oh = (h - static_cast<std::size_t>(kernel)) /
                             static_cast<std::size_t>(stride) + 1;
  const std::size_t ow = (w - static_cast<std::size_t>(kernel)) /
                             static_cast<std::size_t>(stride) + 1;
  std::vector<float> y(n * c * oh * ow);
  std::vector<std::size_t> argmax(y.size());
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* in = x.data().data() + nc * h * w;
    float* o = y.data() + nc * oh * ow;
    std::size_t* am = argmax.data() + nc * oh * ow;
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < ow; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        std::size_t bi = 0;
        for (int ki = 0; ki < kernel; ++ki)
          for (int kj = 0; kj < kernel; ++kj) {
            const std::size_t iy = oy * static_cast<std::size_t>(stride) +
                                   static_cast<std::size_t>(ki);
            const std::size_t ix = ox * static_cast<std::size_t>(stride) +
                                   static_cast<std::size_t>(kj);
            const float v = in[iy * w + ix];
            if (v > best) {
              best = v;
              bi = iy * w + ix;
            }
          }
        o[oy * ow + ox] = best;
        am[oy * ow + ox] = bi;
      }
  }
  auto out = make_node(Shape{static_cast<int>(n), static_cast<int>(c),
                             static_cast<int>(oh), static_cast<int>(ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kMaxPool2d, out, {&x},
                  {.i0 = kernel, .i1 = stride});
  if (needs_grad({&x})) {
    attach(out, {x},
           [self = out.get(), px = x.impl(), argmax = std::move(argmax), n, c,
            h, w, oh, ow]() {
             if (!px->requires_grad) return;
             px->ensure_grad();
             for (std::size_t nc = 0; nc < n * c; ++nc) {
               const float* gy = self->grad.data() + nc * oh * ow;
               const std::size_t* am = argmax.data() + nc * oh * ow;
               float* gx = px->grad.data() + nc * h * w;
               for (std::size_t i = 0; i < oh * ow; ++i) gx[am[i]] += gy[i];
             }
           });
  }
  return Tensor(out);
}

Tensor upsample_nearest2x(const Tensor& x) {
  if (x.ndim() != 4)
    throw std::invalid_argument("upsample_nearest2x: expects NCHW");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t h = static_cast<std::size_t>(x.dim(2));
  const std::size_t w = static_cast<std::size_t>(x.dim(3));
  const std::size_t oh = h * 2, ow = w * 2;
  std::vector<float> y(n * c * oh * ow);
  for (std::size_t nc = 0; nc < n * c; ++nc) {
    const float* in = x.data().data() + nc * h * w;
    float* o = y.data() + nc * oh * ow;
    for (std::size_t iy = 0; iy < oh; ++iy)
      for (std::size_t ix = 0; ix < ow; ++ix)
        o[iy * ow + ix] = in[(iy / 2) * w + (ix / 2)];
  }
  auto out = make_node(Shape{static_cast<int>(n), static_cast<int>(c),
                             static_cast<int>(oh), static_cast<int>(ow)},
                       std::move(y));
  plan::record_op(plan::OpKind::kUpsampleNearest2x, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl(), n, c, h, w, oh, ow]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t nc = 0; nc < n * c; ++nc) {
        const float* gy = self->grad.data() + nc * oh * ow;
        float* gx = px->grad.data() + nc * h * w;
        for (std::size_t iy = 0; iy < oh; ++iy)
          for (std::size_t ix = 0; ix < ow; ++ix)
            gx[(iy / 2) * w + (ix / 2)] += gy[iy * ow + ix];
      }
    });
  }
  return Tensor(out);
}

}  // namespace lmmir::tensor
