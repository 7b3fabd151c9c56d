#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tensor/op_helpers.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"

namespace lmmir::tensor {

using detail::accumulate_grad;
using detail::make_node;
using detail::needs_grad;
using ophelp::attach;
using ophelp::check_same_shape;

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  std::vector<float> y(a.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = a.data()[i] + b.data()[i];
  auto out = make_node(a.shape(), std::move(y));
  plan::record_op(plan::OpKind::kAdd, out, {&a, &b});
  if (needs_grad({&a, &b})) {
    attach(out, {a, b}, [self = out.get(), pa = a.impl(), pb = b.impl()]() {
      if (pa->requires_grad) accumulate_grad(*pa, self->grad);
      if (pb->requires_grad) accumulate_grad(*pb, self->grad);
    });
  }
  return Tensor(out);
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  std::vector<float> y(a.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = a.data()[i] - b.data()[i];
  auto out = make_node(a.shape(), std::move(y));
  plan::record_op(plan::OpKind::kSub, out, {&a, &b});
  if (needs_grad({&a, &b})) {
    attach(out, {a, b}, [self = out.get(), pa = a.impl(), pb = b.impl()]() {
      if (pa->requires_grad) accumulate_grad(*pa, self->grad);
      if (pb->requires_grad) {
        pb->ensure_grad();
        for (std::size_t i = 0; i < self->grad.size(); ++i)
          pb->grad[i] -= self->grad[i];
      }
    });
  }
  return Tensor(out);
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  std::vector<float> y(a.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = a.data()[i] * b.data()[i];
  auto out = make_node(a.shape(), std::move(y));
  plan::record_op(plan::OpKind::kMul, out, {&a, &b});
  if (needs_grad({&a, &b})) {
    attach(out, {a, b}, [self = out.get(), pa = a.impl(), pb = b.impl()]() {
      if (pa->requires_grad) {
        pa->ensure_grad();
        for (std::size_t i = 0; i < self->grad.size(); ++i)
          pa->grad[i] += self->grad[i] * pb->data[i];
      }
      if (pb->requires_grad) {
        pb->ensure_grad();
        for (std::size_t i = 0; i < self->grad.size(); ++i)
          pb->grad[i] += self->grad[i] * pa->data[i];
      }
    });
  }
  return Tensor(out);
}

Tensor scale(const Tensor& a, float s) {
  std::vector<float> y(a.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = a.data()[i] * s;
  auto out = make_node(a.shape(), std::move(y));
  plan::record_op(plan::OpKind::kScale, out, {&a}, {.f0 = s});
  if (needs_grad({&a})) {
    attach(out, {a}, [self = out.get(), pa = a.impl(), s]() {
      if (!pa->requires_grad) return;
      pa->ensure_grad();
      for (std::size_t i = 0; i < self->grad.size(); ++i)
        pa->grad[i] += self->grad[i] * s;
    });
  }
  return Tensor(out);
}

Tensor add_scalar(const Tensor& a, float s) {
  std::vector<float> y(a.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = a.data()[i] + s;
  auto out = make_node(a.shape(), std::move(y));
  plan::record_op(plan::OpKind::kAddScalar, out, {&a}, {.f0 = s});
  if (needs_grad({&a})) {
    attach(out, {a}, [self = out.get(), pa = a.impl()]() {
      if (pa->requires_grad) accumulate_grad(*pa, self->grad);
    });
  }
  return Tensor(out);
}

Tensor neg(const Tensor& a) { return scale(a, -1.0f); }

Tensor relu(const Tensor& x) {
  std::vector<float> y(x.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::max(0.0f, x.data()[i]);
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kRelu, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl()]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t i = 0; i < self->grad.size(); ++i)
        if (px->data[i] > 0.0f) px->grad[i] += self->grad[i];
    });
  }
  return Tensor(out);
}

Tensor leaky_relu(const Tensor& x, float negative_slope) {
  std::vector<float> y(x.numel());
  for (std::size_t i = 0; i < y.size(); ++i) {
    const float v = x.data()[i];
    y[i] = v > 0.0f ? v : negative_slope * v;
  }
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kLeakyRelu, out, {&x}, {.f0 = negative_slope});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl(), negative_slope]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t i = 0; i < self->grad.size(); ++i)
        px->grad[i] +=
            self->grad[i] * (px->data[i] > 0.0f ? 1.0f : negative_slope);
    });
  }
  return Tensor(out);
}

Tensor sigmoid(const Tensor& x) {
  std::vector<float> y(x.numel());
  for (std::size_t i = 0; i < y.size(); ++i)
    y[i] = 1.0f / (1.0f + std::exp(-x.data()[i]));
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kSigmoid, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl()]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t i = 0; i < self->grad.size(); ++i) {
        const float s = self->data[i];
        px->grad[i] += self->grad[i] * s * (1.0f - s);
      }
    });
  }
  return Tensor(out);
}

Tensor tanh_act(const Tensor& x) {
  std::vector<float> y(x.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::tanh(x.data()[i]);
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kTanh, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl()]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t i = 0; i < self->grad.size(); ++i) {
        const float t = self->data[i];
        px->grad[i] += self->grad[i] * (1.0f - t * t);
      }
    });
  }
  return Tensor(out);
}

Tensor softmax_lastdim(const Tensor& x) {
  if (x.ndim() < 1)
    throw std::invalid_argument("softmax_lastdim: needs >=1 dims");
  const std::size_t d = static_cast<std::size_t>(x.dim(-1));
  const std::size_t rows = x.numel() / d;
  std::vector<float> y(x.numel());
  for (std::size_t r = 0; r < rows; ++r) {
    const float* in = x.data().data() + r * d;
    float* o = y.data() + r * d;
    float mx = in[0];
    for (std::size_t i = 1; i < d; ++i) mx = std::max(mx, in[i]);
    float sum = 0.0f;
    for (std::size_t i = 0; i < d; ++i) {
      o[i] = std::exp(in[i] - mx);
      sum += o[i];
    }
    const float inv = 1.0f / sum;
    for (std::size_t i = 0; i < d; ++i) o[i] *= inv;
  }
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kSoftmaxLastDim, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl(), d, rows]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t r = 0; r < rows; ++r) {
        const float* yv = self->data.data() + r * d;
        const float* gy = self->grad.data() + r * d;
        float dot = 0.0f;
        for (std::size_t i = 0; i < d; ++i) dot += yv[i] * gy[i];
        float* gx = px->grad.data() + r * d;
        for (std::size_t i = 0; i < d; ++i)
          gx[i] += yv[i] * (gy[i] - dot);
      }
    });
  }
  return Tensor(out);
}

Tensor reshape(const Tensor& x, Shape new_shape) {
  if (shape_numel(new_shape) != x.numel())
    throw std::invalid_argument("reshape: element count mismatch " +
                                shape_to_string(x.shape()) + " -> " +
                                shape_to_string(new_shape));
  auto out = make_node(std::move(new_shape), x.data());
  plan::record_op(plan::OpKind::kReshape, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl()]() {
      if (px->requires_grad) accumulate_grad(*px, self->grad);
    });
  }
  return Tensor(out);
}

namespace {
/// outer * axis_len * inner decomposition for axis-wise ops.
struct AxisSplit {
  std::size_t outer = 1, axis = 1, inner = 1;
};
AxisSplit split_at(const Shape& shape, int axis) {
  AxisSplit s;
  for (int i = 0; i < static_cast<int>(shape.size()); ++i) {
    const auto d = static_cast<std::size_t>(shape[static_cast<std::size_t>(i)]);
    if (i < axis) s.outer *= d;
    else if (i == axis) s.axis = d;
    else s.inner *= d;
  }
  return s;
}
int normalize_axis(int axis, int ndim, const char* op) {
  if (axis < 0) axis += ndim;
  if (axis < 0 || axis >= ndim)
    throw std::invalid_argument(std::string(op) + ": axis out of range");
  return axis;
}
}  // namespace

Tensor concat(const Tensor& a, const Tensor& b, int axis) {
  if (a.ndim() != b.ndim())
    throw std::invalid_argument("concat: rank mismatch");
  axis = normalize_axis(axis, a.ndim(), "concat");
  for (int i = 0; i < a.ndim(); ++i)
    if (i != axis && a.dim(i) != b.dim(i))
      throw std::invalid_argument("concat: non-axis dims differ");

  Shape out_shape = a.shape();
  out_shape[static_cast<std::size_t>(axis)] += b.dim(axis);
  const auto sa = split_at(a.shape(), axis);
  const auto sb = split_at(b.shape(), axis);
  std::vector<float> y(shape_numel(out_shape));
  const std::size_t stride_a = sa.axis * sa.inner;
  const std::size_t stride_b = sb.axis * sb.inner;
  const std::size_t stride_o = stride_a + stride_b;
  for (std::size_t o = 0; o < sa.outer; ++o) {
    std::copy_n(a.data().data() + o * stride_a, stride_a,
                y.data() + o * stride_o);
    std::copy_n(b.data().data() + o * stride_b, stride_b,
                y.data() + o * stride_o + stride_a);
  }
  auto out = make_node(std::move(out_shape), std::move(y));
  plan::record_op(plan::OpKind::kConcat, out, {&a, &b}, {.i0 = axis});
  if (needs_grad({&a, &b})) {
    attach(out, {a, b},
           [self = out.get(), pa = a.impl(), pb = b.impl(), sa, stride_a,
            stride_b, stride_o]() {
             if (pa->requires_grad) {
               pa->ensure_grad();
               for (std::size_t o = 0; o < sa.outer; ++o)
                 for (std::size_t i = 0; i < stride_a; ++i)
                   pa->grad[o * stride_a + i] += self->grad[o * stride_o + i];
             }
             if (pb->requires_grad) {
               pb->ensure_grad();
               for (std::size_t o = 0; o < sa.outer; ++o)
                 for (std::size_t i = 0; i < stride_b; ++i)
                   pb->grad[o * stride_b + i] +=
                       self->grad[o * stride_o + stride_a + i];
             }
           });
  }
  return Tensor(out);
}

Tensor slice_axis(const Tensor& x, int axis, int start, int len) {
  axis = normalize_axis(axis, x.ndim(), "slice_axis");
  if (start < 0 || len <= 0 || start + len > x.dim(axis))
    throw std::invalid_argument("slice_axis: range out of bounds");
  const auto s = split_at(x.shape(), axis);
  Shape out_shape = x.shape();
  out_shape[static_cast<std::size_t>(axis)] = len;
  std::vector<float> y(shape_numel(out_shape));
  const std::size_t in_stride = s.axis * s.inner;
  const std::size_t out_stride = static_cast<std::size_t>(len) * s.inner;
  const std::size_t off = static_cast<std::size_t>(start) * s.inner;
  for (std::size_t o = 0; o < s.outer; ++o)
    std::copy_n(x.data().data() + o * in_stride + off, out_stride,
                y.data() + o * out_stride);
  auto out = make_node(std::move(out_shape), std::move(y));
  plan::record_op(plan::OpKind::kSliceAxis, out, {&x},
                  {.i0 = axis, .i1 = start, .i2 = len});
  if (needs_grad({&x})) {
    attach(out, {x},
           [self = out.get(), px = x.impl(), s, in_stride, out_stride, off]() {
             if (!px->requires_grad) return;
             px->ensure_grad();
             for (std::size_t o = 0; o < s.outer; ++o)
               for (std::size_t i = 0; i < out_stride; ++i)
                 px->grad[o * in_stride + off + i] +=
                     self->grad[o * out_stride + i];
           });
  }
  return Tensor(out);
}

Tensor transpose_last2(const Tensor& x) {
  if (x.ndim() != 2 && x.ndim() != 3)
    throw std::invalid_argument("transpose_last2: expects 2-D or 3-D");
  const std::size_t batch = x.ndim() == 3 ? static_cast<std::size_t>(x.dim(0)) : 1;
  const std::size_t m = static_cast<std::size_t>(x.dim(-2));
  const std::size_t n = static_cast<std::size_t>(x.dim(-1));
  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 2] = static_cast<int>(n);
  out_shape[out_shape.size() - 1] = static_cast<int>(m);
  std::vector<float> y(x.numel());
  for (std::size_t b = 0; b < batch; ++b) {
    const float* in = x.data().data() + b * m * n;
    float* o = y.data() + b * m * n;
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) o[j * m + i] = in[i * n + j];
  }
  auto out = make_node(std::move(out_shape), std::move(y));
  plan::record_op(plan::OpKind::kTransposeLast2, out, {&x});
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl(), batch, m, n]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      for (std::size_t b = 0; b < batch; ++b) {
        const float* gy = self->grad.data() + b * m * n;
        float* gx = px->grad.data() + b * m * n;
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) gx[i * n + j] += gy[j * m + i];
      }
    });
  }
  return Tensor(out);
}

namespace {
/// 1-element output node for reductions (pooled like every op output).
std::vector<float> scalar_buffer(float value) {
  std::vector<float> y(1);
  y[0] = value;
  return y;
}
}  // namespace

Tensor sum_all(const Tensor& x) {
  double acc = 0.0;
  for (float v : x.data()) acc += v;
  auto out = make_node(Shape{1}, scalar_buffer(static_cast<float>(acc)));
  if (needs_grad({&x})) {
    attach(out, {x}, [self = out.get(), px = x.impl()]() {
      if (!px->requires_grad) return;
      px->ensure_grad();
      const float g = self->grad[0];
      for (auto& v : px->grad) v += g;
    });
  }
  return Tensor(out);
}

Tensor mean_all(const Tensor& x) {
  return scale(sum_all(x), 1.0f / static_cast<float>(x.numel()));
}

Tensor mse_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "mse_loss");
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i) {
    const double d = static_cast<double>(pred.data()[i]) - target.data()[i];
    acc += d * d;
  }
  const float n = static_cast<float>(pred.numel());
  auto out = make_node(Shape{1}, scalar_buffer(static_cast<float>(acc / n)));
  if (needs_grad({&pred, &target})) {
    attach(out, {pred, target},
           [self = out.get(), pp = pred.impl(), pt = target.impl(), n]() {
             const float g = self->grad[0] * 2.0f / n;
             if (pp->requires_grad) {
               pp->ensure_grad();
               for (std::size_t i = 0; i < pp->data.size(); ++i)
                 pp->grad[i] += g * (pp->data[i] - pt->data[i]);
             }
             if (pt->requires_grad) {
               pt->ensure_grad();
               for (std::size_t i = 0; i < pt->data.size(); ++i)
                 pt->grad[i] -= g * (pp->data[i] - pt->data[i]);
             }
           });
  }
  return Tensor(out);
}

Tensor l1_loss(const Tensor& pred, const Tensor& target) {
  check_same_shape(pred, target, "l1_loss");
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.numel(); ++i)
    acc += std::abs(static_cast<double>(pred.data()[i]) - target.data()[i]);
  const float n = static_cast<float>(pred.numel());
  auto out = make_node(Shape{1}, scalar_buffer(static_cast<float>(acc / n)));
  if (needs_grad({&pred, &target})) {
    attach(out, {pred, target},
           [self = out.get(), pp = pred.impl(), pt = target.impl(), n]() {
             const float g = self->grad[0] / n;
             if (pp->requires_grad) {
               pp->ensure_grad();
               for (std::size_t i = 0; i < pp->data.size(); ++i) {
                 const float d = pp->data[i] - pt->data[i];
                 pp->grad[i] += g * (d > 0 ? 1.0f : (d < 0 ? -1.0f : 0.0f));
               }
             }
             if (pt->requires_grad) {
               pt->ensure_grad();
               for (std::size_t i = 0; i < pt->data.size(); ++i) {
                 const float d = pp->data[i] - pt->data[i];
                 pt->grad[i] -= g * (d > 0 ? 1.0f : (d < 0 ? -1.0f : 0.0f));
               }
             }
           });
  }
  return Tensor(out);
}

Tensor add_bias_lastdim(const Tensor& x, const Tensor& b) {
  if (b.ndim() != 1 || b.dim(0) != x.dim(-1))
    throw std::invalid_argument("add_bias_lastdim: bias shape mismatch");
  const std::size_t d = static_cast<std::size_t>(x.dim(-1));
  const std::size_t rows = x.numel() / d;
  std::vector<float> y(x.numel());
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < d; ++i)
      y[r * d + i] = x.data()[r * d + i] + b.data()[i];
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kAddBiasLastDim, out, {&x, &b});
  if (needs_grad({&x, &b})) {
    attach(out, {x, b},
           [self = out.get(), px = x.impl(), pb = b.impl(), rows, d]() {
             if (px->requires_grad) accumulate_grad(*px, self->grad);
             if (pb->requires_grad) {
               pb->ensure_grad();
               for (std::size_t r = 0; r < rows; ++r)
                 for (std::size_t i = 0; i < d; ++i)
                   pb->grad[i] += self->grad[r * d + i];
             }
           });
  }
  return Tensor(out);
}

Tensor add_bias_channels(const Tensor& x, const Tensor& b) {
  if (x.ndim() != 4)
    throw std::invalid_argument("add_bias_channels: expects NCHW");
  if (b.ndim() != 1 || b.dim(0) != x.dim(1))
    throw std::invalid_argument("add_bias_channels: bias shape mismatch");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t hw = static_cast<std::size_t>(x.dim(2)) *
                         static_cast<std::size_t>(x.dim(3));
  std::vector<float> y(x.numel());
  for (std::size_t ni = 0; ni < n; ++ni)
    for (std::size_t ci = 0; ci < c; ++ci) {
      const float bv = b.data()[ci];
      const std::size_t base = (ni * c + ci) * hw;
      for (std::size_t i = 0; i < hw; ++i)
        y[base + i] = x.data()[base + i] + bv;
    }
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kAddBiasChannels, out, {&x, &b});
  if (needs_grad({&x, &b})) {
    attach(out, {x, b},
           [self = out.get(), px = x.impl(), pb = b.impl(), n, c, hw]() {
             if (px->requires_grad) accumulate_grad(*px, self->grad);
             if (pb->requires_grad) {
               pb->ensure_grad();
               for (std::size_t ni = 0; ni < n; ++ni)
                 for (std::size_t ci = 0; ci < c; ++ci) {
                   const std::size_t base = (ni * c + ci) * hw;
                   float acc = 0.0f;
                   for (std::size_t i = 0; i < hw; ++i)
                     acc += self->grad[base + i];
                   pb->grad[ci] += acc;
                 }
             }
           });
  }
  return Tensor(out);
}

Tensor mul_broadcast_channel(const Tensor& x, const Tensor& a) {
  if (x.ndim() != 4 || a.ndim() != 4)
    throw std::invalid_argument("mul_broadcast_channel: expects 4-D tensors");
  if (a.dim(1) != 1 || a.dim(0) != x.dim(0) || a.dim(2) != x.dim(2) ||
      a.dim(3) != x.dim(3))
    throw std::invalid_argument("mul_broadcast_channel: mask must be [N,1,H,W]");
  const std::size_t n = static_cast<std::size_t>(x.dim(0));
  const std::size_t c = static_cast<std::size_t>(x.dim(1));
  const std::size_t hw = static_cast<std::size_t>(x.dim(2)) *
                         static_cast<std::size_t>(x.dim(3));
  std::vector<float> y(x.numel());
  for (std::size_t ni = 0; ni < n; ++ni) {
    const float* av = a.data().data() + ni * hw;
    for (std::size_t ci = 0; ci < c; ++ci) {
      const std::size_t base = (ni * c + ci) * hw;
      for (std::size_t i = 0; i < hw; ++i)
        y[base + i] = x.data()[base + i] * av[i];
    }
  }
  auto out = make_node(x.shape(), std::move(y));
  plan::record_op(plan::OpKind::kMulBroadcastChannel, out, {&x, &a});
  if (needs_grad({&x, &a})) {
    attach(out, {x, a},
           [self = out.get(), px = x.impl(), pa = a.impl(), n, c, hw]() {
             if (px->requires_grad) {
               px->ensure_grad();
               for (std::size_t ni = 0; ni < n; ++ni) {
                 const float* av = pa->data.data() + ni * hw;
                 for (std::size_t ci = 0; ci < c; ++ci) {
                   const std::size_t base = (ni * c + ci) * hw;
                   for (std::size_t i = 0; i < hw; ++i)
                     px->grad[base + i] += self->grad[base + i] * av[i];
                 }
               }
             }
             if (pa->requires_grad) {
               pa->ensure_grad();
               for (std::size_t ni = 0; ni < n; ++ni) {
                 float* ga = pa->grad.data() + ni * hw;
                 for (std::size_t ci = 0; ci < c; ++ci) {
                   const std::size_t base = (ni * c + ci) * hw;
                   for (std::size_t i = 0; i < hw; ++i)
                     ga[i] += self->grad[base + i] * px->data[base + i];
                 }
               }
             }
           });
  }
  return Tensor(out);
}

Tensor dropout(const Tensor& x, float p, util::Rng& rng, bool training) {
  if (!training || p <= 0.0f) return scale(x, 1.0f);  // identity (keeps graph)
  if (p >= 1.0f) throw std::invalid_argument("dropout: p must be < 1");
  // Random masks are per-pass state a recorded plan cannot replay.
  plan::record_unsupported("dropout in training mode");
  const float keep = 1.0f - p;
  std::vector<float> mask(x.numel());
  for (auto& m : mask) m = rng.uniform() < p ? 0.0f : 1.0f / keep;
  std::vector<float> y(x.numel());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = x.data()[i] * mask[i];
  auto out = make_node(x.shape(), std::move(y));
  if (needs_grad({&x})) {
    attach(out, {x},
           [self = out.get(), px = x.impl(), mask = std::move(mask)]() {
             if (!px->requires_grad) return;
             px->ensure_grad();
             for (std::size_t i = 0; i < self->grad.size(); ++i)
               px->grad[i] += self->grad[i] * mask[i];
           });
  }
  return Tensor(out);
}

}  // namespace lmmir::tensor
