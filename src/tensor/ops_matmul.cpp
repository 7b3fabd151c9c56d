#include <stdexcept>

#include "runtime/parallel_for.hpp"
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

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 2 || b.ndim() != 2)
    throw std::invalid_argument("matmul: expects 2-D tensors");
  if (a.dim(1) != b.dim(0))
    throw std::invalid_argument("matmul: inner dims differ: " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  const std::size_t m = static_cast<std::size_t>(a.dim(0));
  const std::size_t k = static_cast<std::size_t>(a.dim(1));
  const std::size_t n = static_cast<std::size_t>(b.dim(1));
  std::vector<float> y(m * n);
  // Row blocks write disjoint slices of y; per-row arithmetic is the same
  // as the serial kernel, so results are thread-count independent.
  runtime::parallel_for(
      0, m, runtime::grain_for_cost(k * n),
      [&](std::size_t lo, std::size_t hi) {
        gemm_acc(a.data().data() + lo * k, b.data().data(), y.data() + lo * n,
                 hi - lo, k, n);
      });
  auto out = make_node(Shape{static_cast<int>(m), static_cast<int>(n)},
                       std::move(y));
  plan::record_op(plan::OpKind::kMatmul, out, {&a, &b});
  if (needs_grad({&a, &b})) {
    attach(out, {a, b},
           [self = out.get(), pa = a.impl(), pb = b.impl(), m, k, n]() {
             // dA = dY * Bᵀ ; dB = Aᵀ * dY
             if (pa->requires_grad) {
               pa->ensure_grad();
               gemm_a_bt_acc(self->grad.data(), pb->data.data(),
                             pa->grad.data(), m, n, k);
             }
             if (pb->requires_grad) {
               pb->ensure_grad();
               // dB[K,N] = Aᵀ dY with A stored [M,K]: helper K:=M, M:=K.
               gemm_at_b_acc(pa->data.data(), self->grad.data(),
                             pb->grad.data(), m, k, n);
             }
           });
  }
  return Tensor(out);
}

Tensor bmm(const Tensor& a, const Tensor& b) {
  if (a.ndim() != 3 || b.ndim() != 3)
    throw std::invalid_argument("bmm: expects 3-D tensors");
  if (a.dim(0) != b.dim(0) || a.dim(2) != b.dim(1))
    throw std::invalid_argument("bmm: shape mismatch " +
                                shape_to_string(a.shape()) + " x " +
                                shape_to_string(b.shape()));
  const std::size_t bs = static_cast<std::size_t>(a.dim(0));
  const std::size_t m = static_cast<std::size_t>(a.dim(1));
  const std::size_t k = static_cast<std::size_t>(a.dim(2));
  const std::size_t n = static_cast<std::size_t>(b.dim(2));
  std::vector<float> y(bs * m * n);
  runtime::parallel_for(
      0, bs, runtime::grain_for_cost(m * k * n),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
          gemm_acc(a.data().data() + i * m * k, b.data().data() + i * k * n,
                   y.data() + i * m * n, m, k, n);
      });
  auto out = make_node(
      Shape{static_cast<int>(bs), static_cast<int>(m), static_cast<int>(n)},
      std::move(y));
  plan::record_op(plan::OpKind::kBmm, out, {&a, &b});
  if (needs_grad({&a, &b})) {
    attach(out, {a, b},
           [self = out.get(), pa = a.impl(), pb = b.impl(), bs, m, k, n]() {
             if (pa->requires_grad) {
               pa->ensure_grad();
               for (std::size_t i = 0; i < bs; ++i)
                 gemm_a_bt_acc(self->grad.data() + i * m * n,
                               pb->data.data() + i * k * n,
                               pa->grad.data() + i * m * k, m, n, k);
             }
             if (pb->requires_grad) {
               pb->ensure_grad();
               for (std::size_t i = 0; i < bs; ++i)
                 gemm_at_b_acc(pa->data.data() + i * m * k,
                               self->grad.data() + i * m * n,
                               pb->grad.data() + i * k * n, m, k, n);
             }
           });
  }
  return Tensor(out);
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor& b) {
  if (w.ndim() != 2)
    throw std::invalid_argument("linear: weight must be [out,in]");
  const std::size_t in = static_cast<std::size_t>(w.dim(1));
  const std::size_t outf = static_cast<std::size_t>(w.dim(0));
  if (static_cast<std::size_t>(x.dim(-1)) != in)
    throw std::invalid_argument("linear: input feature mismatch " +
                                shape_to_string(x.shape()) + " vs w " +
                                shape_to_string(w.shape()));
  if (b.defined() && (b.ndim() != 1 ||
                      static_cast<std::size_t>(b.dim(0)) != outf))
    throw std::invalid_argument("linear: bias shape mismatch");
  const std::size_t rows = x.numel() / in;

  // y[rows,out] = x[rows,in] * w[out,in]ᵀ (+ b)
  std::vector<float> y(rows * outf);
  runtime::parallel_for(
      0, rows, runtime::grain_for_cost(in * outf),
      [&](std::size_t lo, std::size_t hi) {
        gemm_a_bt_acc(x.data().data() + lo * in, w.data().data(),
                      y.data() + lo * outf, hi - lo, in, outf);
        if (b.defined())
          for (std::size_t r = lo; r < hi; ++r)
            for (std::size_t o = 0; o < outf; ++o)
              y[r * outf + o] += b.data()[o];
      });

  Shape out_shape = x.shape();
  out_shape.back() = static_cast<int>(outf);
  auto out = make_node(std::move(out_shape), std::move(y));
  plan::record_op(plan::OpKind::kLinear, out, {&x, &w, &b},
                  {.i3 = b.defined() ? 1 : 0});
  if (needs_grad({&x, &w, &b})) {
    attach(out, {x, w, b},
           [self = out.get(), px = x.impl(), pw = w.impl(),
            pb = b.defined() ? b.impl() : nullptr, rows, in, outf]() {
             // dX = dY * W ; dW = dYᵀ * X ; db = column-sum of dY
             if (px->requires_grad) {
               px->ensure_grad();
               gemm_acc(self->grad.data(), pw->data.data(), px->grad.data(),
                        rows, outf, in);
             }
             if (pw->requires_grad) {
               pw->ensure_grad();
               gemm_at_b_acc(self->grad.data(), px->data.data(),
                             pw->grad.data(), rows, outf, in);
             }
             if (pb && pb->requires_grad) {
               pb->ensure_grad();
               for (std::size_t r = 0; r < rows; ++r)
                 for (std::size_t o = 0; o < outf; ++o)
                   pb->grad[o] += self->grad[r * outf + o];
             }
           });
  }
  return Tensor(out);
}

}  // namespace lmmir::tensor
