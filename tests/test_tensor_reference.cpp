// Reference-implementation cross-checks: the optimized im2col conv2d and
// the scatter conv_transpose2d must agree with naive direct-loop
// references on randomized shapes (TEST_P sweeps).
#include <gtest/gtest.h>

#include <vector>

#include "tensor/ops.hpp"

namespace {

using lmmir::tensor::Shape;
using lmmir::tensor::Tensor;
using lmmir::util::Rng;
namespace ops = lmmir::tensor;

/// Naive direct convolution: y[n,co,oy,ox] = sum x[n,ci,iy,ix] w[co,ci,ky,kx].
std::vector<float> conv2d_reference(const Tensor& x, const Tensor& w,
                                    const Tensor& b, int stride, int pad,
                                    int& oh, int& ow) {
  const int n = x.dim(0), cin = x.dim(1), h = x.dim(2), wd = x.dim(3);
  const int cout = w.dim(0), kh = w.dim(2), kw = w.dim(3);
  oh = (h + 2 * pad - kh) / stride + 1;
  ow = (wd + 2 * pad - kw) / stride + 1;
  std::vector<float> y(static_cast<std::size_t>(n * cout * oh * ow), 0.0f);
  for (int ni = 0; ni < n; ++ni)
    for (int co = 0; co < cout; ++co)
      for (int oy = 0; oy < oh; ++oy)
        for (int ox = 0; ox < ow; ++ox) {
          float acc = b.defined() ? b.data()[static_cast<std::size_t>(co)] : 0.0f;
          for (int ci = 0; ci < cin; ++ci)
            for (int ky = 0; ky < kh; ++ky)
              for (int kx = 0; kx < kw; ++kx) {
                const int iy = oy * stride - pad + ky;
                const int ix = ox * stride - pad + kx;
                if (iy < 0 || ix < 0 || iy >= h || ix >= wd) continue;
                acc += x.data()[static_cast<std::size_t>(
                           ((ni * cin + ci) * h + iy) * wd + ix)] *
                       w.data()[static_cast<std::size_t>(
                           ((co * cin + ci) * kh + ky) * kw + kx)];
              }
          y[static_cast<std::size_t>(((ni * cout + co) * oh + oy) * ow + ox)] =
              acc;
        }
  return y;
}

struct ConvShape {
  int n, cin, cout, size, kernel, stride, pad;
};

class ConvReference : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvReference, MatchesNaiveLoop) {
  const auto p = GetParam();
  Rng rng(static_cast<std::uint64_t>(p.size * 131 + p.kernel));
  auto x = Tensor::randn({p.n, p.cin, p.size, p.size}, rng);
  auto w = Tensor::randn({p.cout, p.cin, p.kernel, p.kernel}, rng);
  auto b = Tensor::randn({p.cout}, rng);
  auto y = ops::conv2d(x, w, b, p.stride, p.pad);
  int oh = 0, ow = 0;
  const auto ref = conv2d_reference(x, w, b, p.stride, p.pad, oh, ow);
  ASSERT_EQ(y.shape(), (Shape{p.n, p.cout, oh, ow}));
  ASSERT_EQ(y.numel(), ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i)
    EXPECT_NEAR(y.data()[i], ref[i], 1e-4f) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvReference,
    ::testing::Values(ConvShape{1, 1, 1, 6, 3, 1, 1},
                      ConvShape{2, 3, 4, 8, 3, 1, 1},
                      ConvShape{1, 2, 2, 9, 5, 2, 2},
                      ConvShape{2, 4, 1, 7, 1, 1, 0},
                      ConvShape{1, 1, 3, 10, 7, 3, 3},
                      ConvShape{3, 2, 2, 6, 2, 2, 0}));

TEST(ConvTransposeReference, InverseOfConvOnIndicator) {
  // conv_transpose2d with a one-hot kernel scatters inputs to the
  // expected offsets: place a single 1 in the input and check the
  // footprint lands where the formula says.
  auto x = Tensor::zeros({1, 1, 3, 3});
  x.data()[4] = 1.0f;  // centre (1,1)
  auto w = Tensor::zeros({1, 1, 2, 2});
  w.data()[3] = 2.0f;  // kernel (1,1)
  auto y = ops::conv_transpose2d(x, w, Tensor(), 2, 0);
  // out[oy,ox] = x[1,1]*w[1,1] at oy=1*2+1=3, ox=3; output 7x7... actually
  // oh = (3-1)*2+2 = 6.
  ASSERT_EQ(y.shape(), (Shape{1, 1, 6, 6}));
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c)
      EXPECT_FLOAT_EQ(y.data()[static_cast<std::size_t>(r * 6 + c)],
                      (r == 3 && c == 3) ? 2.0f : 0.0f);
}

TEST(ConvTransposeReference, StridedUpsampleMassPreserved) {
  // With an all-ones kernel and no padding, total output mass equals
  // total input mass times the kernel sum.
  Rng rng(9);
  auto x = Tensor::randn({1, 2, 4, 4}, rng);
  auto w = Tensor::full({2, 1, 2, 2}, 1.0f);
  auto y = ops::conv_transpose2d(x, w, Tensor(), 2, 0);
  float in_sum = 0, out_sum = 0;
  for (float v : x.data()) in_sum += v;
  for (float v : y.data()) out_sum += v;
  EXPECT_NEAR(out_sum, 4.0f * in_sum, 1e-3f);
}

TEST(BatchNormReference, EvalUsesRunningStats) {
  // After many training batches over the same data, eval-mode output
  // approaches train-mode output (running stats converge to batch stats).
  Rng rng(11);
  auto x = Tensor::randn({4, 3, 5, 5}, rng, 2.0f);
  auto gamma = Tensor::full({3}, 1.0f);
  auto beta = Tensor::zeros({3});
  auto rm = Tensor::zeros({3});
  auto rv = Tensor::full({3}, 1.0f);
  Tensor train_y;
  for (int i = 0; i < 200; ++i)
    train_y = ops::batch_norm2d(x, gamma, beta, rm, rv, true);
  const Tensor eval_y = ops::batch_norm2d(x, gamma, beta, rm, rv, false);
  double diff = 0;
  for (std::size_t i = 0; i < eval_y.numel(); ++i)
    diff += std::abs(static_cast<double>(eval_y.data()[i]) - train_y.data()[i]);
  EXPECT_LT(diff / static_cast<double>(eval_y.numel()), 0.05);
}

TEST(MatmulReference, RandomAgainstNaive) {
  Rng rng(13);
  const int m = 7, k = 5, n = 6;
  auto a = Tensor::randn({m, k}, rng);
  auto b = Tensor::randn({k, n}, rng);
  auto c = ops::matmul(a, b);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < n; ++j) {
      float acc = 0;
      for (int kk = 0; kk < k; ++kk)
        acc += a.data()[static_cast<std::size_t>(i * k + kk)] *
               b.data()[static_cast<std::size_t>(kk * n + j)];
      EXPECT_NEAR(c.data()[static_cast<std::size_t>(i * n + j)], acc, 1e-4f);
    }
}

}  // namespace
