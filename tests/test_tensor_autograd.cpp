// Numeric gradient checks for every differentiable op: the analytic
// backward pass must match central differences.  These tests are the
// ground truth for the training substrate — if they pass, the optimizer
// sees correct gradients for every architecture built from these ops.
#include <gtest/gtest.h>

#include "gradcheck.hpp"
#include "tensor/ops.hpp"

namespace {

using lmmir::tensor::Shape;
using lmmir::tensor::Tensor;
using lmmir::testing::expect_gradients_match;
using lmmir::util::Rng;
namespace ops = lmmir::tensor;

Tensor rand_tensor(const Shape& shape, Rng& rng, float stddev = 1.0f) {
  return Tensor::randn(shape, rng, stddev);
}

TEST(Autograd, AddSubMul) {
  Rng rng(1);
  auto a = rand_tensor({2, 3}, rng);
  auto b = rand_tensor({2, 3}, rng);
  expect_gradients_match({a, b}, [](const std::vector<Tensor>& in) {
    return ops::sum_all(ops::mul(ops::add(in[0], in[1]), ops::sub(in[0], in[1])));
  });
}

TEST(Autograd, ScaleAddScalarNeg) {
  Rng rng(2);
  auto a = rand_tensor({4}, rng);
  expect_gradients_match({a}, [](const std::vector<Tensor>& in) {
    return ops::sum_all(ops::neg(ops::add_scalar(ops::scale(in[0], 2.5f), 1.0f)));
  });
}

TEST(Autograd, ReluLeakySigmoidTanh) {
  Rng rng(3);
  auto a = rand_tensor({3, 4}, rng);
  // Shift away from 0 so the ReLU kink doesn't poison central differences.
  for (auto& v : a.data())
    if (std::abs(v) < 0.05f) v += 0.1f;
  expect_gradients_match({a}, [](const std::vector<Tensor>& in) {
    auto y = ops::relu(in[0]);
    y = ops::add(y, ops::leaky_relu(in[0], 0.1f));
    y = ops::add(y, ops::sigmoid(in[0]));
    y = ops::add(y, ops::tanh_act(in[0]));
    return ops::sum_all(y);
  });
}

TEST(Autograd, SoftmaxLastdim) {
  Rng rng(4);
  auto a = rand_tensor({2, 5}, rng);
  auto w = rand_tensor({2, 5}, rng);  // weight the entries so grads differ
  expect_gradients_match({a}, [w](const std::vector<Tensor>& in) {
    return ops::sum_all(ops::mul(ops::softmax_lastdim(in[0]), w));
  });
}

TEST(Autograd, ReshapeConcatSlice) {
  Rng rng(5);
  auto a = rand_tensor({2, 3}, rng);
  auto b = rand_tensor({2, 2}, rng);
  expect_gradients_match({a, b}, [](const std::vector<Tensor>& in) {
    auto cat = ops::concat(in[0], in[1], 1);              // [2,5]
    auto sl = ops::slice_axis(cat, 1, 1, 3);              // [2,3]
    auto rs = ops::reshape(sl, {3, 2});
    return ops::mean_all(ops::mul(rs, rs));
  });
}

TEST(Autograd, TransposeLast2) {
  Rng rng(6);
  auto a = rand_tensor({2, 3, 4}, rng);
  auto w = rand_tensor({2, 4, 3}, rng);
  expect_gradients_match({a}, [w](const std::vector<Tensor>& in) {
    return ops::sum_all(ops::mul(ops::transpose_last2(in[0]), w));
  });
}

TEST(Autograd, MatmulLinear) {
  Rng rng(7);
  auto a = rand_tensor({3, 4}, rng);
  auto b = rand_tensor({4, 2}, rng);
  expect_gradients_match({a, b}, [](const std::vector<Tensor>& in) {
    return ops::sum_all(ops::matmul(in[0], in[1]));
  });

  auto x = rand_tensor({2, 3, 4}, rng);  // [B,T,in]
  auto w = rand_tensor({5, 4}, rng);
  auto bias = rand_tensor({5}, rng);
  expect_gradients_match({x, w, bias}, [](const std::vector<Tensor>& in) {
    return ops::mean_all(ops::linear(in[0], in[1], in[2]));
  });
}

TEST(Autograd, Bmm) {
  Rng rng(8);
  auto a = rand_tensor({2, 3, 4}, rng);
  auto b = rand_tensor({2, 4, 2}, rng);
  expect_gradients_match({a, b}, [](const std::vector<Tensor>& in) {
    auto y = ops::bmm(in[0], in[1]);
    return ops::sum_all(ops::mul(y, y));
  });
}

TEST(Autograd, BiasAdds) {
  Rng rng(9);
  auto x = rand_tensor({2, 3, 4}, rng);
  auto b = rand_tensor({4}, rng);
  expect_gradients_match({x, b}, [](const std::vector<Tensor>& in) {
    return ops::sum_all(
        ops::mul(ops::add_bias_lastdim(in[0], in[1]),
                 ops::add_bias_lastdim(in[0], in[1])));
  });

  auto img = rand_tensor({2, 3, 2, 2}, rng);
  auto cb = rand_tensor({3}, rng);
  expect_gradients_match({img, cb}, [](const std::vector<Tensor>& in) {
    auto y = ops::add_bias_channels(in[0], in[1]);
    return ops::mean_all(ops::mul(y, y));
  });
}

TEST(Autograd, MulBroadcastChannel) {
  Rng rng(10);
  auto x = rand_tensor({2, 3, 2, 2}, rng);
  auto a = rand_tensor({2, 1, 2, 2}, rng);
  expect_gradients_match({x, a}, [](const std::vector<Tensor>& in) {
    return ops::sum_all(ops::mul_broadcast_channel(in[0], in[1]));
  });
}

TEST(Autograd, Losses) {
  Rng rng(11);
  auto p = rand_tensor({2, 3}, rng);
  auto t = rand_tensor({2, 3}, rng);
  expect_gradients_match({p}, [t](const std::vector<Tensor>& in) {
    return ops::mse_loss(in[0], t);
  });
  // keep L1 away from zero-crossings
  auto p2 = rand_tensor({2, 3}, rng);
  for (std::size_t i = 0; i < p2.numel(); ++i)
    p2.data()[i] = t.data()[i] + (p2.data()[i] > 0 ? 1.0f : -1.0f);
  expect_gradients_match({p2}, [t](const std::vector<Tensor>& in) {
    return ops::l1_loss(in[0], t);
  });
}

TEST(Autograd, Conv2d) {
  Rng rng(12);
  auto x = rand_tensor({2, 2, 5, 5}, rng);
  auto w = rand_tensor({3, 2, 3, 3}, rng);
  auto b = rand_tensor({3}, rng);
  expect_gradients_match({x, w, b}, [](const std::vector<Tensor>& in) {
    auto y = ops::conv2d(in[0], in[1], in[2], 1, 1);
    return ops::mean_all(ops::mul(y, y));
  });
}

TEST(Autograd, Conv2dStridedRectPad) {
  Rng rng(13);
  auto x = rand_tensor({1, 2, 6, 6}, rng);
  auto w = rand_tensor({2, 2, 1, 5}, rng);  // 1x5 horizontal kernel
  auto b = rand_tensor({2}, rng);
  expect_gradients_match({x, w, b}, [](const std::vector<Tensor>& in) {
    auto y = ops::conv2d(in[0], in[1], in[2], 1, 0, 2);
    return ops::mean_all(ops::mul(y, y));
  });
}

TEST(Autograd, ConvTranspose2d) {
  Rng rng(14);
  auto x = rand_tensor({2, 3, 3, 3}, rng);
  auto w = rand_tensor({3, 2, 2, 2}, rng);
  auto b = rand_tensor({2}, rng);
  expect_gradients_match({x, w, b}, [](const std::vector<Tensor>& in) {
    auto y = ops::conv_transpose2d(in[0], in[1], in[2], 2, 0);
    return ops::mean_all(ops::mul(y, y));
  });
}

TEST(Autograd, MaxPoolUpsample) {
  Rng rng(15);
  auto x = rand_tensor({1, 2, 4, 4}, rng);
  // Spread values so the argmax is stable under the probe epsilon.
  for (std::size_t i = 0; i < x.numel(); ++i)
    x.data()[i] += 0.3f * static_cast<float>(i % 7);
  expect_gradients_match({x}, [](const std::vector<Tensor>& in) {
    auto y = ops::maxpool2d(in[0], 2, 2);
    y = ops::upsample_nearest2x(y);
    return ops::mean_all(ops::mul(y, y));
  });
}

TEST(Autograd, BatchNormTraining) {
  Rng rng(16);
  auto x = rand_tensor({2, 2, 3, 3}, rng);
  auto gamma = rand_tensor({2}, rng);
  auto beta = rand_tensor({2}, rng);
  auto target = rand_tensor({2, 2, 3, 3}, rng);
  expect_gradients_match(
      {x, gamma, beta},
      [target](const std::vector<Tensor>& in) {
        auto rm = Tensor::zeros({2});
        auto rv = Tensor::full({2}, 1.0f);
        auto y = ops::batch_norm2d(in[0], in[1], in[2], rm, rv,
                                   /*training=*/true);
        return ops::mse_loss(y, target);
      },
      /*eps=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/8e-3f);
}

TEST(Autograd, BatchNormEval) {
  Rng rng(17);
  auto x = rand_tensor({2, 2, 3, 3}, rng);
  auto gamma = rand_tensor({2}, rng);
  auto beta = rand_tensor({2}, rng);
  auto rm = Tensor::from_data({2}, {0.2f, -0.1f});
  auto rv = Tensor::from_data({2}, {1.5f, 0.7f});
  expect_gradients_match({x, gamma, beta},
                         [&rm, &rv](const std::vector<Tensor>& in) {
                           auto y = ops::batch_norm2d(in[0], in[1], in[2],
                                                      rm, rv,
                                                      /*training=*/false);
                           return ops::mean_all(ops::mul(y, y));
                         });
}

TEST(Autograd, LayerNorm) {
  Rng rng(18);
  auto x = rand_tensor({2, 3, 4}, rng);
  auto gamma = rand_tensor({4}, rng);
  auto beta = rand_tensor({4}, rng);
  auto target = rand_tensor({2, 3, 4}, rng);
  expect_gradients_match(
      {x, gamma, beta},
      [target](const std::vector<Tensor>& in) {
        return ops::mse_loss(
            ops::layer_norm_lastdim(in[0], in[1], in[2]), target);
      },
      /*eps=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/8e-3f);
}

// Parameterized sweep: conv2d gradcheck across kernel/stride/pad combos.
struct ConvCase {
  int cin, cout, size, kernel, stride, pad;
};

class ConvSweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvSweep, GradientsMatch) {
  const auto p = GetParam();
  Rng rng(100 + p.kernel * 10 + p.stride);
  auto x = rand_tensor({1, p.cin, p.size, p.size}, rng);
  auto w = rand_tensor({p.cout, p.cin, p.kernel, p.kernel}, rng);
  auto b = rand_tensor({p.cout}, rng);
  expect_gradients_match({x, w, b}, [p](const std::vector<Tensor>& in) {
    auto y = ops::conv2d(in[0], in[1], in[2], p.stride, p.pad);
    return ops::mean_all(ops::mul(y, y));
  });
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvSweep,
    ::testing::Values(ConvCase{1, 1, 4, 1, 1, 0},   // pointwise
                      ConvCase{2, 3, 5, 3, 1, 1},   // same-size
                      ConvCase{1, 2, 6, 3, 2, 1},   // strided
                      ConvCase{2, 1, 7, 5, 1, 2},   // large kernel
                      ConvCase{3, 2, 4, 2, 2, 0},   // even kernel, stride 2
                      ConvCase{1, 1, 6, 7, 1, 3})); // kernel > eff. input

// Parameterized sweep: attention-sized bmm/softmax chains.
class AttentionShapeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(AttentionShapeSweep, ScaledDotProductGradients) {
  const auto [tq, tk, d] = GetParam();
  Rng rng(200 + tq + tk + d);
  auto q = rand_tensor({1, tq, d}, rng, 0.5f);
  auto k = rand_tensor({1, tk, d}, rng, 0.5f);
  auto v = rand_tensor({1, tk, d}, rng, 0.5f);
  expect_gradients_match(
      {q, k, v},
      [](const std::vector<Tensor>& in) {
        auto scores = ops::scale(
            ops::bmm(in[0], ops::transpose_last2(in[1])), 0.5f);
        auto y = ops::bmm(ops::softmax_lastdim(scores), in[2]);
        return ops::mean_all(ops::mul(y, y));
      },
      /*eps=*/1e-2f, /*rtol=*/8e-2f, /*atol=*/8e-3f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, AttentionShapeSweep,
                         ::testing::Values(std::make_tuple(2, 2, 4),
                                           std::make_tuple(3, 5, 4),
                                           std::make_tuple(1, 7, 6),
                                           std::make_tuple(4, 1, 2)));

TEST(Autograd, GradAccumulatesAcrossReuse) {
  // The same tensor used twice must receive the sum of both paths.
  auto a = Tensor::full({2}, 3.0f, /*requires_grad=*/true);
  auto y = ops::sum_all(ops::add(a, a));
  y.backward();
  ASSERT_EQ(a.grad().size(), 2u);
  EXPECT_FLOAT_EQ(a.grad()[0], 2.0f);
  EXPECT_FLOAT_EQ(a.grad()[1], 2.0f);
}

TEST(Autograd, NoGradGuardBuildsNoTape) {
  auto a = Tensor::full({2}, 1.0f, /*requires_grad=*/true);
  lmmir::tensor::NoGradGuard guard;
  auto y = ops::sum_all(ops::scale(a, 2.0f));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.impl()->parents.empty());
}

TEST(Autograd, BackwardRequiresScalar) {
  auto a = Tensor::full({2, 2}, 1.0f, /*requires_grad=*/true);
  auto y = ops::scale(a, 2.0f);
  EXPECT_THROW(y.backward(), std::logic_error);
}

}  // namespace
