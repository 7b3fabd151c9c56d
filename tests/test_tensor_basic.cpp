// tensor: construction, shape handling, forward-value semantics of ops.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace {

using lmmir::tensor::Shape;
using lmmir::tensor::Tensor;
using lmmir::util::Rng;
namespace ops = lmmir::tensor;

TEST(Tensor, ConstructionAndAccess) {
  auto z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6u);
  EXPECT_EQ(z.ndim(), 2);
  EXPECT_EQ(z.dim(0), 2);
  EXPECT_EQ(z.dim(-1), 3);
  EXPECT_THROW(z.dim(5), std::out_of_range);

  auto f = Tensor::full({4}, 2.5f);
  EXPECT_FLOAT_EQ(f.data()[3], 2.5f);

  EXPECT_THROW(Tensor::from_data({2, 2}, {1.0f}), std::invalid_argument);
}

TEST(Tensor, FromDataValidatesShapeDataAgreement) {
  // Too few and too many values must both fail with a message naming the
  // shape and both counts.
  try {
    Tensor::from_data({2, 3}, {1.0f, 2.0f});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("[2,3]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("6"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2"), std::string::npos) << msg;
  }
  EXPECT_THROW(Tensor::from_data({2}, {1.0f, 2.0f, 3.0f}),
               std::invalid_argument);

  // Negative dimensions are rejected up front (not folded into numel).
  try {
    Tensor::from_data({2, -3}, {1.0f, 2.0f});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(Tensor::zeros({-1}), std::invalid_argument);
  EXPECT_THROW(Tensor::full({3, -2}, 1.0f), std::invalid_argument);

  // A zero dim is legal: empty tensor, empty data.
  const Tensor empty = Tensor::from_data({0, 4}, {});
  EXPECT_EQ(empty.numel(), 0u);

  // Overflowing element counts must throw, not wrap.
  const int big = std::numeric_limits<int>::max();
  EXPECT_THROW(Tensor::from_data({big, big, big}, {1.0f}),
               std::invalid_argument);
}

TEST(Tensor, DimValidatesNegativeIndexBounds) {
  const Tensor t = Tensor::zeros({4, 5, 6});
  EXPECT_EQ(t.dim(-1), 6);
  EXPECT_EQ(t.dim(-3), 4);
  EXPECT_THROW(t.dim(3), std::out_of_range);
  EXPECT_THROW(t.dim(-4), std::out_of_range);
  // The message names the requested axis and the rank.
  try {
    t.dim(-4);
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("-4"), std::string::npos) << msg;
    EXPECT_NE(msg.find("3-d"), std::string::npos) << msg;
  }

  // 0-d scalar: every axis is out of range.
  const Tensor scalar = Tensor::from_data({}, {1.0f});
  EXPECT_EQ(scalar.numel(), 1u);
  EXPECT_THROW(scalar.dim(0), std::out_of_range);
  EXPECT_THROW(scalar.dim(-1), std::out_of_range);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_FLOAT_EQ(Tensor::full({1}, 7.0f).item(), 7.0f);
  EXPECT_THROW(Tensor::zeros({2}).item(), std::logic_error);
}

TEST(Tensor, DetachSharesNothing) {
  auto a = Tensor::full({2}, 1.0f, true);
  auto d = a.detach();
  d.data()[0] = 99.0f;
  EXPECT_FLOAT_EQ(a.data()[0], 1.0f);
  EXPECT_FALSE(d.requires_grad());
}

TEST(Ops, AddSubMulValues) {
  auto a = Tensor::from_data({3}, {1, 2, 3});
  auto b = Tensor::from_data({3}, {10, 20, 30});
  EXPECT_FLOAT_EQ(ops::add(a, b).data()[2], 33.0f);
  EXPECT_FLOAT_EQ(ops::sub(b, a).data()[0], 9.0f);
  EXPECT_FLOAT_EQ(ops::mul(a, b).data()[1], 40.0f);
  EXPECT_THROW(ops::add(a, Tensor::zeros({2})), std::invalid_argument);
}

TEST(Ops, SoftmaxRowsSumToOne) {
  Rng rng(3);
  auto x = Tensor::randn({4, 7}, rng);
  auto y = ops::softmax_lastdim(x);
  for (int r = 0; r < 4; ++r) {
    float sum = 0;
    for (int c = 0; c < 7; ++c) sum += y.data()[static_cast<std::size_t>(r * 7 + c)];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Ops, SoftmaxStableForLargeInputs) {
  auto x = Tensor::from_data({1, 3}, {1000.0f, 1000.0f, 1000.0f});
  auto y = ops::softmax_lastdim(x);
  for (float v : y.data()) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-5f);
}

TEST(Ops, MatmulKnownValues) {
  auto a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  auto b = Tensor::from_data({2, 2}, {5, 6, 7, 8});
  auto c = ops::matmul(a, b);
  EXPECT_FLOAT_EQ(c.data()[0], 19.0f);
  EXPECT_FLOAT_EQ(c.data()[1], 22.0f);
  EXPECT_FLOAT_EQ(c.data()[2], 43.0f);
  EXPECT_FLOAT_EQ(c.data()[3], 50.0f);
}

TEST(Ops, LinearMatchesManual) {
  auto x = Tensor::from_data({1, 3}, {1, 2, 3});
  auto w = Tensor::from_data({2, 3}, {1, 0, 0, 0, 1, 1});  // rows: picks x0; x1+x2
  auto b = Tensor::from_data({2}, {0.5f, -0.5f});
  auto y = ops::linear(x, w, b);
  EXPECT_FLOAT_EQ(y.data()[0], 1.5f);
  EXPECT_FLOAT_EQ(y.data()[1], 4.5f);
  // Undefined bias skips the add.
  auto y2 = ops::linear(x, w, Tensor());
  EXPECT_FLOAT_EQ(y2.data()[0], 1.0f);
}

TEST(Ops, Conv2dIdentityKernel) {
  Rng rng(5);
  auto x = Tensor::randn({1, 1, 4, 4}, rng);
  auto w = Tensor::from_data({1, 1, 1, 1}, {1.0f});
  auto y = ops::conv2d(x, w, Tensor(), 1, 0);
  for (std::size_t i = 0; i < x.numel(); ++i)
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
}

TEST(Ops, Conv2dAveragingKernel) {
  auto x = Tensor::full({1, 1, 3, 3}, 2.0f);
  auto w = Tensor::full({1, 1, 3, 3}, 1.0f / 9.0f);
  auto y = ops::conv2d(x, w, Tensor(), 1, 0);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_NEAR(y.item(), 2.0f, 1e-5f);
}

TEST(Ops, Conv2dOutputShapes) {
  Rng rng(6);
  auto x = Tensor::randn({2, 3, 8, 8}, rng);
  auto w = Tensor::randn({5, 3, 3, 3}, rng);
  auto y = ops::conv2d(x, w, Tensor(), 2, 1);
  EXPECT_EQ(y.shape(), (Shape{2, 5, 4, 4}));
  EXPECT_THROW(ops::conv2d(x, Tensor::randn({5, 4, 3, 3}, rng), Tensor(), 1, 1),
               std::invalid_argument);
}

TEST(Ops, Conv2dOneByOneKernelMixesChannels) {
  // 1x1 conv is a pure per-pixel channel mix: no spatial gathering, so
  // the output at every pixel is the weighted channel sum at that pixel.
  auto x = Tensor::from_data({1, 2, 2, 2}, {1, 2, 3, 4,     // channel 0
                                            10, 20, 30, 40});  // channel 1
  auto w = Tensor::from_data({1, 2, 1, 1}, {2.0f, 0.5f});
  auto y = ops::conv2d(x, w, Tensor(), 1, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], 2.0f * 1 + 0.5f * 10);
  EXPECT_FLOAT_EQ(y.data()[3], 2.0f * 4 + 0.5f * 40);
  // Strided 1x1 subsamples the grid.
  auto ys = ops::conv2d(x, w, Tensor(), 2, 0);
  EXPECT_EQ(ys.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(ys.data()[0], 2.0f * 1 + 0.5f * 10);
}

TEST(Ops, Conv2dStrideLargerThanKernelSkipsPixels) {
  // stride 3 with a 1x1 kernel reads only every third pixel; the skipped
  // ones must not leak into any output element.
  std::vector<float> vals(25);
  for (int i = 0; i < 25; ++i) vals[static_cast<std::size_t>(i)] = float(i);
  auto x = Tensor::from_data({1, 1, 5, 5}, std::move(vals));
  auto w = Tensor::from_data({1, 1, 1, 1}, {1.0f});
  auto y = ops::conv2d(x, w, Tensor(), 3, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], 0.0f);   // (0,0)
  EXPECT_FLOAT_EQ(y.data()[1], 3.0f);   // (0,3)
  EXPECT_FLOAT_EQ(y.data()[2], 15.0f);  // (3,0)
  EXPECT_FLOAT_EQ(y.data()[3], 18.0f);  // (3,3)
}

TEST(Ops, ConvTransposeInvertsStride2Shape) {
  Rng rng(7);
  auto x = Tensor::randn({1, 4, 5, 5}, rng);
  auto w = Tensor::randn({4, 2, 2, 2}, rng);
  auto y = ops::conv_transpose2d(x, w, Tensor(), 2, 0);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 10, 10}));
}

TEST(Ops, MaxPoolValuesAndShape) {
  auto x = Tensor::from_data({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  auto y = ops::maxpool2d(x, 2, 2);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y.data()[0], 5.0f);
  EXPECT_FLOAT_EQ(y.data()[1], 8.0f);
}

TEST(Ops, UpsampleNearestValues) {
  auto x = Tensor::from_data({1, 1, 1, 2}, {1, 2});
  auto y = ops::upsample_nearest2x(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2, 4}));
  EXPECT_FLOAT_EQ(y.data()[0], 1.0f);
  EXPECT_FLOAT_EQ(y.data()[3], 2.0f);
}

TEST(Ops, ConcatAndSliceValues) {
  auto a = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  auto b = Tensor::from_data({2, 1}, {9, 8});
  auto cat = ops::concat(a, b, 1);
  EXPECT_EQ(cat.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(cat.data()[2], 9.0f);
  EXPECT_FLOAT_EQ(cat.data()[5], 8.0f);
  auto back = ops::slice_axis(cat, 1, 0, 2);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(back.data()[i], a.data()[i]);
  EXPECT_THROW(ops::slice_axis(cat, 1, 2, 5), std::invalid_argument);
}

TEST(Ops, BatchNormNormalizesTrainingBatch) {
  Rng rng(8);
  auto x = Tensor::randn({4, 2, 3, 3}, rng, 3.0f);
  auto gamma = Tensor::full({2}, 1.0f);
  auto beta = Tensor::zeros({2});
  auto rm = Tensor::zeros({2});
  auto rv = Tensor::full({2}, 1.0f);
  auto y = ops::batch_norm2d(x, gamma, beta, rm, rv, true);
  // Per-channel mean ~0, var ~1 after normalization.
  for (int c = 0; c < 2; ++c) {
    double mean = 0.0, var = 0.0;
    std::size_t n = 0;
    for (int b = 0; b < 4; ++b)
      for (int i = 0; i < 9; ++i) {
        const float v =
            y.data()[static_cast<std::size_t>(((b * 2 + c) * 9) + i)];
        mean += v;
        ++n;
      }
    mean /= static_cast<double>(n);
    for (int b = 0; b < 4; ++b)
      for (int i = 0; i < 9; ++i) {
        const double v =
            y.data()[static_cast<std::size_t>(((b * 2 + c) * 9) + i)] - mean;
        var += v * v;
      }
    var /= static_cast<double>(n);
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
  // Running stats moved off their initial values.
  EXPECT_NE(rm.data()[0], 0.0f);
}

TEST(Ops, LayerNormRowsNormalized) {
  Rng rng(9);
  auto x = Tensor::randn({3, 8}, rng, 5.0f);
  auto y = ops::layer_norm_lastdim(x, Tensor::full({8}, 1.0f),
                                   Tensor::zeros({8}));
  for (int r = 0; r < 3; ++r) {
    double mean = 0;
    for (int c = 0; c < 8; ++c) mean += y.data()[static_cast<std::size_t>(r * 8 + c)];
    EXPECT_NEAR(mean / 8.0, 0.0, 1e-4);
  }
}

TEST(Ops, LayerNormSingleRowBatch) {
  // batch = 1: exactly one row is normalized; gamma/beta still apply.
  auto x = Tensor::from_data({1, 4}, {2, 4, 6, 8});
  auto y = ops::layer_norm_lastdim(x, Tensor::full({4}, 2.0f),
                                   Tensor::full({4}, 1.0f));
  ASSERT_EQ(y.shape(), (Shape{1, 4}));
  // The normalized row has mean 0, so after gamma=2 / beta=1 the output
  // mean is exactly beta.
  double mean = 0.0;
  for (int i = 0; i < 4; ++i) mean += y.data()[static_cast<std::size_t>(i)];
  EXPECT_NEAR(mean / 4.0, 1.0, 1e-4);
  // Symmetric input: the outer elements sit at +/- the same normalized
  // distance.
  EXPECT_NEAR(y.data()[0] + y.data()[3], 2.0f, 1e-4f);
  EXPECT_LT(y.data()[0], y.data()[1]);
}

TEST(Ops, DropoutTrainVsEval) {
  Rng rng(10);
  auto x = Tensor::full({1000}, 1.0f);
  Rng drop_rng(11);
  auto train_out = ops::dropout(x, 0.5f, drop_rng, true);
  std::size_t zeros = 0;
  for (float v : train_out.data())
    if (v == 0.0f) ++zeros;
  EXPECT_GT(zeros, 300u);
  EXPECT_LT(zeros, 700u);
  // Survivors are scaled by 1/(1-p).
  for (float v : train_out.data())
    if (v != 0.0f) EXPECT_FLOAT_EQ(v, 2.0f);
  auto eval_out = ops::dropout(x, 0.5f, drop_rng, false);
  for (float v : eval_out.data()) EXPECT_FLOAT_EQ(v, 1.0f);
  EXPECT_THROW(ops::dropout(x, 1.0f, drop_rng, true), std::invalid_argument);
}

TEST(Ops, ReductionValues) {
  auto x = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(ops::sum_all(x).item(), 10.0f);
  EXPECT_FLOAT_EQ(ops::mean_all(x).item(), 2.5f);
  auto t = Tensor::from_data({2, 2}, {1, 2, 3, 5});
  EXPECT_NEAR(ops::mse_loss(x, t).item(), 0.25f, 1e-6f);
  EXPECT_NEAR(ops::l1_loss(x, t).item(), 0.25f, 1e-6f);
}

// ---- NoGradGuard semantics ----------------------------------------------

TEST(NoGradGuard, NestingRestoresCorrectly) {
  ASSERT_TRUE(ops::grad_enabled());
  {
    ops::NoGradGuard outer;
    EXPECT_FALSE(ops::grad_enabled());
    {
      ops::NoGradGuard inner;
      EXPECT_FALSE(ops::grad_enabled());
    }
    // The inner guard must restore the *outer guard's* state, not the
    // default: still disabled here.
    EXPECT_FALSE(ops::grad_enabled());
  }
  EXPECT_TRUE(ops::grad_enabled());
}

TEST(NoGradGuard, ThreadLocalAcrossPoolWorkers) {
  lmmir::runtime::ThreadPool pool(2);
  ops::NoGradGuard no_grad;  // disables grad on THIS thread only
  ASSERT_FALSE(ops::grad_enabled());

  // A pool worker starts with its own thread-local default: enabled.
  auto fut = pool.submit([] {
    EXPECT_TRUE(ops::grad_enabled());
    // A guard taken on the worker is scoped to the worker.
    ops::NoGradGuard worker_guard;
    EXPECT_FALSE(ops::grad_enabled());
  });
  fut.get();

  // Neither the worker's default nor its guard leaked into the caller.
  EXPECT_FALSE(ops::grad_enabled());
  auto fut2 = pool.submit([] { EXPECT_TRUE(ops::grad_enabled()); });
  fut2.get();
}

TEST(NoGradGuard, OpsRecordNoTapeUnderGuard) {
  Tensor w = Tensor::full({2, 2}, 0.5f, /*requires_grad=*/true);
  ops::NoGradGuard no_grad;
  Tensor y = ops::mul(w, w);
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.impl()->parents.empty());
}

}  // namespace
