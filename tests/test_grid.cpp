// grid::Grid2D: geometry ops, resampling, normalization, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "grid/grid2d.hpp"

namespace {

using lmmir::grid::Grid2D;
using lmmir::grid::mean_abs_diff;

Grid2D ramp(std::size_t rows, std::size_t cols) {
  Grid2D g(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      g.at(r, c) = static_cast<float>(r * cols + c);
  return g;
}

TEST(Grid, BasicStats) {
  Grid2D g = ramp(3, 4);
  EXPECT_FLOAT_EQ(g.min(), 0.0f);
  EXPECT_FLOAT_EQ(g.max(), 11.0f);
  EXPECT_FLOAT_EQ(g.sum(), 66.0f);
  EXPECT_FLOAT_EQ(g.mean(), 5.5f);
}

TEST(Grid, ClampedAccess) {
  Grid2D g = ramp(2, 2);
  EXPECT_FLOAT_EQ(g.at_clamped(-5, -5), g.at(0, 0));
  EXPECT_FLOAT_EQ(g.at_clamped(10, 10), g.at(1, 1));
}

TEST(Grid, AccumulateAndScale) {
  Grid2D a = ramp(2, 2);
  Grid2D b = ramp(2, 2);
  a.accumulate(b);
  a.scale(0.5f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 3.0f);
  Grid2D c(3, 3);
  EXPECT_THROW(a.accumulate(c), std::invalid_argument);
}

TEST(Grid, ResizeIdentity) {
  Grid2D g = ramp(4, 4);
  Grid2D same = g.resized_bilinear(4, 4);
  EXPECT_NEAR(mean_abs_diff(g, same), 0.0f, 1e-6f);
}

TEST(Grid, ResizeUpPreservesCorners) {
  Grid2D g = ramp(3, 3);
  Grid2D up = g.resized_bilinear(9, 9);
  EXPECT_NEAR(up.at(0, 0), g.at(0, 0), 1e-5f);
  EXPECT_NEAR(up.at(8, 8), g.at(2, 2), 1e-5f);
}

TEST(Grid, ResizeConstantStaysConstant) {
  Grid2D g(5, 7, 3.25f);
  Grid2D r = g.resized_bilinear(13, 3);
  EXPECT_FLOAT_EQ(r.min(), 3.25f);
  EXPECT_FLOAT_EQ(r.max(), 3.25f);
}

TEST(Grid, PadAndCropRoundTrip) {
  Grid2D g = ramp(3, 5);
  Grid2D padded = g.padded_to(8, 8, -1.0f);
  EXPECT_FLOAT_EQ(padded.at(7, 7), -1.0f);
  EXPECT_FLOAT_EQ(padded.at(2, 4), g.at(2, 4));
  Grid2D back = padded.cropped_to(3, 5);
  EXPECT_NEAR(mean_abs_diff(g, back), 0.0f, 1e-7f);
}

TEST(Grid, PadRejectsShrink) {
  Grid2D g = ramp(4, 4);
  EXPECT_THROW(g.padded_to(2, 8), std::invalid_argument);
  EXPECT_THROW(g.cropped_to(8, 2), std::invalid_argument);
}

TEST(Grid, NormalizeMinMax) {
  Grid2D g = ramp(2, 3);
  Grid2D n = g.normalized_minmax();
  EXPECT_FLOAT_EQ(n.min(), 0.0f);
  EXPECT_FLOAT_EQ(n.max(), 1.0f);
  Grid2D constant(2, 2, 5.0f);
  EXPECT_FLOAT_EQ(constant.normalized_minmax().max(), 0.0f);
}

TEST(Grid, BlurPreservesMassApproximately) {
  Grid2D g(9, 9, 0.0f);
  g.at(4, 4) = 100.0f;
  Grid2D b = g.blurred(1.0f);
  EXPECT_NEAR(b.sum(), 100.0f, 1.0f);  // interior impulse: mass preserved
  EXPECT_LT(b.max(), 100.0f);          // and spread out
}

// Grid2D::blurred as a per-pixel loop over at_clamped: the order of
// operations the row-wise implementation must reproduce bit for bit.
Grid2D reference_blurred(const Grid2D& g, float sigma) {
  if (sigma <= 0.0f) return g;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  float ksum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    const float w = std::exp(-0.5f * static_cast<float>(i * i) / (sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = w;
    ksum += w;
  }
  for (auto& w : kernel) w /= ksum;

  Grid2D tmp(g.rows(), g.cols());
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c) {
      float acc = 0.0f;
      for (int k = -radius; k <= radius; ++k)
        acc += kernel[static_cast<std::size_t>(k + radius)] *
               g.at_clamped(static_cast<long>(r), static_cast<long>(c) + k);
      tmp.at(r, c) = acc;
    }
  Grid2D out(g.rows(), g.cols());
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c) {
      float acc = 0.0f;
      for (int k = -radius; k <= radius; ++k)
        acc += kernel[static_cast<std::size_t>(k + radius)] *
               tmp.at_clamped(static_cast<long>(r) + k, static_cast<long>(c));
      out.at(r, c) = acc;
    }
  return out;
}

TEST(Grid, BlurMatchesReferenceBitwise) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {209, 209}, {45, 57}, {5, 3}, {1, 1}, {9, 9}, {300, 17}};
  std::mt19937 gen(0xB1u);
  std::uniform_real_distribution<float> value(-1.0f, 4.0f);
  for (const auto& [rows, cols] : shapes)
    for (float sigma : {0.4f, 1.0f, 2.5f, 6.53f}) {
      Grid2D g(rows, cols);
      for (auto& v : g.data()) v = value(gen);
      g.at(rows / 2, cols / 2) = 1e3f;  // one spike far above the rest
      const Grid2D got = g.blurred(sigma);
      const Grid2D want = reference_blurred(g, sigma);
      ASSERT_EQ(got.rows(), rows);
      ASSERT_EQ(got.cols(), cols);
      EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                            want.size() * sizeof(float)),
                0)
          << rows << "x" << cols << " sigma " << sigma;
    }
}

TEST(Grid, DownsampleAverage) {
  Grid2D g(4, 4, 2.0f);
  Grid2D d = g.downsampled_avg(2);
  EXPECT_EQ(d.rows(), 2u);
  EXPECT_EQ(d.cols(), 2u);
  EXPECT_FLOAT_EQ(d.at(0, 0), 2.0f);
}

TEST(Grid, CsvRoundTrip) {
  Grid2D g = ramp(3, 2);
  Grid2D back = Grid2D::from_csv(g.to_csv());
  EXPECT_NEAR(mean_abs_diff(g, back), 0.0f, 1e-7f);
}

class ResizeRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ResizeRoundTrip, DownUpKeepsSmoothFields) {
  const auto [rows, cols] = GetParam();
  Grid2D g(static_cast<std::size_t>(rows), static_cast<std::size_t>(cols));
  for (std::size_t r = 0; r < g.rows(); ++r)
    for (std::size_t c = 0; c < g.cols(); ++c)
      g.at(r, c) = std::sin(0.2f * static_cast<float>(r)) +
                   std::cos(0.15f * static_cast<float>(c));
  Grid2D small = g.resized_bilinear(g.rows() / 2 + 1, g.cols() / 2 + 1);
  Grid2D back = small.resized_bilinear(g.rows(), g.cols());
  EXPECT_LT(mean_abs_diff(g, back), 0.05f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ResizeRoundTrip,
                         ::testing::Values(std::make_pair(16, 16),
                                           std::make_pair(31, 17),
                                           std::make_pair(64, 40),
                                           std::make_pair(9, 33)));

}  // namespace
