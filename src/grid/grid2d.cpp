#include "grid/grid2d.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace lmmir::grid {

Grid2D Grid2D::from_csv(const util::CsvMatrix& m) {
  Grid2D g(m.rows, m.cols);
  g.data_ = m.values;
  return g;
}

util::CsvMatrix Grid2D::to_csv() const {
  util::CsvMatrix m;
  m.rows = rows_;
  m.cols = cols_;
  m.values = data_;
  return m;
}

float Grid2D::at_clamped(long r, long c) const {
  r = std::clamp<long>(r, 0, static_cast<long>(rows_) - 1);
  c = std::clamp<long>(c, 0, static_cast<long>(cols_) - 1);
  return data_[static_cast<std::size_t>(r) * cols_ + static_cast<std::size_t>(c)];
}

void Grid2D::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

float Grid2D::min() const {
  return data_.empty() ? 0.0f : *std::min_element(data_.begin(), data_.end());
}
float Grid2D::max() const {
  return data_.empty() ? 0.0f : *std::max_element(data_.begin(), data_.end());
}
float Grid2D::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0f);
}
float Grid2D::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

void Grid2D::accumulate(const Grid2D& other) {
  if (other.rows_ != rows_ || other.cols_ != cols_)
    throw std::invalid_argument("Grid2D::accumulate: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Grid2D::scale(float s) {
  for (auto& v : data_) v *= s;
}

Grid2D Grid2D::resized_bilinear(std::size_t new_rows,
                                std::size_t new_cols) const {
  if (new_rows == 0 || new_cols == 0)
    throw std::invalid_argument("Grid2D::resized_bilinear: zero target");
  if (empty()) throw std::invalid_argument("Grid2D::resized_bilinear: empty");
  Grid2D out(new_rows, new_cols);
  const float ry = new_rows > 1
                       ? static_cast<float>(rows_ - 1) / static_cast<float>(new_rows - 1)
                       : 0.0f;
  const float rx = new_cols > 1
                       ? static_cast<float>(cols_ - 1) / static_cast<float>(new_cols - 1)
                       : 0.0f;
  for (std::size_t r = 0; r < new_rows; ++r) {
    const float fy = static_cast<float>(r) * ry;
    const long y0 = static_cast<long>(fy);
    const float wy = fy - static_cast<float>(y0);
    for (std::size_t c = 0; c < new_cols; ++c) {
      const float fx = static_cast<float>(c) * rx;
      const long x0 = static_cast<long>(fx);
      const float wx = fx - static_cast<float>(x0);
      const float v00 = at_clamped(y0, x0);
      const float v01 = at_clamped(y0, x0 + 1);
      const float v10 = at_clamped(y0 + 1, x0);
      const float v11 = at_clamped(y0 + 1, x0 + 1);
      out.at(r, c) = v00 * (1 - wy) * (1 - wx) + v01 * (1 - wy) * wx +
                     v10 * wy * (1 - wx) + v11 * wy * wx;
    }
  }
  return out;
}

Grid2D Grid2D::padded_to(std::size_t new_rows, std::size_t new_cols,
                         float pad_value) const {
  if (new_rows < rows_ || new_cols < cols_)
    throw std::invalid_argument("Grid2D::padded_to: target smaller than grid");
  Grid2D out(new_rows, new_cols, pad_value);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out.at(r, c) = at(r, c);
  return out;
}

Grid2D Grid2D::cropped_to(std::size_t new_rows, std::size_t new_cols) const {
  if (new_rows > rows_ || new_cols > cols_)
    throw std::invalid_argument("Grid2D::cropped_to: target larger than grid");
  Grid2D out(new_rows, new_cols);
  for (std::size_t r = 0; r < new_rows; ++r)
    for (std::size_t c = 0; c < new_cols; ++c) out.at(r, c) = at(r, c);
  return out;
}

Grid2D Grid2D::normalized_minmax() const {
  Grid2D out = *this;
  const float lo = min();
  const float hi = max();
  const float span = hi - lo;
  if (span <= 0.0f) {
    out.fill(0.0f);
    return out;
  }
  for (auto& v : out.data_) v = (v - lo) / span;
  return out;
}

Grid2D Grid2D::blurred(float sigma) const {
  if (sigma <= 0.0f || empty()) return *this;
  const int radius = std::max(1, static_cast<int>(std::ceil(3.0f * sigma)));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  float ksum = 0.0f;
  for (int i = -radius; i <= radius; ++i) {
    const float w = std::exp(-0.5f * static_cast<float>(i * i) / (sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = w;
    ksum += w;
  }
  for (auto& w : kernel) w /= ksum;

  // Each tap k is accumulated across a whole row, so the inner loops are
  // unit-stride; every output still sums k = -radius..radius in order,
  // exactly as a per-pixel loop over at_clamped would.
  const std::size_t taps = kernel.size();
  const std::size_t pad = static_cast<std::size_t>(radius);
  Grid2D tmp(rows_, cols_);
  std::vector<float> padded(cols_ + 2 * pad);
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* src = data_.data() + r * cols_;
    for (std::size_t j = 0; j < padded.size(); ++j)
      padded[j] = src[std::clamp<std::size_t>(j, pad, pad + cols_ - 1) - pad];
    float* dst = tmp.data_.data() + r * cols_;
    for (std::size_t k = 0; k < taps; ++k) {
      const float w = kernel[k];
      const float* in = padded.data() + k;
      for (std::size_t c = 0; c < cols_; ++c) dst[c] += w * in[c];
    }
  }
  Grid2D out(rows_, cols_);
  const long last_row = static_cast<long>(rows_) - 1;
  for (std::size_t r = 0; r < rows_; ++r) {
    float* dst = out.data_.data() + r * cols_;
    for (std::size_t k = 0; k < taps; ++k) {
      const float w = kernel[k];
      const long src_row = std::clamp<long>(
          static_cast<long>(r + k) - radius, 0, last_row);
      const float* in = tmp.data_.data() + static_cast<std::size_t>(src_row) * cols_;
      for (std::size_t c = 0; c < cols_; ++c) dst[c] += w * in[c];
    }
  }
  return out;
}

Grid2D Grid2D::downsampled_avg(std::size_t factor) const {
  if (factor == 0) throw std::invalid_argument("downsampled_avg: factor 0");
  const std::size_t nr = (rows_ + factor - 1) / factor;
  const std::size_t nc = (cols_ + factor - 1) / factor;
  Grid2D out(nr, nc);
  for (std::size_t r = 0; r < nr; ++r)
    for (std::size_t c = 0; c < nc; ++c) {
      float acc = 0.0f;
      std::size_t n = 0;
      for (std::size_t rr = r * factor; rr < std::min(rows_, (r + 1) * factor); ++rr)
        for (std::size_t cc = c * factor; cc < std::min(cols_, (c + 1) * factor); ++cc) {
          acc += at(rr, cc);
          ++n;
        }
      out.at(r, c) = n ? acc / static_cast<float>(n) : 0.0f;
    }
  return out;
}

float mean_abs_diff(const Grid2D& a, const Grid2D& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols())
    throw std::invalid_argument("mean_abs_diff: shape mismatch");
  if (a.empty()) return 0.0f;
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    acc += std::abs(static_cast<double>(a.data()[i]) - b.data()[i]);
  return static_cast<float>(acc / static_cast<double>(a.size()));
}

}  // namespace lmmir::grid
