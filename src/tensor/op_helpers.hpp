#pragma once
// Internal helpers shared by the op translation units. Not part of the
// public API.
#include <functional>
#include <initializer_list>
#include <stdexcept>
#include <string>

#include "tensor/tensor.hpp"

namespace lmmir::tensor::ophelp {

inline void check_same_shape(const Tensor& a, const Tensor& b,
                             const char* op) {
  if (!same_shape(a.shape(), b.shape()))
    throw std::invalid_argument(std::string(op) + ": shape mismatch " +
                                shape_to_string(a.shape()) + " vs " +
                                shape_to_string(b.shape()));
}

/// Wire autograd edges onto `out`. Call only when needs_grad(...) is true.
inline void attach(const std::shared_ptr<TensorImpl>& out,
                   std::initializer_list<Tensor> parents,
                   std::function<void()> backward) {
  out->requires_grad = true;
  for (const auto& p : parents)
    if (p.defined()) out->parents.push_back(p.impl());
  out->backward_fn = std::move(backward);
}

/// C[M,N] += A[M,K] * B[K,N]   (row-major, ikj loop order for locality)
inline void gemm_acc(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C[M,N] += A[K,M]ᵀ * B[K,N]
inline void gemm_at_b_acc(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * m;
    const float* brow = b + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// C[M,K] += A[M,N] * B[K,N]ᵀ
inline void gemm_a_bt_acc(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * n;
    float* crow = c + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * n;
      float acc = 0.0f;
      for (std::size_t j = 0; j < n; ++j) acc += arow[j] * brow[j];
      crow[kk] += acc;
    }
  }
}

}  // namespace lmmir::tensor::ophelp
