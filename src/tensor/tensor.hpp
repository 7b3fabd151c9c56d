#pragma once
// Minimal dense float tensor with tape-based reverse-mode autograd.
//
// This is the training substrate standing in for PyTorch (the paper trains
// with PyTorch 2.1 on an H100; this host is one CPU core).  Design choices:
//  - value-semantics `Tensor` handle over a shared `TensorImpl`;
//  - ops are free functions that record a backward closure on the output
//    node; `backward()` runs a topological sweep;
//  - closures are only recorded when gradients can flow (any input requires
//    grad and grad mode is enabled), so inference builds no tape;
//  - every node owns its storage (docs/TENSOR.md); inference replays a
//    recorded plan over one preplanned buffer instead (tensor/plan.hpp).
#include <cstddef>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace lmmir::tensor {

using Shape = std::vector<int>;

std::size_t shape_numel(const Shape& shape);
std::string shape_to_string(const Shape& shape);
bool same_shape(const Shape& a, const Shape& b);

struct TensorImpl {
  Shape shape;
  std::vector<float> data;
  std::vector<float> grad;  // empty until first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorImpl>> parents;
  std::function<void()> backward_fn;  // pulls this->grad into parents

  std::size_t numel() const { return data.size(); }
  void ensure_grad() {
    if (grad.size() != data.size()) grad.assign(data.size(), 0.0f);
  }
};

/// RAII guard disabling tape recording (inference / metric evaluation).
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool saved_;
};

/// True when ops should record backward closures.
bool grad_enabled();

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  static Tensor zeros(const Shape& shape, bool requires_grad = false);
  static Tensor full(const Shape& shape, float value,
                     bool requires_grad = false);
  static Tensor from_data(const Shape& shape, std::vector<float> data,
                          bool requires_grad = false);
  static Tensor randn(const Shape& shape, util::Rng& rng, float stddev = 1.0f,
                      bool requires_grad = false);

  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const { return impl_->shape; }
  int ndim() const { return static_cast<int>(impl_->shape.size()); }
  /// dim(-1) is the last dimension.
  int dim(int i) const;
  std::size_t numel() const { return impl_->data.size(); }

  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& data() { return impl_->data; }
  const std::vector<float>& grad() const { return impl_->grad; }

  bool requires_grad() const { return impl_->requires_grad; }
  void set_requires_grad(bool v) { impl_->requires_grad = v; }

  /// Value of a 0-d/1-element tensor.
  float item() const;

  /// Run reverse-mode autodiff from this scalar output.
  /// Throws std::logic_error when called on a non-scalar.
  void backward();

  void zero_grad();

  /// Graph-free copy sharing nothing with the original.
  Tensor detach() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

namespace detail {

/// Allocate a plain output node (no autograd edges yet).
std::shared_ptr<TensorImpl> make_node(Shape shape, std::vector<float> data);

/// Thread-local observation hook for plan recording (tensor/plan.hpp):
/// invoked for every node make_node hands out on this thread
/// (leaf=false), and a second time with leaf=true for tensors
/// Tensor::from_data materializes without autograd — the recorder claims
/// those as shape-dependent constants.  nullptr (the default) disables
/// observation; the hot path pays one thread-local load.
using NodeHook = void (*)(const std::shared_ptr<TensorImpl>& node, bool leaf);
void set_node_hook(NodeHook hook);
NodeHook node_hook();

/// True if gradients can flow from any of the inputs.
bool needs_grad(std::initializer_list<const Tensor*> inputs);

/// Accumulate `src` into the (lazily allocated) grad buffer of `dst`.
void accumulate_grad(TensorImpl& dst, const std::vector<float>& src);

}  // namespace detail

}  // namespace lmmir::tensor
