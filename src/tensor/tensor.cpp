#include "tensor/tensor.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace lmmir::tensor {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (int d : shape) {
    if (d < 0)
      throw std::invalid_argument("shape_numel: negative dimension in shape " +
                                  shape_to_string(shape));
    const auto ud = static_cast<std::size_t>(d);
    if (ud != 0 && n > std::numeric_limits<std::size_t>::max() / ud)
      throw std::invalid_argument("shape_numel: element count overflows for " +
                                  shape_to_string(shape));
    n *= ud;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ',';
    os << shape[i];
  }
  os << ']';
  return os.str();
}

bool same_shape(const Shape& a, const Shape& b) { return a == b; }

namespace {
thread_local bool g_grad_enabled = true;
}

NoGradGuard::NoGradGuard() : saved_(g_grad_enabled) { g_grad_enabled = false; }
NoGradGuard::~NoGradGuard() { g_grad_enabled = saved_; }

bool grad_enabled() { return g_grad_enabled; }

Tensor Tensor::zeros(const Shape& shape, bool requires_grad) {
  return full(shape, 0.0f, requires_grad);
}

Tensor Tensor::full(const Shape& shape, float value, bool requires_grad) {
  return from_data(shape, std::vector<float>(shape_numel(shape), value),
                   requires_grad);
}

Tensor Tensor::from_data(const Shape& shape, std::vector<float> data,
                         bool requires_grad) {
  // shape_numel rejects negative dimensions and overflowing counts.
  const std::size_t expected = shape_numel(shape);
  if (data.size() != expected)
    throw std::invalid_argument("Tensor::from_data: size mismatch, shape " +
                                shape_to_string(shape) + " needs " +
                                std::to_string(expected) + " values, got " +
                                std::to_string(data.size()));
  std::shared_ptr<TensorImpl> impl;
  if (requires_grad) {
    // Parameters and leaf variables are never plan constants.
    impl = std::make_shared<TensorImpl>();
    impl->shape = shape;
    impl->data = std::move(data);
  } else {
    impl = detail::make_node(shape, std::move(data));
    // A from_data tensor has no producing op: tell the plan recorder (if
    // one is observing this thread) to claim it as a constant.
    if (detail::NodeHook h = detail::node_hook()) h(impl, /*leaf=*/true);
  }
  impl->requires_grad = requires_grad;
  return Tensor(std::move(impl));
}

Tensor Tensor::randn(const Shape& shape, util::Rng& rng, float stddev,
                     bool requires_grad) {
  return from_data(shape, rng.normal_vec(shape_numel(shape), 0.0f, stddev),
                   requires_grad);
}

int Tensor::dim(int i) const {
  const int n = ndim();
  const int norm = i < 0 ? i + n : i;
  if (norm < 0 || norm >= n)
    throw std::out_of_range("Tensor::dim: axis " + std::to_string(i) +
                            " out of range for " + std::to_string(n) +
                            "-d tensor " + shape_to_string(impl_->shape));
  return impl_->shape[static_cast<std::size_t>(norm)];
}

float Tensor::item() const {
  if (numel() != 1)
    throw std::logic_error("Tensor::item: tensor has " +
                           std::to_string(numel()) + " elements");
  return impl_->data[0];
}

void Tensor::backward() {
  if (numel() != 1)
    throw std::logic_error("Tensor::backward: output must be scalar");

  // Topological order by iterative DFS.
  std::vector<TensorImpl*> order;
  std::unordered_set<TensorImpl*> visited;
  std::vector<std::pair<TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      TensorImpl* p = node->parents[next++].get();
      if (!visited.count(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->grad.assign(1, 1.0f);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    TensorImpl* node = *it;
    if (node->backward_fn && !node->grad.empty()) node->backward_fn();
  }
}

void Tensor::zero_grad() { impl_->grad.clear(); }

Tensor Tensor::detach() const {
  return Tensor::from_data(impl_->shape, impl_->data, false);
}

namespace detail {

namespace {
thread_local NodeHook g_node_hook = nullptr;
}

void set_node_hook(NodeHook hook) { g_node_hook = hook; }
NodeHook node_hook() { return g_node_hook; }

std::shared_ptr<TensorImpl> make_node(Shape shape, std::vector<float> data) {
  if (data.size() != shape_numel(shape))
    throw std::invalid_argument("make_node: size mismatch");
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->data = std::move(data);
  if (NodeHook h = g_node_hook) h(impl, /*leaf=*/false);
  return impl;
}

bool needs_grad(std::initializer_list<const Tensor*> inputs) {
  if (!grad_enabled()) return false;
  for (const Tensor* t : inputs)
    if (t->defined() && t->requires_grad()) return true;
  return false;
}

void accumulate_grad(TensorImpl& dst, const std::vector<float>& src) {
  if (src.size() != dst.data.size())
    throw std::logic_error("accumulate_grad: size mismatch");
  dst.ensure_grad();
  for (std::size_t i = 0; i < src.size(); ++i) dst.grad[i] += src[i];
}

}  // namespace detail

}  // namespace lmmir::tensor
