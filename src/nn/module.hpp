#pragma once
// Module system: a lightweight torch.nn.Module analogue.  Concrete modules
// own their sub-modules as ordinary members and register them (plus their
// parameters and stat buffers) in the constructor, giving recursive
// parameter collection and checkpoint serialization by hierarchical name.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace lmmir::nn {

using tensor::Tensor;

struct NamedParam {
  std::string name;
  Tensor tensor;
};

/// Non-parameter state carried by a module (e.g. batch-norm running stats).
struct NamedBuffer {
  std::string name;
  std::vector<float>* values;  // non-owning; lives in the module
};

class Module {
 public:
  Module() = default;
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All parameters of this module and its registered children, with
  /// hierarchical dotted names ("encoder.block1.conv.weight").
  std::vector<NamedParam> named_parameters() const;
  std::vector<Tensor> parameters() const;
  std::vector<NamedBuffer> named_buffers() const;

  /// Total learnable scalar count.
  std::size_t parameter_count() const;

  /// Switch training mode (recursively). Affects batch norm / dropout.
  void set_training(bool training);
  bool training() const { return training_; }

  void zero_grad();

 protected:
  /// Register and return a parameter tensor (requires_grad is forced on).
  Tensor register_parameter(const std::string& name, Tensor t);
  void register_buffer(const std::string& name, std::vector<float>* values);
  void register_module(const std::string& name, Module* child);

 private:
  void collect_params(const std::string& prefix,
                      std::vector<NamedParam>& out) const;
  void collect_buffers(const std::string& prefix,
                       std::vector<NamedBuffer>& out) const;

  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, std::vector<float>*>> buffers_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

/// A module with the standard single-tensor forward signature; Sequential
/// and most layers model this.
///
/// Forward contract: a layer may hold parameters and buffer state (e.g.
/// batch-norm running stats) but must NOT cache input/output tensors
/// across forward calls — a recorded inference plan (tensor/plan.hpp)
/// reads every tensor that predates the forward as a live constant, so
/// state carried from one forward into the next would freeze at record
/// time.
class Layer : public Module {
 public:
  virtual Tensor forward(const Tensor& x) = 0;
};

}  // namespace lmmir::nn
