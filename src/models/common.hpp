#pragma once
// Shared model interface.  Every predictor (LMM-IR and the four baselines)
// maps a circuit-feature image (and optionally netlist tokens) to an
// IR-drop map, so benchmarks and the trainer treat them uniformly.
#include <string>

#include "nn/module.hpp"
#include "tensor/plan.hpp"

namespace lmmir::models {

using nn::Tensor;

/// The capability axes of the paper's Table I.
struct Capabilities {
  bool full_netlist = false;       // consumes the raw netlist (point cloud)
  bool multimodal_fusion = false;  // fuses netlist + circuit modalities
  bool extra_features = false;     // uses channels beyond the contest three
  bool global_attention = false;   // any global attention mechanism
};

class IrModel : public nn::Module {
 public:
  /// circuit: [N, in_channels, S, S]; tokens: [N, T, pc::kTokenFeatureDim]
  /// (pass an undefined tensor for single-modality models).
  /// Returns the predicted IR-drop map [N, 1, S, S].
  virtual Tensor forward(const Tensor& circuit, const Tensor& tokens) = 0;

  /// Inference entry point, under NoGradGuard.  In eval mode it goes
  /// through the model's PlanRuntime: the first call per input shape
  /// records an ahead-of-time InferencePlan during an eager forward and
  /// later calls replay it, bitwise identical to forward() (docs/PLAN.md).
  /// Plans read weights and batch-norm running stats live, so optimizer
  /// steps and checkpoint loads need no invalidation.  In training mode
  /// (batch statistics, active dropout) it runs the eager forward and
  /// records nothing.  Used by trainer evaluation and both servers;
  /// training code calls forward() directly.
  Tensor predict(const Tensor& circuit, const Tensor& tokens) {
    tensor::NoGradGuard no_grad;
    if (training()) return forward(circuit, tokens);
    return plan_runtime_.run(circuit, tokens,
                             [this](const Tensor& c, const Tensor& t) {
                               return forward(c, t);
                             });
  }

  /// The per-model plan cache behind predict(), for tests and tools that
  /// inspect recording outcomes (stats, plan_for).  Module is
  /// non-copyable, so per-instance state here is safe.
  tensor::plan::PlanRuntime& plan_runtime() { return plan_runtime_; }

  virtual std::string name() const = 0;
  virtual Capabilities capabilities() const = 0;
  /// How many circuit channels the model consumes (3 = contest features
  /// only, feat::kChannelCount = with the paper's extra maps). The data
  /// pipeline slices the canonical channel stack down to this.
  virtual int in_channels() const = 0;

 private:
  tensor::plan::PlanRuntime plan_runtime_;
};

}  // namespace lmmir::models
