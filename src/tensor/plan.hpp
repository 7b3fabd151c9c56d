#pragma once
// Ahead-of-time inference plans: recorded op graphs, static memory
// planning, fused replay kernels.
//
// The model's eval-mode forward graph is static per batch shape, yet the
// eager path re-pays dynamic op dispatch, a heap allocation per
// intermediate and unfused conv→norm→activation chains on every request.
// Plans are the inference path (IrModel::predict); the eager forward
// records them, trains, and serves shape keys a plan cannot cover.  A plan
// compiles that work away:
//
//   1. RECORD — one eager forward runs inside a RecordScope.  A
//      thread-local hook in detail::make_node observes every node the
//      forward creates; each instrumented op then *claims* its output
//      right after make_node (op kind + input tensors + attributes), and
//      Tensor::from_data claims leaf tensors as shape-dependent
//      constants.  An op consuming a node that was created during
//      recording but never claimed was produced by an uninstrumented op —
//      the recording marks itself unsupported and the shape key falls
//      back to eager permanently (correctness never depends on coverage).
//   2. PLAN — liveness intervals over the recorded temporaries, greedy
//      size-descending offset assignment into ONE flat float arena (the
//      aten/c10 static memory-planning idiom): steady-state replay does
//      no per-tensor bookkeeping at all.  Fusion folds eval-mode
//      batch-norm and elementwise activations into the producing conv's
//      output loop, and consecutive convs over the same input reuse the
//      im2col patch matrix.
//   3. REPLAY — PlanExecutor walks the step list over the flat arena with
//      tensor/microkernels.hpp GEMMs.  Replay mirrors the eager kernels'
//      per-element arithmetic exactly (fusion applies the same formulas
//      in place, the AVX2 GEMM is mul+add per element, never FMA), so
//      replay is bitwise identical to eager at any thread count —
//      tests/test_plan.cpp and bench_serve_throughput gate this.
//
// Recording contract (docs/PLAN.md): eval mode only — batch-norm training
// and active dropout refuse to record; from_data/full/zeros inside a
// recorded forward freeze as constants of the (model, batch-shape) key;
// weights and batch-norm running stats are referenced live (a plan follows
// optimizer steps, training-mode stat updates and checkpoint loads, all of
// which write in place, but NOT shape changes).  PlanRuntime caches one
// sealed plan per
// input-shape key and hands replays to a pool of executors; shape changes
// simply record a new plan, and a replay fed mismatched shapes throws
// std::logic_error.
//
// Env: LMMIR_SIMD=0 forces the scalar GEMM (microkernels.hpp).
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "tensor/tensor.hpp"

namespace lmmir::tensor::plan {

enum class OpKind : std::uint8_t {
  kAdd,
  kSub,
  kMul,
  kScale,
  kAddScalar,
  kRelu,
  kLeakyRelu,
  kSigmoid,
  kTanh,
  kSoftmaxLastDim,
  kReshape,
  kConcat,
  kSliceAxis,
  kTransposeLast2,
  kMatmul,
  kBmm,
  kLinear,
  kConv2d,
  kConvTranspose2d,
  kMaxPool2d,
  kUpsampleNearest2x,
  kBatchNorm2dEval,
  kLayerNormLastDim,
  kAddBiasLastDim,
  kAddBiasChannels,
  kMulBroadcastChannel,
};

const char* op_kind_name(OpKind kind);

/// Small attribute bag carried by a recorded step.  Meaning is per-op
/// (e.g. conv2d: i0=stride, i1=pad_h, i2=pad_w, i3=has_bias; scale:
/// f0=factor; batch-norm eval: f0=eps).
struct OpAttrs {
  int i0 = 0, i1 = 0, i2 = 0, i3 = 0;
  float f0 = 0.0f;
};

enum class ValueKind : std::uint8_t {
  kCircuitInput,  // bound per replay: the circuit tensor
  kTokenInput,    // bound per replay: the tokens tensor
  kConstant,      // weight / running stat (pinned live node) or snapshot
  kTemp,          // planned into the flat arena
};

struct ValueInfo {
  Shape shape;
  std::size_t numel = 0;
  ValueKind kind = ValueKind::kTemp;
  /// Constant payload: external nodes (model weights, batch-norm running
  /// stats) stay pinned and are read live at replay; constants
  /// materialized during the recorded forward (Tensor::full / from_data)
  /// are snapshotted by value instead.
  std::shared_ptr<const TensorImpl> pinned;
  std::vector<float> snapshot;
  bool eliminated = false;  // fused away; gets no arena storage
};

/// An op folded into the producing step's output loop (conv→bn→act).
struct FusedOp {
  OpKind kind = OpKind::kRelu;
  OpAttrs attrs;
  std::vector<int> extra;  // extra value ids (batch-norm gamma, beta,
                           // running mean, running var)
};

struct Step {
  OpKind kind = OpKind::kAdd;
  int out = -1;
  std::vector<int> in;  // value ids, op-specific order
  OpAttrs attrs;
  bool skip = false;          // folded into an earlier step
  bool reuse_im2col = false;  // col matrix of the previous conv is valid
  std::vector<FusedOp> fused;
};

/// One planned arena range.  `def`/`last` are step indices (inclusive);
/// the plan output's interval extends one past the final step.
struct PlannedBuffer {
  int value = -1;
  std::size_t offset = 0;  // floats
  std::size_t floats = 0;
  int def = 0;
  int last = 0;
};

/// Sealed, immutable record of one forward. Built by PlanRecorder::seal.
class InferencePlan {
 public:
  bool supported() const { return unsupported_.empty(); }
  const std::string& unsupported_reason() const { return unsupported_; }

  const Shape& circuit_shape() const { return circuit_shape_; }
  bool has_tokens() const { return has_tokens_; }
  const Shape& tokens_shape() const { return tokens_shape_; }
  int output_value() const { return output_value_; }
  const Shape& output_shape() const;

  const std::vector<ValueInfo>& values() const { return values_; }
  const std::vector<Step>& steps() const { return steps_; }
  /// Steps actually executed at replay (fused consumers excluded).
  std::size_t live_steps() const;
  /// Ops folded into a producer's output loop.
  std::size_t fused_ops() const;

  const std::vector<PlannedBuffer>& buffers() const { return buffers_; }
  std::size_t arena_floats() const { return arena_floats_; }
  /// Largest sum of simultaneously-live temp sizes over the step
  /// sequence; arena_floats() >= this by construction.
  std::size_t peak_live_floats() const { return peak_live_floats_; }
  /// im2col scratch requirement (max over conv steps; 0 when conv-free).
  std::size_t col_floats() const { return col_floats_; }

 private:
  friend class PlanRecorder;
  InferencePlan() = default;

  std::string unsupported_;
  Shape circuit_shape_;
  Shape tokens_shape_;
  bool has_tokens_ = false;
  int output_value_ = -1;
  std::vector<ValueInfo> values_;
  std::vector<Step> steps_;
  std::vector<PlannedBuffer> buffers_;
  std::size_t arena_floats_ = 0;
  std::size_t peak_live_floats_ = 0;
  std::size_t col_floats_ = 0;
};

/// Accumulates one forward's op trace.  Single-threaded: install on the
/// recording thread via RecordScope, run the eager forward, then seal().
/// The recorder pins every observed node (shared_ptr) so pointer
/// identity is stable for the whole recording, and drops all pins at
/// seal (recorded constants are snapshotted by value first).
class PlanRecorder {
 public:
  PlanRecorder();
  ~PlanRecorder();
  PlanRecorder(const PlanRecorder&) = delete;
  PlanRecorder& operator=(const PlanRecorder&) = delete;

  /// Declare the forward's inputs before recording.  Tokens may be
  /// undefined (single-modality models).
  void bind_inputs(const Tensor& circuit, const Tensor& tokens);

  /// Build the immutable plan: fusion, liveness, offsets.  `output` must
  /// be the recorded forward's result.  Throws std::logic_error on a
  /// second call; any record_* call after seal throws too (plans are
  /// immutable once sealed).
  std::shared_ptr<const InferencePlan> seal(const Tensor& output);

  bool sealed() const { return sealed_; }
  bool unsupported() const { return !unsupported_.empty(); }
  const std::string& unsupported_reason() const { return unsupported_; }

  // Hook entry points (called via the thread-local recording scope).
  void on_node(const std::shared_ptr<TensorImpl>& node, bool leaf);
  void on_op(OpKind kind, const std::shared_ptr<TensorImpl>& out,
             std::initializer_list<const Tensor*> inputs, OpAttrs attrs);
  void mark_unsupported(const char* why);

 private:
  void check_open(const char* what) const;
  int claim_input(const std::shared_ptr<TensorImpl>& impl);
  int add_value(const Shape& shape, ValueKind kind);
  void fuse_chains(int output_value, std::vector<int>& consumers);
  void annotate_im2col_reuse();
  void plan_memory(InferencePlan& plan, int output_value);

  bool bound_ = false;
  bool sealed_ = false;
  std::string unsupported_;
  Shape circuit_shape_;
  Shape tokens_shape_;
  bool has_tokens_ = false;
  std::unordered_map<const TensorImpl*, int> value_of_;
  std::unordered_map<const TensorImpl*, std::shared_ptr<TensorImpl>> pending_;
  std::vector<std::shared_ptr<TensorImpl>> pins_;
  std::vector<ValueInfo> values_;
  std::vector<Step> steps_;
};

/// RAII: routes this thread's make_node hook and record_* calls to
/// `recorder` for the scope's lifetime.  Scopes do not nest (the inner
/// constructor throws std::logic_error).
class RecordScope {
 public:
  explicit RecordScope(PlanRecorder& recorder);
  ~RecordScope();
  RecordScope(const RecordScope&) = delete;
  RecordScope& operator=(const RecordScope&) = delete;
};

namespace detail {
extern thread_local PlanRecorder* t_recorder;
void record_op_impl(OpKind kind, const std::shared_ptr<TensorImpl>& out,
                    std::initializer_list<const Tensor*> inputs,
                    OpAttrs attrs);
}  // namespace detail

/// True while the calling thread is recording a plan.
inline bool recording_active() { return detail::t_recorder != nullptr; }

/// Claim `out` (the node an op just created via make_node) as the result
/// of `kind` over `inputs`.  No-op unless this thread is recording.
/// Undefined tensors in `inputs` (optional biases) are skipped.
inline void record_op(OpKind kind, const std::shared_ptr<TensorImpl>& out,
                      std::initializer_list<const Tensor*> inputs,
                      OpAttrs attrs = {}) {
  if (detail::t_recorder)
    detail::record_op_impl(kind, out, inputs, std::move(attrs));
}

/// Mark the active recording (if any) unsupported; the shape key will
/// permanently run eager.  Ops call this from paths a plan cannot replay
/// (batch-norm training, active dropout).
inline void record_unsupported(const char* why) {
  if (detail::t_recorder) detail::t_recorder->mark_unsupported(why);
}

/// Replays a sealed plan over one flat arena.  One executor services one
/// replay at a time (PlanRuntime pools them); the flat arena and the
/// im2col scratch are allocated once at construction, so a replay
/// allocates only its output tensor, never per recorded step.
class PlanExecutor {
 public:
  explicit PlanExecutor(std::shared_ptr<const InferencePlan> plan);

  /// Run the plan.  Throws std::logic_error when the input shapes differ
  /// from the recorded ones (replay-after-shape-change) or when called on
  /// a thread that is currently recording.
  Tensor run(const Tensor& circuit, const Tensor& tokens);

  const InferencePlan& plan() const { return *plan_; }

 private:
  void exec_step(const Step& step);
  void exec_conv2d(const Step& step);
  void exec_conv_transpose2d(const Step& step);

  std::shared_ptr<const InferencePlan> plan_;
  std::vector<float> arena_;
  std::vector<float> col_;
  std::vector<const float*> src_;  // read pointer per value id
  std::vector<float*> dst_;        // write pointer per temp value id
};

struct RuntimeStats {
  std::size_t plans_recorded = 0;     // sealed, supported
  std::size_t plans_unsupported = 0;  // sealed, fell back permanently
  std::size_t replays = 0;            // requests served by a plan
  std::size_t eager_runs = 0;         // requests served eagerly
                                      // (recording passes included)
};

/// Thread-safe plan cache keyed on input batch shape, with a per-plan
/// executor pool.  One runtime per model (IrModel::predict); every
/// inference forward goes through run(), which records on first sight of
/// a shape key, replays once sealed, and falls back to `eager` while
/// another thread records or when the key is unsupported.
class PlanRuntime {
 public:
  using EagerFn = std::function<Tensor(const Tensor&, const Tensor&)>;

  Tensor run(const Tensor& circuit, const Tensor& tokens,
             const EagerFn& eager);

  RuntimeStats stats() const;

  /// The sealed plan for these input shapes, or nullptr (not yet
  /// recorded / unsupported).  For tests and introspection.
  std::shared_ptr<const InferencePlan> plan_for(const Tensor& circuit,
                                               const Tensor& tokens) const;

 private:
  // Fixed-size shape key: no heap allocation on the steady-state lookup.
  struct ShapeKey {
    std::array<std::int32_t, 12> v{};
    bool operator==(const ShapeKey&) const = default;
  };
  struct ShapeKeyHash {
    std::size_t operator()(const ShapeKey& k) const;
  };
  enum class State : std::uint8_t { kEmpty, kRecording, kSealed,
                                    kUnsupported };
  struct Entry {
    State state = State::kEmpty;
    std::shared_ptr<const InferencePlan> plan;
    std::vector<std::unique_ptr<PlanExecutor>> pool;
  };

  static ShapeKey make_key(const Tensor& circuit, const Tensor& tokens);

  mutable std::mutex mu_;
  std::unordered_map<ShapeKey, Entry, ShapeKeyHash> entries_;
  RuntimeStats stats_;
};

}  // namespace lmmir::tensor::plan
