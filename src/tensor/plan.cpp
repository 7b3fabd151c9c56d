#include "tensor/plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "runtime/parallel_for.hpp"
#include "tensor/microkernels.hpp"
#include "tensor/op_helpers.hpp"

namespace lmmir::tensor::plan {

namespace {

/// Offsets are aligned to 16 floats (64 bytes, one cache line) so planned
/// buffers never share a line and vector loads start aligned-friendly.
std::size_t align16(std::size_t floats) {
  return (floats + 15) & ~static_cast<std::size_t>(15);
}

/// outer * axis_len * inner decomposition (mirrors ops_basic.cpp).
struct AxisSplit {
  std::size_t outer = 1, axis = 1, inner = 1;
};
AxisSplit split_at(const Shape& shape, int axis) {
  AxisSplit s;
  for (int i = 0; i < static_cast<int>(shape.size()); ++i) {
    const auto d = static_cast<std::size_t>(shape[static_cast<std::size_t>(i)]);
    if (i < axis) s.outer *= d;
    else if (i == axis) s.axis = d;
    else s.inner *= d;
  }
  return s;
}

}  // namespace

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd: return "add";
    case OpKind::kSub: return "sub";
    case OpKind::kMul: return "mul";
    case OpKind::kScale: return "scale";
    case OpKind::kAddScalar: return "add_scalar";
    case OpKind::kRelu: return "relu";
    case OpKind::kLeakyRelu: return "leaky_relu";
    case OpKind::kSigmoid: return "sigmoid";
    case OpKind::kTanh: return "tanh";
    case OpKind::kSoftmaxLastDim: return "softmax_lastdim";
    case OpKind::kReshape: return "reshape";
    case OpKind::kConcat: return "concat";
    case OpKind::kSliceAxis: return "slice_axis";
    case OpKind::kTransposeLast2: return "transpose_last2";
    case OpKind::kMatmul: return "matmul";
    case OpKind::kBmm: return "bmm";
    case OpKind::kLinear: return "linear";
    case OpKind::kConv2d: return "conv2d";
    case OpKind::kConvTranspose2d: return "conv_transpose2d";
    case OpKind::kMaxPool2d: return "maxpool2d";
    case OpKind::kUpsampleNearest2x: return "upsample_nearest2x";
    case OpKind::kBatchNorm2dEval: return "batch_norm2d_eval";
    case OpKind::kLayerNormLastDim: return "layer_norm_lastdim";
    case OpKind::kAddBiasLastDim: return "add_bias_lastdim";
    case OpKind::kAddBiasChannels: return "add_bias_channels";
    case OpKind::kMulBroadcastChannel: return "mul_broadcast_channel";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// InferencePlan

const Shape& InferencePlan::output_shape() const {
  if (output_value_ < 0)
    throw std::logic_error("InferencePlan::output_shape: unsupported plan");
  return values_[static_cast<std::size_t>(output_value_)].shape;
}

std::size_t InferencePlan::live_steps() const {
  std::size_t n = 0;
  for (const Step& s : steps_)
    if (!s.skip) ++n;
  return n;
}

std::size_t InferencePlan::fused_ops() const {
  std::size_t n = 0;
  for (const Step& s : steps_)
    if (!s.skip) n += s.fused.size();
  return n;
}

// ---------------------------------------------------------------------------
// PlanRecorder

PlanRecorder::PlanRecorder() = default;
PlanRecorder::~PlanRecorder() = default;

void PlanRecorder::check_open(const char* what) const {
  if (sealed_)
    throw std::logic_error(std::string("PlanRecorder::") + what +
                           ": plan already sealed");
}

int PlanRecorder::add_value(const Shape& shape, ValueKind kind) {
  ValueInfo v;
  v.shape = shape;
  v.numel = shape_numel(shape);
  v.kind = kind;
  values_.push_back(std::move(v));
  return static_cast<int>(values_.size()) - 1;
}

void PlanRecorder::bind_inputs(const Tensor& circuit, const Tensor& tokens) {
  check_open("bind_inputs");
  if (bound_)
    throw std::logic_error("PlanRecorder::bind_inputs: already bound");
  if (!circuit.defined())
    throw std::invalid_argument(
        "PlanRecorder::bind_inputs: circuit must be defined");
  bound_ = true;
  circuit_shape_ = circuit.shape();
  const int cid = add_value(circuit_shape_, ValueKind::kCircuitInput);
  value_of_[circuit.impl().get()] = cid;
  pins_.push_back(circuit.impl());
  if (tokens.defined()) {
    has_tokens_ = true;
    tokens_shape_ = tokens.shape();
    const int tid = add_value(tokens_shape_, ValueKind::kTokenInput);
    value_of_[tokens.impl().get()] = tid;
    pins_.push_back(tokens.impl());
  }
}

void PlanRecorder::on_node(const std::shared_ptr<TensorImpl>& node, bool leaf) {
  if (sealed_ || !unsupported_.empty()) return;
  if (!leaf) {
    // Freshly created, not yet claimed by any op.  Holding the shared_ptr
    // pins the node so its address cannot be reused by a later node while
    // the recording is alive.
    pending_.emplace(node.get(), node);
    return;
  }
  // Tensor::from_data without autograd: a constant of this (model, shape)
  // key.  Snapshot the payload by value so the sealed plan does not keep
  // the node alive.
  pending_.erase(node.get());
  if (value_of_.count(node.get())) return;
  const int id = add_value(node->shape, ValueKind::kConstant);
  values_[static_cast<std::size_t>(id)].snapshot = node->data;
  value_of_[node.get()] = id;
  pins_.push_back(node);
}

void PlanRecorder::on_op(OpKind kind, const std::shared_ptr<TensorImpl>& out,
                         std::initializer_list<const Tensor*> inputs,
                         OpAttrs attrs) {
  check_open("on_op");
  if (!unsupported_.empty()) return;
  if (!bound_) {
    mark_unsupported("op recorded before bind_inputs");
    return;
  }
  auto pit = pending_.find(out.get());
  if (pit == pending_.end() || value_of_.count(out.get())) {
    mark_unsupported("op output was not a freshly created node");
    return;
  }
  Step step;
  step.kind = kind;
  step.attrs = std::move(attrs);
  for (const Tensor* t : inputs) {
    if (!t || !t->defined()) continue;  // optional bias omitted
    const TensorImpl* impl = t->impl().get();
    auto vit = value_of_.find(impl);
    int id;
    if (vit != value_of_.end()) {
      id = vit->second;
    } else if (pending_.count(impl)) {
      // Produced during recording by an op that did not claim it: an
      // uninstrumented producer.  Replaying would silently drop that op,
      // so the whole shape key falls back to eager.
      mark_unsupported("input produced by an unrecorded op");
      return;
    } else {
      // External tensor (model weight / registered buffer): referenced
      // live, so in-place weight updates flow into replays.
      id = add_value(impl->shape, ValueKind::kConstant);
      values_[static_cast<std::size_t>(id)].pinned = t->impl();
      value_of_[impl] = id;
      pins_.push_back(t->impl());
    }
    step.in.push_back(id);
  }
  const int out_id = add_value(out->shape, ValueKind::kTemp);
  value_of_[out.get()] = out_id;
  pins_.push_back(out);
  pending_.erase(pit);
  step.out = out_id;
  steps_.push_back(std::move(step));
}

void PlanRecorder::mark_unsupported(const char* why) {
  check_open("mark_unsupported");
  if (unsupported_.empty()) unsupported_ = why;
}

void PlanRecorder::fuse_chains(int output_value, std::vector<int>& consumers) {
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    Step& host = steps_[i];
    if (host.skip || host.kind != OpKind::kConv2d) continue;
    for (std::size_t j = i + 1; j < steps_.size(); ++j) {
      Step& next = steps_[j];
      if (next.skip) break;
      const int cur = host.out;
      // The candidate must be the sole consumer of the conv's output (a
      // value feeding anything else — including the plan output — must be
      // materialized) and must consume it as its primary input.
      if (consumers[static_cast<std::size_t>(cur)] != 1 || next.in.empty() ||
          next.in[0] != cur)
        break;
      bool multi = false;
      for (std::size_t q = 1; q < next.in.size(); ++q)
        if (next.in[q] == cur) multi = true;
      if (multi) break;
      FusedOp f;
      if (next.kind == OpKind::kBatchNorm2dEval && host.fused.empty()) {
        // Only directly after the conv (before any activation), and only
        // with constant affine parameters and running stats.
        const auto constant = [&](int v) {
          return values_[static_cast<std::size_t>(v)].kind ==
                 ValueKind::kConstant;
        };
        if (next.in.size() != 5 ||
            !std::all_of(next.in.begin() + 1, next.in.end(), constant))
          break;
        f.extra.assign(next.in.begin() + 1, next.in.end());
      } else if (next.kind == OpKind::kRelu ||
                 next.kind == OpKind::kLeakyRelu ||
                 next.kind == OpKind::kSigmoid ||
                 next.kind == OpKind::kTanh) {
        if (next.in.size() != 1) break;
      } else {
        break;
      }
      f.kind = next.kind;
      f.attrs = std::move(next.attrs);
      host.fused.push_back(std::move(f));
      next.skip = true;
      values_[static_cast<std::size_t>(cur)].eliminated = true;
      host.out = next.out;
      (void)output_value;
    }
  }
}

void PlanRecorder::annotate_im2col_reuse() {
  // Consecutive convs (in execution order) over the same input value with
  // the same patch geometry share one im2col matrix.  Gated on batch 1:
  // the executor's col buffer holds a single sample, so with n > 1 the
  // buffer ends the previous conv holding only the LAST sample's patches.
  bool have = false;
  int prev_in = -1;
  std::array<int, 5> prev_key{};
  for (Step& s : steps_) {
    if (s.skip) continue;
    if (s.kind != OpKind::kConv2d) continue;  // non-conv steps never touch col
    const ValueInfo& x = values_[static_cast<std::size_t>(s.in[0])];
    const ValueInfo& w = values_[static_cast<std::size_t>(s.in[1])];
    const std::array<int, 5> key = {w.shape[2], w.shape[3], s.attrs.i0,
                                    s.attrs.i1, s.attrs.i2};
    if (have && x.shape[0] == 1 && s.in[0] == prev_in && key == prev_key)
      s.reuse_im2col = true;
    have = true;
    prev_in = s.in[0];
    prev_key = key;
  }
}

void PlanRecorder::plan_memory(InferencePlan& plan, int output_value) {
  const auto& values = plan.values_;
  const auto& steps = plan.steps_;
  const int nsteps = static_cast<int>(steps.size());

  // Liveness over original step indices: a temp is live from the step
  // defining it through its last read (the plan output reads one past the
  // final step, when the executor copies it out).
  std::vector<int> def(values.size(), -1);
  std::vector<int> last(values.size(), -1);
  for (int t = 0; t < nsteps; ++t) {
    const Step& s = steps[static_cast<std::size_t>(t)];
    if (s.skip) continue;
    if (def[static_cast<std::size_t>(s.out)] < 0)
      def[static_cast<std::size_t>(s.out)] = t;
    last[static_cast<std::size_t>(s.out)] =
        std::max(last[static_cast<std::size_t>(s.out)], t);
    for (int v : s.in)
      last[static_cast<std::size_t>(v)] =
          std::max(last[static_cast<std::size_t>(v)], t);
  }
  last[static_cast<std::size_t>(output_value)] = nsteps;

  struct Cand {
    int v;
    std::size_t floats;
    int def, last;
  };
  std::vector<Cand> cands;
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (values[v].kind != ValueKind::kTemp || values[v].eliminated) continue;
    if (def[v] < 0) continue;
    cands.push_back({static_cast<int>(v), values[v].numel, def[v], last[v]});
  }
  // Largest-first greedy (the aten/c10 static-planning idiom): big
  // buffers claim low offsets, small ones fill the gaps.  Ties break by
  // definition order then value id so the layout is deterministic.
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.floats != b.floats) return a.floats > b.floats;
    if (a.def != b.def) return a.def < b.def;
    return a.v < b.v;
  });

  std::vector<PlannedBuffer> placed;
  std::size_t arena_floats = 0;
  for (const Cand& c : cands) {
    std::vector<const PlannedBuffer*> conflicts;
    for (const PlannedBuffer& p : placed)
      if (c.def <= p.last && p.def <= c.last) conflicts.push_back(&p);
    std::sort(conflicts.begin(), conflicts.end(),
              [](const PlannedBuffer* a, const PlannedBuffer* b) {
                return a->offset < b->offset;
              });
    std::size_t offset = 0;
    for (const PlannedBuffer* p : conflicts) {
      if (offset + c.floats <= p->offset) break;  // fits in the gap
      offset = std::max(offset, align16(p->offset + p->floats));
    }
    placed.push_back({c.v, offset, c.floats, c.def, c.last});
    arena_floats = std::max(arena_floats, offset + c.floats);
  }
  plan.buffers_ = std::move(placed);
  plan.arena_floats_ = arena_floats;

  std::size_t peak = 0;
  for (int t = 0; t <= nsteps; ++t) {
    std::size_t live = 0;
    for (const PlannedBuffer& b : plan.buffers_)
      if (b.def <= t && t <= b.last) live += b.floats;
    peak = std::max(peak, live);
  }
  plan.peak_live_floats_ = peak;

  std::size_t col_floats = 0;
  for (const Step& s : steps) {
    if (s.skip || s.kind != OpKind::kConv2d) continue;
    const ValueInfo& x = values[static_cast<std::size_t>(s.in[0])];
    const ValueInfo& w = values[static_cast<std::size_t>(s.in[1])];
    const ValueInfo& o = values[static_cast<std::size_t>(s.out)];
    const std::size_t patch = static_cast<std::size_t>(x.shape[1]) *
                              static_cast<std::size_t>(w.shape[2]) *
                              static_cast<std::size_t>(w.shape[3]);
    const std::size_t spatial = static_cast<std::size_t>(o.shape[2]) *
                                static_cast<std::size_t>(o.shape[3]);
    col_floats = std::max(col_floats, patch * spatial);
  }
  plan.col_floats_ = col_floats;
}

std::shared_ptr<const InferencePlan> PlanRecorder::seal(const Tensor& output) {
  check_open("seal");
  sealed_ = true;

  auto plan = std::shared_ptr<InferencePlan>(new InferencePlan());
  int out_id = -1;
  if (unsupported_.empty()) {
    if (!bound_) {
      unsupported_ = "seal without bind_inputs";
    } else if (!output.defined()) {
      unsupported_ = "forward returned an undefined tensor";
    } else {
      auto it = value_of_.find(output.impl().get());
      if (it == value_of_.end() ||
          values_[static_cast<std::size_t>(it->second)].kind !=
              ValueKind::kTemp)
        unsupported_ = "forward output was not produced by a recorded op";
      else
        out_id = it->second;
    }
  }
  plan->circuit_shape_ = circuit_shape_;
  plan->tokens_shape_ = tokens_shape_;
  plan->has_tokens_ = has_tokens_;
  if (!unsupported_.empty()) {
    plan->unsupported_ = unsupported_;
  } else {
    std::vector<int> consumers(values_.size(), 0);
    for (const Step& s : steps_)
      for (int v : s.in) ++consumers[static_cast<std::size_t>(v)];
    ++consumers[static_cast<std::size_t>(out_id)];
    fuse_chains(out_id, consumers);
    annotate_im2col_reuse();
    plan->output_value_ = out_id;
    plan->values_ = std::move(values_);
    plan->steps_ = std::move(steps_);
    plan_memory(*plan, out_id);
  }
  // Drop every pin: recorded constants were snapshotted by value, so the
  // only nodes the plan keeps alive are external weights and batch-norm
  // running stats (ValueInfo::pinned).
  pins_.clear();
  pending_.clear();
  value_of_.clear();
  values_.clear();
  steps_.clear();
  return plan;
}

// ---------------------------------------------------------------------------
// RecordScope / thread-local plumbing

namespace detail {
thread_local PlanRecorder* t_recorder = nullptr;

void record_op_impl(OpKind kind, const std::shared_ptr<TensorImpl>& out,
                    std::initializer_list<const Tensor*> inputs,
                    OpAttrs attrs) {
  t_recorder->on_op(kind, out, inputs, std::move(attrs));
}
}  // namespace detail

namespace {
void record_hook(const std::shared_ptr<TensorImpl>& node, bool leaf) {
  if (detail::t_recorder) detail::t_recorder->on_node(node, leaf);
}
}  // namespace

RecordScope::RecordScope(PlanRecorder& recorder) {
  if (detail::t_recorder)
    throw std::logic_error(
        "RecordScope: a recording is already active on this thread");
  detail::t_recorder = &recorder;
  tensor::detail::set_node_hook(&record_hook);
}

RecordScope::~RecordScope() {
  tensor::detail::set_node_hook(nullptr);
  detail::t_recorder = nullptr;
}

// ---------------------------------------------------------------------------
// PlanExecutor

PlanExecutor::PlanExecutor(std::shared_ptr<const InferencePlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_ || !plan_->supported())
    throw std::invalid_argument(
        "PlanExecutor: plan is missing or unsupported");
  arena_.resize(plan_->arena_floats());
  col_.resize(plan_->col_floats());
  const auto& values = plan_->values();
  src_.assign(values.size(), nullptr);
  dst_.assign(values.size(), nullptr);
  for (const PlannedBuffer& b : plan_->buffers()) {
    dst_[static_cast<std::size_t>(b.value)] = arena_.data() + b.offset;
    src_[static_cast<std::size_t>(b.value)] = arena_.data() + b.offset;
  }
  for (std::size_t v = 0; v < values.size(); ++v)
    if (values[v].kind == ValueKind::kConstant)
      src_[v] = values[v].pinned ? values[v].pinned->data.data()
                                 : values[v].snapshot.data();
}

Tensor PlanExecutor::run(const Tensor& circuit, const Tensor& tokens) {
  if (recording_active())
    throw std::logic_error(
        "PlanExecutor::run: calling thread is recording a plan");
  if (!circuit.defined() ||
      !same_shape(circuit.shape(), plan_->circuit_shape()))
    throw std::logic_error(
        "PlanExecutor::run: circuit shape " +
        (circuit.defined() ? shape_to_string(circuit.shape())
                           : std::string("<undefined>")) +
        " does not match recorded " +
        shape_to_string(plan_->circuit_shape()));
  if (plan_->has_tokens()) {
    if (!tokens.defined() || !same_shape(tokens.shape(), plan_->tokens_shape()))
      throw std::logic_error(
          "PlanExecutor::run: tokens shape " +
          (tokens.defined() ? shape_to_string(tokens.shape())
                            : std::string("<undefined>")) +
          " does not match recorded " +
          shape_to_string(plan_->tokens_shape()));
  } else if (tokens.defined()) {
    throw std::logic_error(
        "PlanExecutor::run: plan was recorded without tokens");
  }

  const auto& values = plan_->values();
  for (std::size_t v = 0; v < values.size(); ++v) {
    if (values[v].kind == ValueKind::kCircuitInput)
      src_[v] = circuit.data().data();
    else if (values[v].kind == ValueKind::kTokenInput)
      src_[v] = tokens.data().data();
  }
  for (const Step& s : plan_->steps())
    if (!s.skip) exec_step(s);

  const auto out = static_cast<std::size_t>(plan_->output_value());
  const float* res = src_[out];
  return Tensor::from_data(values[out].shape,
                           std::vector<float>(res, res + values[out].numel));
}

void PlanExecutor::exec_step(const Step& s) {
  const auto& values = plan_->values();
  const ValueInfo& ov = values[static_cast<std::size_t>(s.out)];
  float* o = dst_[static_cast<std::size_t>(s.out)];
  const auto in = [&](std::size_t i) {
    return src_[static_cast<std::size_t>(s.in[i])];
  };
  const auto shape_of = [&](std::size_t i) -> const Shape& {
    return values[static_cast<std::size_t>(s.in[i])].shape;
  };

  switch (s.kind) {
    case OpKind::kAdd: {
      const float* a = in(0);
      const float* b = in(1);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = a[i] + b[i];
      break;
    }
    case OpKind::kSub: {
      const float* a = in(0);
      const float* b = in(1);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = a[i] - b[i];
      break;
    }
    case OpKind::kMul: {
      const float* a = in(0);
      const float* b = in(1);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = a[i] * b[i];
      break;
    }
    case OpKind::kScale: {
      const float* a = in(0);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = a[i] * s.attrs.f0;
      break;
    }
    case OpKind::kAddScalar: {
      const float* a = in(0);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = a[i] + s.attrs.f0;
      break;
    }
    case OpKind::kRelu: {
      const float* a = in(0);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = std::max(0.0f, a[i]);
      break;
    }
    case OpKind::kLeakyRelu: {
      const float* a = in(0);
      const float slope = s.attrs.f0;
      for (std::size_t i = 0; i < ov.numel; ++i) {
        const float v = a[i];
        o[i] = v > 0.0f ? v : slope * v;
      }
      break;
    }
    case OpKind::kSigmoid: {
      const float* a = in(0);
      for (std::size_t i = 0; i < ov.numel; ++i)
        o[i] = 1.0f / (1.0f + std::exp(-a[i]));
      break;
    }
    case OpKind::kTanh: {
      const float* a = in(0);
      for (std::size_t i = 0; i < ov.numel; ++i) o[i] = std::tanh(a[i]);
      break;
    }
    case OpKind::kSoftmaxLastDim: {
      const float* a = in(0);
      const std::size_t d = static_cast<std::size_t>(ov.shape.back());
      const std::size_t rows = ov.numel / d;
      for (std::size_t r = 0; r < rows; ++r) {
        const float* row = a + r * d;
        float* orow = o + r * d;
        float mx = row[0];
        for (std::size_t i = 1; i < d; ++i) mx = std::max(mx, row[i]);
        float sum = 0.0f;
        for (std::size_t i = 0; i < d; ++i) {
          orow[i] = std::exp(row[i] - mx);
          sum += orow[i];
        }
        const float inv = 1.0f / sum;
        for (std::size_t i = 0; i < d; ++i) orow[i] *= inv;
      }
      break;
    }
    case OpKind::kReshape: {
      std::copy_n(in(0), ov.numel, o);
      break;
    }
    case OpKind::kConcat: {
      const auto sa = split_at(shape_of(0), s.attrs.i0);
      const auto sb = split_at(shape_of(1), s.attrs.i0);
      const std::size_t stride_a = sa.axis * sa.inner;
      const std::size_t stride_b = sb.axis * sb.inner;
      const std::size_t stride_o = stride_a + stride_b;
      const float* a = in(0);
      const float* b = in(1);
      for (std::size_t oo = 0; oo < sa.outer; ++oo) {
        std::copy_n(a + oo * stride_a, stride_a, o + oo * stride_o);
        std::copy_n(b + oo * stride_b, stride_b,
                    o + oo * stride_o + stride_a);
      }
      break;
    }
    case OpKind::kSliceAxis: {
      const auto sp = split_at(shape_of(0), s.attrs.i0);
      const std::size_t in_stride = sp.axis * sp.inner;
      const std::size_t out_stride =
          static_cast<std::size_t>(s.attrs.i2) * sp.inner;
      const std::size_t off = static_cast<std::size_t>(s.attrs.i1) * sp.inner;
      const float* a = in(0);
      for (std::size_t oo = 0; oo < sp.outer; ++oo)
        std::copy_n(a + oo * in_stride + off, out_stride, o + oo * out_stride);
      break;
    }
    case OpKind::kTransposeLast2: {
      const Shape& xs = shape_of(0);
      const std::size_t batch =
          xs.size() == 3 ? static_cast<std::size_t>(xs[0]) : 1;
      const std::size_t m = static_cast<std::size_t>(xs[xs.size() - 2]);
      const std::size_t n = static_cast<std::size_t>(xs[xs.size() - 1]);
      const float* a = in(0);
      for (std::size_t b = 0; b < batch; ++b) {
        const float* ip = a + b * m * n;
        float* op = o + b * m * n;
        for (std::size_t i = 0; i < m; ++i)
          for (std::size_t j = 0; j < n; ++j) op[j * m + i] = ip[i * n + j];
      }
      break;
    }
    case OpKind::kMatmul: {
      const std::size_t m = static_cast<std::size_t>(shape_of(0)[0]);
      const std::size_t k = static_cast<std::size_t>(shape_of(0)[1]);
      const std::size_t n = static_cast<std::size_t>(ov.shape[1]);
      const float* a = in(0);
      const float* b = in(1);
      std::fill_n(o, ov.numel, 0.0f);
      runtime::parallel_for(0, m, runtime::grain_for_cost(k * n),
                            [&](std::size_t lo, std::size_t hi) {
                              mk::gemm_acc(a + lo * k, b, o + lo * n, hi - lo,
                                           k, n);
                            });
      break;
    }
    case OpKind::kBmm: {
      const std::size_t bs = static_cast<std::size_t>(shape_of(0)[0]);
      const std::size_t m = static_cast<std::size_t>(shape_of(0)[1]);
      const std::size_t k = static_cast<std::size_t>(shape_of(0)[2]);
      const std::size_t n = static_cast<std::size_t>(ov.shape[2]);
      const float* a = in(0);
      const float* b = in(1);
      std::fill_n(o, ov.numel, 0.0f);
      runtime::parallel_for(0, bs, runtime::grain_for_cost(m * k * n),
                            [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i)
                                mk::gemm_acc(a + i * m * k, b + i * k * n,
                                             o + i * m * n, m, k, n);
                            });
      break;
    }
    case OpKind::kLinear: {
      // Stays on the scalar dot-product kernel: vectorizing a dot product
      // reassociates the sum and would break bitwise identity with eager.
      const std::size_t inf = static_cast<std::size_t>(shape_of(1)[1]);
      const std::size_t outf = static_cast<std::size_t>(shape_of(1)[0]);
      const std::size_t rows =
          values[static_cast<std::size_t>(s.in[0])].numel / inf;
      const float* x = in(0);
      const float* w = in(1);
      const float* bias = s.attrs.i3 ? in(2) : nullptr;
      std::fill_n(o, ov.numel, 0.0f);
      runtime::parallel_for(
          0, rows, runtime::grain_for_cost(inf * outf),
          [&](std::size_t lo, std::size_t hi) {
            ophelp::gemm_a_bt_acc(x + lo * inf, w, o + lo * outf, hi - lo, inf,
                                  outf);
            if (bias)
              for (std::size_t r = lo; r < hi; ++r)
                for (std::size_t c = 0; c < outf; ++c)
                  o[r * outf + c] += bias[c];
          });
      break;
    }
    case OpKind::kConv2d:
      exec_conv2d(s);
      break;
    case OpKind::kConvTranspose2d:
      exec_conv_transpose2d(s);
      break;
    case OpKind::kMaxPool2d: {
      const Shape& xs = shape_of(0);
      const std::size_t nc = static_cast<std::size_t>(xs[0]) *
                             static_cast<std::size_t>(xs[1]);
      const std::size_t h = static_cast<std::size_t>(xs[2]);
      const std::size_t w = static_cast<std::size_t>(xs[3]);
      const std::size_t oh = static_cast<std::size_t>(ov.shape[2]);
      const std::size_t ow = static_cast<std::size_t>(ov.shape[3]);
      const int kernel = s.attrs.i0;
      const int stride = s.attrs.i1;
      const float* a = in(0);
      for (std::size_t b = 0; b < nc; ++b) {
        const float* ip = a + b * h * w;
        float* op = o + b * oh * ow;
        for (std::size_t oy = 0; oy < oh; ++oy)
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float best = -std::numeric_limits<float>::infinity();
            for (int ki = 0; ki < kernel; ++ki)
              for (int kj = 0; kj < kernel; ++kj) {
                const std::size_t iy = oy * static_cast<std::size_t>(stride) +
                                       static_cast<std::size_t>(ki);
                const std::size_t ix = ox * static_cast<std::size_t>(stride) +
                                       static_cast<std::size_t>(kj);
                const float v = ip[iy * w + ix];
                if (v > best) best = v;
              }
            op[oy * ow + ox] = best;
          }
      }
      break;
    }
    case OpKind::kUpsampleNearest2x: {
      const Shape& xs = shape_of(0);
      const std::size_t nc = static_cast<std::size_t>(xs[0]) *
                             static_cast<std::size_t>(xs[1]);
      const std::size_t h = static_cast<std::size_t>(xs[2]);
      const std::size_t w = static_cast<std::size_t>(xs[3]);
      const std::size_t oh = h * 2, ow = w * 2;
      const float* a = in(0);
      for (std::size_t b = 0; b < nc; ++b) {
        const float* ip = a + b * h * w;
        float* op = o + b * oh * ow;
        for (std::size_t iy = 0; iy < oh; ++iy)
          for (std::size_t ix = 0; ix < ow; ++ix)
            op[iy * ow + ix] = ip[(iy / 2) * w + (ix / 2)];
      }
      break;
    }
    case OpKind::kBatchNorm2dEval: {
      const Shape& xs = shape_of(0);
      const std::size_t n = static_cast<std::size_t>(xs[0]);
      const std::size_t c = static_cast<std::size_t>(xs[1]);
      const std::size_t hw = static_cast<std::size_t>(xs[2]) *
                             static_cast<std::size_t>(xs[3]);
      const float* a = in(0);
      const float* gamma = in(1);
      const float* beta = in(2);
      const float* mean = in(3);
      const float* var = in(4);
      const float eps = s.attrs.f0;
      for (std::size_t ni = 0; ni < n; ++ni)
        for (std::size_t ci = 0; ci < c; ++ci) {
          const float* ip = a + (ni * c + ci) * hw;
          float* op = o + (ni * c + ci) * hw;
          const float mu = mean[ci];
          const float is = 1.0f / std::sqrt(var[ci] + eps);
          const float gm = gamma[ci];
          const float bt = beta[ci];
          for (std::size_t i = 0; i < hw; ++i) {
            const float xh = (ip[i] - mu) * is;
            op[i] = gm * xh + bt;
          }
        }
      break;
    }
    case OpKind::kLayerNormLastDim: {
      const std::size_t d = static_cast<std::size_t>(ov.shape.back());
      const std::size_t rows = ov.numel / d;
      const float* a = in(0);
      const float* gamma = in(1);
      const float* beta = in(2);
      const float eps = s.attrs.f0;
      for (std::size_t r = 0; r < rows; ++r) {
        const float* ip = a + r * d;
        float* op = o + r * d;
        double mu = 0.0;
        for (std::size_t i = 0; i < d; ++i) mu += ip[i];
        mu /= static_cast<double>(d);
        double var = 0.0;
        for (std::size_t i = 0; i < d; ++i) {
          const double dv = ip[i] - mu;
          var += dv * dv;
        }
        var /= static_cast<double>(d);
        const float is = static_cast<float>(1.0 / std::sqrt(var + eps));
        for (std::size_t i = 0; i < d; ++i) {
          const float xh = (ip[i] - static_cast<float>(mu)) * is;
          op[i] = gamma[i] * xh + beta[i];
        }
      }
      break;
    }
    case OpKind::kAddBiasLastDim: {
      const std::size_t d = static_cast<std::size_t>(ov.shape.back());
      const std::size_t rows = ov.numel / d;
      const float* a = in(0);
      const float* b = in(1);
      for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t i = 0; i < d; ++i)
          o[r * d + i] = a[r * d + i] + b[i];
      break;
    }
    case OpKind::kAddBiasChannels: {
      const std::size_t n = static_cast<std::size_t>(ov.shape[0]);
      const std::size_t c = static_cast<std::size_t>(ov.shape[1]);
      const std::size_t hw = static_cast<std::size_t>(ov.shape[2]) *
                             static_cast<std::size_t>(ov.shape[3]);
      const float* a = in(0);
      const float* b = in(1);
      for (std::size_t ni = 0; ni < n; ++ni)
        for (std::size_t ci = 0; ci < c; ++ci) {
          const float bv = b[ci];
          const std::size_t base = (ni * c + ci) * hw;
          for (std::size_t i = 0; i < hw; ++i) o[base + i] = a[base + i] + bv;
        }
      break;
    }
    case OpKind::kMulBroadcastChannel: {
      const std::size_t n = static_cast<std::size_t>(ov.shape[0]);
      const std::size_t c = static_cast<std::size_t>(ov.shape[1]);
      const std::size_t hw = static_cast<std::size_t>(ov.shape[2]) *
                             static_cast<std::size_t>(ov.shape[3]);
      const float* a = in(0);
      const float* mask = in(1);
      for (std::size_t ni = 0; ni < n; ++ni) {
        const float* mv = mask + ni * hw;
        for (std::size_t ci = 0; ci < c; ++ci) {
          const std::size_t base = (ni * c + ci) * hw;
          for (std::size_t i = 0; i < hw; ++i) o[base + i] = a[base + i] * mv[i];
        }
      }
      break;
    }
  }
}

void PlanExecutor::exec_conv2d(const Step& s) {
  const auto& values = plan_->values();
  const ValueInfo& xv = values[static_cast<std::size_t>(s.in[0])];
  const ValueInfo& wv = values[static_cast<std::size_t>(s.in[1])];
  const ValueInfo& ov = values[static_cast<std::size_t>(s.out)];
  const std::size_t n = static_cast<std::size_t>(xv.shape[0]);
  const std::size_t cin = static_cast<std::size_t>(xv.shape[1]);
  const std::size_t h = static_cast<std::size_t>(xv.shape[2]);
  const std::size_t w = static_cast<std::size_t>(xv.shape[3]);
  const std::size_t cout = static_cast<std::size_t>(wv.shape[0]);
  const std::size_t kh = static_cast<std::size_t>(wv.shape[2]);
  const std::size_t kw = static_cast<std::size_t>(wv.shape[3]);
  const std::size_t oh = static_cast<std::size_t>(ov.shape[2]);
  const std::size_t ow = static_cast<std::size_t>(ov.shape[3]);
  const int stride = s.attrs.i0;
  const int pad_h = s.attrs.i1;
  const int pad_w = s.attrs.i2;
  const float* x = src_[static_cast<std::size_t>(s.in[0])];
  const float* wt = src_[static_cast<std::size_t>(s.in[1])];
  const float* bias =
      s.attrs.i3 ? src_[static_cast<std::size_t>(s.in[2])] : nullptr;
  float* y = dst_[static_cast<std::size_t>(s.out)];
  const std::size_t patch = cin * kh * kw;
  const std::size_t spatial = oh * ow;

  // Samples run serially (one shared col buffer); the out-channel loop
  // fans out over the pool.  Each output element's arithmetic is fixed
  // regardless of chunking, so results stay bitwise identical to eager.
  for (std::size_t ni = 0; ni < n; ++ni) {
    if (!s.reuse_im2col)
      mk::im2col(x + ni * cin * h * w, cin, h, w, kh, kw, oh, ow, stride,
                 pad_h, pad_w, col_.data());
    runtime::parallel_for(
        0, cout, runtime::grain_for_cost(patch * spatial),
        [&](std::size_t c_lo, std::size_t c_hi) {
          float* yblock = y + (ni * cout + c_lo) * spatial;
          std::fill_n(yblock, (c_hi - c_lo) * spatial, 0.0f);
          mk::gemm_acc(wt + c_lo * patch, col_.data(), yblock, c_hi - c_lo,
                       patch, spatial);
          for (std::size_t c = c_lo; c < c_hi; ++c) {
            float* dstp = y + (ni * cout + c) * spatial;
            if (bias) {
              const float bv = bias[c];
              for (std::size_t i = 0; i < spatial; ++i) dstp[i] += bv;
            }
            // Fused epilogue: the exact per-element formulas of the eager
            // ops this chain replaced, applied in place per channel.
            for (const FusedOp& f : s.fused) {
              switch (f.kind) {
                case OpKind::kBatchNorm2dEval: {
                  const auto param = [&](std::size_t q) {
                    return src_[static_cast<std::size_t>(f.extra[q])][c];
                  };
                  const float gm = param(0);
                  const float bt = param(1);
                  const float mu = param(2);
                  const float is = 1.0f / std::sqrt(param(3) + f.attrs.f0);
                  for (std::size_t i = 0; i < spatial; ++i) {
                    const float xh = (dstp[i] - mu) * is;
                    dstp[i] = gm * xh + bt;
                  }
                  break;
                }
                case OpKind::kRelu:
                  for (std::size_t i = 0; i < spatial; ++i)
                    dstp[i] = std::max(0.0f, dstp[i]);
                  break;
                case OpKind::kLeakyRelu: {
                  const float slope = f.attrs.f0;
                  for (std::size_t i = 0; i < spatial; ++i) {
                    const float v = dstp[i];
                    dstp[i] = v > 0.0f ? v : slope * v;
                  }
                  break;
                }
                case OpKind::kSigmoid:
                  for (std::size_t i = 0; i < spatial; ++i)
                    dstp[i] = 1.0f / (1.0f + std::exp(-dstp[i]));
                  break;
                case OpKind::kTanh:
                  for (std::size_t i = 0; i < spatial; ++i)
                    dstp[i] = std::tanh(dstp[i]);
                  break;
                default:
                  break;
              }
            }
          }
        });
  }
}

void PlanExecutor::exec_conv_transpose2d(const Step& s) {
  const auto& values = plan_->values();
  const ValueInfo& xv = values[static_cast<std::size_t>(s.in[0])];
  const ValueInfo& wv = values[static_cast<std::size_t>(s.in[1])];
  const ValueInfo& ov = values[static_cast<std::size_t>(s.out)];
  const std::size_t n = static_cast<std::size_t>(xv.shape[0]);
  const std::size_t cin = static_cast<std::size_t>(xv.shape[1]);
  const std::size_t h = static_cast<std::size_t>(xv.shape[2]);
  const std::size_t w = static_cast<std::size_t>(xv.shape[3]);
  const std::size_t cout = static_cast<std::size_t>(wv.shape[1]);
  const std::size_t kh = static_cast<std::size_t>(wv.shape[2]);
  const std::size_t kw = static_cast<std::size_t>(wv.shape[3]);
  const std::size_t oh = static_cast<std::size_t>(ov.shape[2]);
  const std::size_t ow = static_cast<std::size_t>(ov.shape[3]);
  const int stride = s.attrs.i0;
  const int padding = s.attrs.i1;
  const float* x = src_[static_cast<std::size_t>(s.in[0])];
  const float* wt = src_[static_cast<std::size_t>(s.in[1])];
  const float* bias =
      s.attrs.i3 ? src_[static_cast<std::size_t>(s.in[2])] : nullptr;
  float* y = dst_[static_cast<std::size_t>(s.out)];

  if (bias) {
    for (std::size_t ni = 0; ni < n; ++ni)
      for (std::size_t c = 0; c < cout; ++c)
        std::fill_n(y + (ni * cout + c) * oh * ow, oh * ow, bias[c]);
  } else {
    std::fill_n(y, ov.numel, 0.0f);
  }

  // Same scatter order as eager — (ci, hy, hx, ki, kj) with the zero-input
  // skip — so per-element accumulation order (and the result) is
  // identical at any thread count.
  for (std::size_t ni = 0; ni < n; ++ni) {
    runtime::parallel_for(
        0, cout, runtime::grain_for_cost(cin * h * w * kh * kw),
        [&, ni](std::size_t co_lo, std::size_t co_hi) {
          for (std::size_t co = co_lo; co < co_hi; ++co) {
            float* yout = y + (ni * cout + co) * oh * ow;
            for (std::size_t ci = 0; ci < cin; ++ci) {
              const float* xin = x + (ni * cin + ci) * h * w;
              const float* wk = wt + ((ci * cout + co) * kh) * kw;
              for (std::size_t hy = 0; hy < h; ++hy) {
                for (std::size_t hx = 0; hx < w; ++hx) {
                  const float xval = xin[hy * w + hx];
                  if (xval == 0.0f) continue;
                  for (std::size_t ki = 0; ki < kh; ++ki) {
                    const long oy = static_cast<long>(hy) * stride +
                                    static_cast<long>(ki) - padding;
                    if (oy < 0 || oy >= static_cast<long>(oh)) continue;
                    for (std::size_t kj = 0; kj < kw; ++kj) {
                      const long ox = static_cast<long>(hx) * stride +
                                      static_cast<long>(kj) - padding;
                      if (ox < 0 || ox >= static_cast<long>(ow)) continue;
                      yout[static_cast<std::size_t>(oy) * ow +
                           static_cast<std::size_t>(ox)] +=
                          xval * wk[ki * kw + kj];
                    }
                  }
                }
              }
            }
          }
        });
  }
}

// ---------------------------------------------------------------------------
// PlanRuntime

std::size_t PlanRuntime::ShapeKeyHash::operator()(const ShapeKey& k) const {
  // FNV-1a over the packed dims.
  std::size_t h = 1469598103934665603ull;
  for (std::int32_t d : k.v) {
    h ^= static_cast<std::size_t>(static_cast<std::uint32_t>(d));
    h *= 1099511628211ull;
  }
  return h;
}

PlanRuntime::ShapeKey PlanRuntime::make_key(const Tensor& circuit,
                                            const Tensor& tokens) {
  ShapeKey k;  // slots 0-5: circuit ndim + dims; 6-11: tokens (-1 = absent)
  k.v[0] = circuit.ndim();
  for (int i = 0; i < circuit.ndim() && i < 5; ++i)
    k.v[static_cast<std::size_t>(1 + i)] = circuit.dim(i);
  k.v[6] = tokens.defined() ? tokens.ndim() : -1;
  if (tokens.defined())
    for (int i = 0; i < tokens.ndim() && i < 5; ++i)
      k.v[static_cast<std::size_t>(7 + i)] = tokens.dim(i);
  return k;
}

Tensor PlanRuntime::run(const Tensor& circuit, const Tensor& tokens,
                        const EagerFn& eager) {
  enum class Action { kEager, kRecord, kReplay };
  Action act = Action::kEager;
  std::shared_ptr<const InferencePlan> plan;
  std::unique_ptr<PlanExecutor> exec;
  ShapeKey key{};

  if (circuit.defined() && !recording_active()) {
    std::lock_guard<std::mutex> lk(mu_);
    key = make_key(circuit, tokens);
    Entry& e = entries_[key];
    if (e.state == State::kEmpty) {
      // This thread claims the one recording pass for this shape key;
      // concurrent requests for the same key run eager meanwhile.
      e.state = State::kRecording;
      act = Action::kRecord;
    } else if (e.state == State::kSealed) {
      plan = e.plan;
      if (!e.pool.empty()) {
        exec = std::move(e.pool.back());
        e.pool.pop_back();
      }
      act = Action::kReplay;
    }
    // kRecording / kUnsupported: eager.
  }

  if (act == Action::kReplay) {
    if (!exec) exec = std::make_unique<PlanExecutor>(plan);
    Tensor out = exec->run(circuit, tokens);
    std::lock_guard<std::mutex> lk(mu_);
    entries_[key].pool.push_back(std::move(exec));
    ++stats_.replays;
    return out;
  }

  if (act == Action::kRecord) {
    PlanRecorder recorder;
    Tensor out;
    std::shared_ptr<const InferencePlan> sealed;
    try {
      recorder.bind_inputs(circuit, tokens);
      {
        RecordScope scope(recorder);
        out = eager(circuit, tokens);
      }
      sealed = recorder.seal(out);
    } catch (...) {
      // The eager forward itself failed (shape error, shutdown, ...):
      // release the recording claim so a later request can retry, and let
      // the caller see the original error.
      std::lock_guard<std::mutex> lk(mu_);
      entries_[key].state = State::kEmpty;
      throw;
    }
    std::lock_guard<std::mutex> lk(mu_);
    Entry& e = entries_[key];
    e.plan = std::move(sealed);
    if (e.plan->supported()) {
      e.state = State::kSealed;
      e.pool.reserve(16);
      ++stats_.plans_recorded;
    } else {
      e.state = State::kUnsupported;
      ++stats_.plans_unsupported;
    }
    ++stats_.eager_runs;
    return out;
  }

  Tensor out = eager(circuit, tokens);
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.eager_runs;
  }
  return out;
}

RuntimeStats PlanRuntime::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::shared_ptr<const InferencePlan> PlanRuntime::plan_for(
    const Tensor& circuit, const Tensor& tokens) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = entries_.find(make_key(circuit, tokens));
  return it == entries_.end() ? nullptr : it->second.plan;
}

}  // namespace lmmir::tensor::plan
