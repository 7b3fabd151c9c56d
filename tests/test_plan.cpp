// Ahead-of-time inference plans: the differential eager-vs-plan harness.
//
// The contract under test (docs/PLAN.md): replaying a recorded plan is
// BITWISE identical to the eager forward — for every batch size and
// thread count, on inputs other than the recording one, and after the
// model's weights or batch-norm statistics change in place (training,
// checkpoint loads).  Plus the structural guarantees: liveness-sound
// buffer offsets, conv→bn→act fusion, im2col reuse, immutable sealed
// plans, per-shape plan caching with permanent eager fallback for
// unsupported recordings.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "models/registry.hpp"
#include "nn/optim.hpp"
#include "nn/serialize.hpp"
#include "pointcloud/pool.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/plan.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;
using tensor::Tensor;
namespace plan = lmmir::tensor::plan;

/// FNV-1a over the float bit patterns — the checksum the golden tests pin.
std::uint64_t fnv1a(const std::vector<float>& v) {
  std::uint64_t h = 1469598103934665603ull;
  for (float f : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int i = 0; i < 4; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Deterministic, platform-independent test data (no RNG, no libm): a
/// small integer pattern scaled into a well-conditioned float range.
std::vector<float> patterned(std::size_t n, float step, unsigned phase) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = step * static_cast<float>(
                      static_cast<int>((i * 37u + phase) % 23u) - 11);
  return v;
}

constexpr int kTinyC = 3;     // input channels
constexpr int kTinySide = 6;  // spatial side
constexpr int kTinyF = 4;     // conv filters
constexpr int kTinyOut = 2;   // head width

/// conv → bn(eval) → relu → reshape → linear: every arithmetic step is
/// exactly rounded (conv/linear dot products, IEEE sqrt in bn), so the
/// outputs — and their checksums — are identical across platforms.
struct TinyPlanNet {
  Tensor wc = Tensor::from_data({kTinyF, kTinyC, 3, 3},
                                patterned(kTinyF * kTinyC * 9, 0.05f, 1));
  Tensor bc = Tensor::from_data({kTinyF}, patterned(kTinyF, 0.02f, 2));
  Tensor gamma = Tensor::from_data({kTinyF}, {1.0f, 0.9f, 1.1f, 1.05f});
  Tensor beta = Tensor::from_data({kTinyF}, {0.01f, -0.02f, 0.0f, 0.03f});
  Tensor rm = Tensor::from_data({kTinyF}, {0.05f, -0.1f, 0.0f, 0.2f});
  Tensor rv = Tensor::from_data({kTinyF}, {1.0f, 0.8f, 1.2f, 0.9f});
  Tensor wl = Tensor::from_data(
      {kTinyOut, kTinyF * kTinySide * kTinySide},
      patterned(kTinyOut * kTinyF * kTinySide * kTinySide, 0.01f, 3));
  Tensor bl = Tensor::from_data({kTinyOut}, patterned(kTinyOut, 0.1f, 4));

  Tensor operator()(const Tensor& x, const Tensor&) {
    Tensor y = tensor::conv2d(x, wc, bc, 1, 1);
    y = tensor::batch_norm2d(y, gamma, beta, rm, rv, /*training=*/false);
    y = tensor::relu(y);
    y = tensor::reshape(y, {x.dim(0), kTinyF * kTinySide * kTinySide});
    return tensor::linear(y, wl, bl);
  }

  plan::PlanRuntime::EagerFn fn() {
    return [this](const Tensor& c, const Tensor& t) { return (*this)(c, t); };
  }
};

Tensor tiny_input(int batch) {
  return Tensor::from_data(
      {batch, kTinyC, kTinySide, kTinySide},
      patterned(static_cast<std::size_t>(batch) * kTinyC * kTinySide *
                    kTinySide,
                0.1f, 7));
}

TEST(PlanRecord, RecordsOnceThenReplaysBitwise) {
  TinyPlanNet net;
  plan::PlanRuntime rt;
  const Tensor x = tiny_input(2);

  tensor::NoGradGuard no_grad;
  const Tensor recorded = rt.run(x, Tensor(), net.fn());  // eager + record
  const Tensor replayed = rt.run(x, Tensor(), net.fn());  // plan replay
  ASSERT_EQ(recorded.numel(), replayed.numel());
  for (std::size_t i = 0; i < recorded.numel(); ++i)
    ASSERT_EQ(recorded.data()[i], replayed.data()[i]) << "diverged at " << i;

  const plan::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.plans_recorded, 1u);
  EXPECT_EQ(s.plans_unsupported, 0u);
  EXPECT_EQ(s.eager_runs, 1u);  // the recording pass
  EXPECT_EQ(s.replays, 1u);

  auto p = rt.plan_for(x, Tensor());
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->supported());
  EXPECT_EQ(p->circuit_shape(), x.shape());
  EXPECT_FALSE(p->has_tokens());
}

// The core differential sweep: batch sizes x thread counts, recording
// pass and replays all bitwise equal to the serial eager reference (and
// therefore to each other).
TEST(PlanDifferential, TinyNetSweepBitwiseAcrossConfigs) {
  TinyPlanNet net;
  for (int batch : {1, 2, 3}) {
    const Tensor x = tiny_input(batch);
    // Reference: eager, one thread, no plan.
    runtime::set_global_threads(1);
    std::vector<float> ref;
    {
      tensor::NoGradGuard no_grad;
      ref = net(x, Tensor()).data();
    }
    const std::uint64_t ref_sum = fnv1a(ref);

    for (std::size_t threads : {1u, 4u, 8u}) {
      runtime::set_global_threads(threads);
      plan::PlanRuntime rt;
      for (int pass = 0; pass < 3; ++pass) {  // record, then two replays
        std::vector<float> got;
        {
          tensor::NoGradGuard no_grad;
          got = rt.run(x, Tensor(), net.fn()).data();
        }
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
          ASSERT_EQ(got[i], ref[i])
              << "batch=" << batch << " threads=" << threads
              << " pass=" << pass << " diverged at " << i;
        ASSERT_EQ(fnv1a(got), ref_sum);
      }
      EXPECT_EQ(rt.stats().replays, 2u);
    }
  }
  runtime::set_global_threads(1);
}

// Golden checksums, hardcoded: TinyPlanNet is libm-free apart from IEEE
// sqrt, so these values pin the numerics of conv, batch-norm folding,
// relu fusion and linear across refactors AND across the scalar/AVX2
// kernel split (the dispatched kernel must reproduce them bit-for-bit).
TEST(PlanDifferential, GoldenChecksums) {
  const std::uint64_t kGolden[] = {0x8d449315082e16e2ull,
                                   0xfec80fc6e5996232ull,
                                   0xc3810cbfca26c8baull};
  TinyPlanNet net;
  plan::PlanRuntime rt;
  tensor::NoGradGuard no_grad;
  for (int batch : {1, 2, 3}) {
    const Tensor x = tiny_input(batch);
    const std::uint64_t eager_sum = fnv1a(net(x, Tensor()).data());
    rt.run(x, Tensor(), net.fn());  // record
    const std::uint64_t replay_sum =
        fnv1a(rt.run(x, Tensor(), net.fn()).data());
    EXPECT_EQ(eager_sum, kGolden[batch - 1])
        << "eager checksum changed for batch " << batch << ": 0x" << std::hex
        << eager_sum;
    EXPECT_EQ(replay_sum, kGolden[batch - 1])
        << "replay checksum changed for batch " << batch << ": 0x" << std::hex
        << replay_sum;
  }
}

// Every registry model must record a supported plan through
// IrModel::predict and replay it bitwise equal to eager forward, across
// thread counts and batch sizes (the models cover both channel counts:
// contest-3 and the full feature stack).  Only the first input of each
// batch size records; the others replay, so a data-dependent constant
// frozen into a plan would diverge here.
TEST(PlanDifferential, RegistryModelsRecordSupportedPlansAndReplayBitwise) {
  constexpr int kSide = 16;
  constexpr int kTokens = 9;
  constexpr int kInputs = 4;
  for (const auto& spec : models::model_registry()) {
    auto model = spec.make(11);
    model->set_training(false);
    const bool full_sweep = spec.name == "LMM-IR";
    const auto threads = full_sweep ? std::vector<std::size_t>{1, 4, 8}
                                    : std::vector<std::size_t>{1, 4};
    util::Rng rng(117);
    std::size_t predicts = 0;
    for (int batch : {1, 2}) {
      std::vector<Tensor> circuits, tokens;
      std::vector<std::vector<float>> refs;
      runtime::set_global_threads(1);
      for (int i = 0; i < kInputs; ++i) {
        circuits.push_back(Tensor::randn(
            {batch, model->in_channels(), kSide, kSide}, rng, 0.5f));
        tokens.push_back(
            Tensor::randn({batch, kTokens, pc::kTokenFeatureDim}, rng, 0.5f));
        tensor::NoGradGuard no_grad;
        refs.push_back(model->forward(circuits.back(), tokens.back()).data());
      }
      for (std::size_t t : threads) {
        runtime::set_global_threads(t);
        for (int i = 0; i < kInputs; ++i) {
          const std::vector<float> got =
              model->predict(circuits[static_cast<std::size_t>(i)],
                             tokens[static_cast<std::size_t>(i)])
                  .data();
          ++predicts;
          const std::vector<float>& ref = refs[static_cast<std::size_t>(i)];
          ASSERT_EQ(got.size(), ref.size()) << spec.name;
          for (std::size_t j = 0; j < ref.size(); ++j)
            ASSERT_EQ(got[j], ref[j])
                << spec.name << " batch=" << batch << " threads=" << t
                << " input=" << i << " diverged at " << j;
        }
      }
      auto p = model->plan_runtime().plan_for(circuits[0], tokens[0]);
      ASSERT_NE(p, nullptr) << spec.name;
      EXPECT_TRUE(p->supported())
          << spec.name << ": " << p->unsupported_reason();
    }
    // One recording pass per batch size; every other call replayed.
    const plan::RuntimeStats st = model->plan_runtime().stats();
    EXPECT_EQ(st.plans_recorded, 2u) << spec.name;
    EXPECT_EQ(st.eager_runs, 2u) << spec.name;
    EXPECT_EQ(st.replays, predicts - 2) << spec.name;
  }
  runtime::set_global_threads(1);
}

// ---- plans follow in-place model-state changes ----------------------------

constexpr int kStaleSide = 16;
constexpr int kStaleTokens = 9;

struct StaleInput {
  Tensor circuit, tokens;
};

StaleInput stale_input(const models::IrModel& model, int batch,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  StaleInput in;
  in.circuit = Tensor::randn(
      {batch, model.in_channels(), kStaleSide, kStaleSide}, rng, 0.5f);
  in.tokens =
      Tensor::randn({batch, kStaleTokens, pc::kTokenFeatureDim}, rng, 0.5f);
  return in;
}

std::vector<float> eager(models::IrModel& model, const StaleInput& in) {
  tensor::NoGradGuard no_grad;
  return model.forward(in.circuit, in.tokens).data();
}

/// Training-mode forwards (moving the batch-norm running statistics) and
/// optimizer steps (moving the weights), as train::fit would run them.
void train_steps(models::IrModel& model, int steps) {
  model.set_training(true);
  nn::Sgd opt(model.parameters(), 0.05f);
  for (int i = 0; i < steps; ++i) {
    const StaleInput in = stale_input(model, 2, 900 + static_cast<unsigned>(i));
    opt.zero_grad();
    tensor::mean_all(model.forward(in.circuit, in.tokens)).backward();
    opt.step();
  }
  model.set_training(false);
}

TEST(PlanStaleness, PredictAfterTrainingMatchesEager) {
  auto model = models::make_model("LMM-IR", 11);
  model->set_training(false);
  const StaleInput in = stale_input(*model, 1, 5);
  const std::vector<float> before = model->predict(in.circuit, in.tokens).data();
  ASSERT_EQ(before, eager(*model, in));  // the recording pass

  train_steps(*model, 3);
  const std::vector<float> after = model->predict(in.circuit, in.tokens).data();
  EXPECT_EQ(after, eager(*model, in));
  EXPECT_NE(after, before);  // training really moved the output
  EXPECT_EQ(model->plan_runtime().stats().plans_recorded, 1u);
  EXPECT_EQ(model->plan_runtime().stats().replays, 1u);
}

TEST(PlanStaleness, PredictAfterCheckpointLoadMatchesEager) {
  // The donor starts from the same weights; its training moves both the
  // weights and the batch-norm running statistics the checkpoint carries.
  auto model = models::make_model("LMM-IR", 11);
  auto donor = models::make_model("LMM-IR", 11);
  train_steps(*donor, 2);
  const std::string path = ::testing::TempDir() + "plan_staleness.ckpt";
  nn::save_checkpoint(*donor, path);

  model->set_training(false);
  const StaleInput in = stale_input(*model, 2, 6);
  const std::vector<float> before = model->predict(in.circuit, in.tokens).data();
  nn::load_checkpoint(*model, path);
  std::remove(path.c_str());
  const std::vector<float> after = model->predict(in.circuit, in.tokens).data();
  EXPECT_EQ(after, eager(*model, in));
  EXPECT_EQ(after, eager(*donor, in));
  EXPECT_NE(after, before);
  EXPECT_EQ(model->plan_runtime().stats().replays, 1u);
}

TEST(PlanStaleness, TrainingModePredictRunsEagerAndRecordsNothing) {
  // Training-mode batch norm normalizes with batch statistics, so the
  // output does not depend on the running statistics it updates.
  auto model = models::make_model("LMM-IR", 11);
  model->set_training(true);
  const StaleInput in = stale_input(*model, 2, 7);
  EXPECT_EQ(model->predict(in.circuit, in.tokens).data(), eager(*model, in));
  EXPECT_EQ(model->plan_runtime().plan_for(in.circuit, in.tokens), nullptr);
  EXPECT_EQ(model->plan_runtime().stats().eager_runs, 0u);

  model->set_training(false);
  for (int i = 0; i < 2; ++i)  // record, then replay
    EXPECT_EQ(model->predict(in.circuit, in.tokens).data(), eager(*model, in))
        << "call " << i;
  const plan::RuntimeStats st = model->plan_runtime().stats();
  EXPECT_EQ(st.plans_recorded, 1u);
  EXPECT_EQ(st.replays, 1u);
}

// ---- memory-plan properties ---------------------------------------------

std::shared_ptr<const plan::InferencePlan> record_tiny_plan(int batch) {
  TinyPlanNet net;
  plan::PlanRuntime rt;
  tensor::NoGradGuard no_grad;
  const Tensor x = tiny_input(batch);
  rt.run(x, Tensor(), net.fn());
  auto p = rt.plan_for(x, Tensor());
  EXPECT_NE(p, nullptr);
  return p;
}

TEST(PlanMemory, OffsetsRespectLivenessAndAlignment) {
  auto p = record_tiny_plan(2);
  ASSERT_TRUE(p->supported());
  const auto& bufs = p->buffers();
  ASSERT_FALSE(bufs.empty());
  std::size_t high_water = 0;
  for (const auto& b : bufs) {
    EXPECT_EQ(b.offset % 16, 0u) << "buffer for value " << b.value;
    EXPECT_GT(b.floats, 0u);
    EXPECT_LE(b.def, b.last);
    high_water = std::max(high_water, b.offset + b.floats);
    // No value fused away may own storage.
    EXPECT_FALSE(p->values()[static_cast<std::size_t>(b.value)].eliminated);
  }
  EXPECT_LE(high_water, p->arena_floats());
  EXPECT_GE(p->arena_floats(), p->peak_live_floats());

  // The load-bearing invariant: buffers live at the same time never share
  // arena bytes.
  for (std::size_t i = 0; i < bufs.size(); ++i)
    for (std::size_t j = i + 1; j < bufs.size(); ++j) {
      const auto& a = bufs[i];
      const auto& b = bufs[j];
      const bool time_overlap = a.def <= b.last && b.def <= a.last;
      const bool space_overlap =
          a.offset < b.offset + b.floats && b.offset < a.offset + a.floats;
      EXPECT_FALSE(time_overlap && space_overlap)
          << "values " << a.value << " and " << b.value
          << " overlap in both time and space";
    }
}

TEST(PlanMemory, SequentialChainReusesArenaSlots) {
  // Four equally-sized temps with strictly sequential lifetimes: the
  // planner must pack them into less storage than their sum (slots are
  // recycled as lifetimes end).  No conv, so fusion leaves all steps.
  plan::PlanRuntime rt;
  auto fn = [](const Tensor& c, const Tensor&) {
    return tensor::sigmoid(tensor::relu(tensor::sigmoid(tensor::relu(c))));
  };
  tensor::NoGradGuard no_grad;
  const Tensor x = Tensor::from_data({2, 8, 8}, patterned(128, 0.1f, 5));
  rt.run(x, Tensor(), fn);
  auto p = rt.plan_for(x, Tensor());
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->supported());
  std::size_t sum = 0;
  for (const auto& b : p->buffers()) sum += b.floats;
  EXPECT_GT(sum, p->arena_floats());  // reuse actually happened
  // Bitwise identity still holds through the packed arena.
  const std::vector<float> ref = fn(x, Tensor()).data();
  const std::vector<float> got = rt.run(x, Tensor(), fn).data();
  EXPECT_EQ(ref, got);
}

// ---- fusion / im2col annotations ----------------------------------------

TEST(PlanFusion, ConvBnReluFoldIntoTheConvStep) {
  auto p = record_tiny_plan(1);
  ASSERT_TRUE(p->supported());
  // bn + relu fold into the conv's output loop; reshape and linear stay.
  EXPECT_EQ(p->fused_ops(), 2u);
  EXPECT_EQ(p->steps().size(), 5u);
  EXPECT_EQ(p->live_steps(), 3u);
  const auto& conv = p->steps().front();
  ASSERT_EQ(conv.kind, plan::OpKind::kConv2d);
  ASSERT_EQ(conv.fused.size(), 2u);
  EXPECT_EQ(conv.fused[0].kind, plan::OpKind::kBatchNorm2dEval);
  EXPECT_EQ(conv.fused[1].kind, plan::OpKind::kRelu);
  // The two intermediates (conv raw output is retargeted; bn output is
  // eliminated) must not own arena storage.
  std::size_t eliminated = 0;
  for (const auto& v : p->values()) eliminated += v.eliminated ? 1 : 0;
  EXPECT_EQ(eliminated, 2u);
}

TEST(PlanFusion, Im2colReuseForSameGeometrySiblingConvs) {
  // Two convs over the same input with identical geometry: the second
  // reuses the first's column matrix (batch 1 gates the annotation).
  Tensor w1 = Tensor::from_data({2, 3, 3, 3}, patterned(54, 0.05f, 1));
  Tensor w2 = Tensor::from_data({2, 3, 3, 3}, patterned(54, 0.04f, 9));
  Tensor b = Tensor::from_data({2}, {0.1f, -0.1f});
  auto fn = [&](const Tensor& c, const Tensor&) {
    return tensor::add(tensor::conv2d(c, w1, b, 1, 1),
                       tensor::conv2d(c, w2, b, 1, 1));
  };
  plan::PlanRuntime rt;
  tensor::NoGradGuard no_grad;
  const Tensor x = Tensor::from_data({1, 3, 6, 6}, patterned(108, 0.1f, 3));
  rt.run(x, Tensor(), fn);
  auto p = rt.plan_for(x, Tensor());
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(p->supported());
  ASSERT_EQ(p->steps().size(), 3u);
  EXPECT_FALSE(p->steps()[0].reuse_im2col);
  EXPECT_TRUE(p->steps()[1].reuse_im2col);
  // And the reuse is behavior-preserving.
  const std::vector<float> ref = fn(x, Tensor()).data();
  EXPECT_EQ(rt.run(x, Tensor(), fn).data(), ref);
}

// ---- recording-scope contract -------------------------------------------

TEST(PlanRecorder, SealedPlansAreImmutable) {
  plan::PlanRecorder rec;
  const Tensor x = Tensor::from_data({4}, {1.0f, -2.0f, 3.0f, -4.0f});
  rec.bind_inputs(x, Tensor());
  plan::RecordScope scope(rec);
  const Tensor y = tensor::relu(x);
  auto p = rec.seal(y);
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(p->supported());
  EXPECT_TRUE(rec.sealed());
  EXPECT_THROW(rec.seal(y), std::logic_error);
  // Recording another op into a sealed plan must throw, not corrupt it.
  EXPECT_THROW(tensor::relu(x), std::logic_error);
}

TEST(PlanRecorder, ScopesDoNotNest) {
  plan::PlanRecorder outer, inner;
  plan::RecordScope scope(outer);
  EXPECT_THROW(plan::RecordScope nested(inner), std::logic_error);
}

TEST(PlanExecutor, ReplayAfterShapeChangeIsRejected) {
  auto p = record_tiny_plan(2);
  ASSERT_TRUE(p->supported());
  plan::PlanExecutor exec(p);
  // Matching shape runs...
  EXPECT_NO_THROW(exec.run(tiny_input(2), Tensor()));
  // ...any other shape is a hard error, never a silent mis-replay.
  EXPECT_THROW(exec.run(tiny_input(1), Tensor()), std::logic_error);
  EXPECT_THROW(
      exec.run(Tensor::from_data({2, kTinyC, kTinySide * kTinySide},
                                 patterned(2 * kTinyC * 36, 0.1f, 7)),
               Tensor()),
      std::logic_error);
}

// ---- runtime cache behavior ---------------------------------------------

TEST(PlanRuntime, EachShapeGetsItsOwnPlan) {
  TinyPlanNet net;
  plan::PlanRuntime rt;
  tensor::NoGradGuard no_grad;
  const Tensor x1 = tiny_input(1);
  const Tensor x2 = tiny_input(2);
  rt.run(x1, Tensor(), net.fn());
  rt.run(x2, Tensor(), net.fn());
  rt.run(x1, Tensor(), net.fn());
  rt.run(x2, Tensor(), net.fn());
  const plan::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.plans_recorded, 2u);
  EXPECT_EQ(s.replays, 2u);
  auto p1 = rt.plan_for(x1, Tensor());
  auto p2 = rt.plan_for(x2, Tensor());
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(p1->circuit_shape()[0], 1);
  EXPECT_EQ(p2->circuit_shape()[0], 2);
}

TEST(PlanRuntime, UnsupportedRecordingFallsBackPermanently) {
  // Training-mode batch norm mutates running stats per pass — a plan
  // cannot replay it, so the shape key must permanently run eager.
  Tensor gamma = Tensor::from_data({kTinyC}, {1.0f, 1.0f, 1.0f});
  Tensor beta = Tensor::from_data({kTinyC}, {0.0f, 0.0f, 0.0f});
  Tensor rm = Tensor::zeros({kTinyC});
  Tensor rv = Tensor::full({kTinyC}, 1.0f);
  auto fn = [&](const Tensor& c, const Tensor&) {
    return tensor::batch_norm2d(c, gamma, beta, rm, rv, /*training=*/true);
  };
  plan::PlanRuntime rt;
  tensor::NoGradGuard no_grad;
  const Tensor x = tiny_input(2);
  const std::vector<float> first = rt.run(x, Tensor(), fn).data();
  rt.run(x, Tensor(), fn);
  rt.run(x, Tensor(), fn);
  const plan::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.plans_unsupported, 1u);
  EXPECT_EQ(s.plans_recorded, 0u);
  EXPECT_EQ(s.replays, 0u);
  EXPECT_EQ(s.eager_runs, 3u);
  auto p = rt.plan_for(x, Tensor());
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(p->supported());
  EXPECT_NE(p->unsupported_reason().find("training"), std::string::npos);
  ASSERT_FALSE(first.empty());
}

TEST(PlanRuntime, RecordingExceptionIsRetryable) {
  TinyPlanNet net;
  plan::PlanRuntime rt;
  tensor::NoGradGuard no_grad;
  const Tensor x = tiny_input(1);
  int calls = 0;
  auto flaky = [&](const Tensor& c, const Tensor& t) -> Tensor {
    if (++calls == 1) throw std::runtime_error("transient failure");
    return net(c, t);
  };
  EXPECT_THROW(rt.run(x, Tensor(), flaky), std::runtime_error);
  // The failed recording must not poison the shape key.
  const std::vector<float> recorded = rt.run(x, Tensor(), flaky).data();
  const std::vector<float> replayed = rt.run(x, Tensor(), flaky).data();
  EXPECT_EQ(recorded, replayed);
  const plan::RuntimeStats s = rt.stats();
  EXPECT_EQ(s.plans_recorded, 1u);
  EXPECT_EQ(s.replays, 1u);
}

}  // namespace
