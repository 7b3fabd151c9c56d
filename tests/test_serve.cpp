// serve: dynamic batching correctness (batched == sequential bitwise),
// latency stats, shape handling, shutdown semantics.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "features/maps.hpp"
#include "models/registry.hpp"
#include "pointcloud/pool.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;
using tensor::Tensor;

constexpr int kSide = 16;  // divisible by 2^levels of the default LMM-IR
constexpr int kTokens = 9;

serve::PredictRequest make_request(util::Rng& rng, const std::string& id) {
  serve::PredictRequest r;
  r.id = id;
  r.circuit = Tensor::randn({feat::kChannelCount, kSide, kSide}, rng, 0.5f);
  r.tokens = Tensor::randn({kTokens, pc::kTokenFeatureDim}, rng, 0.5f);
  return r;
}

/// Reference path: single-request forward, exactly what the offline
/// Pipeline/evaluate code does per sample.
std::vector<float> sequential_prediction(models::IrModel& model,
                                         const serve::PredictRequest& req) {
  tensor::NoGradGuard no_grad;
  model.set_training(false);
  const auto& cs = req.circuit.shape();
  Tensor circuit =
      Tensor::from_data({1, cs[0], cs[1], cs[2]}, req.circuit.data());
  circuit = data::slice_channels(circuit, model.in_channels());
  Tensor tokens;
  if (req.tokens.defined()) {
    const auto& ts = req.tokens.shape();
    tokens = Tensor::from_data({1, ts[0], ts[1]}, req.tokens.data());
  }
  return model.forward(circuit, tokens).data();
}

TEST(Serve, BatchedMatchesSequentialBitwise) {
  runtime::set_global_threads(2);
  auto model = std::shared_ptr<models::IrModel>(models::make_model("LMM-IR"));

  util::Rng rng(321);
  std::vector<serve::PredictRequest> reqs;
  for (int i = 0; i < 6; ++i)
    reqs.push_back(make_request(rng, "case" + std::to_string(i)));

  std::vector<std::vector<float>> expected;
  for (const auto& r : reqs)
    expected.push_back(sequential_prediction(*model, r));

  serve::ServeOptions opts;
  opts.max_batch = 4;
  // Wide window so coalescing is robust to scheduler stalls between the
  // submits below; full batches dispatch as soon as they fill, so the
  // test doesn't actually wait this long.
  opts.max_wait_us = 500000;
  serve::InferenceServer server(model, opts);
  std::vector<std::future<serve::PredictResult>> futs;
  for (const auto& r : reqs) futs.push_back(server.submit(r));

  bool saw_multi_request_batch = false;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::PredictResult res = futs[i].get();
    EXPECT_EQ(res.id, reqs[i].id);
    ASSERT_EQ(res.map.ndim(), 3);
    EXPECT_EQ(res.map.dim(1), kSide);
    ASSERT_EQ(res.map.numel(), expected[i].size());
    for (std::size_t j = 0; j < expected[i].size(); ++j)
      ASSERT_EQ(res.map.data()[j], expected[i][j])
          << "request " << i << " diverged at " << j;
    EXPECT_GE(res.batch_size, 1u);
    EXPECT_LE(res.batch_size, opts.max_batch);
    saw_multi_request_batch |= res.batch_size > 1;
  }
  EXPECT_TRUE(saw_multi_request_batch);
  runtime::set_global_threads(1);
}

TEST(Serve, StatsPopulated) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::InferenceServer server(model, {});
  util::Rng rng(9);
  for (int i = 0; i < 5; ++i)
    server.predict(make_request(rng, "r" + std::to_string(i)));

  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 5u);
  EXPECT_GE(s.batches, 1u);
  EXPECT_GT(s.p50_us, 0.0);
  EXPECT_GE(s.p95_us, s.p50_us);
  EXPECT_GE(s.p99_us, s.p95_us);
  EXPECT_GE(s.max_us, s.p99_us);
  EXPECT_GT(s.mean_us, 0.0);
  EXPECT_GT(s.throughput_rps, 0.0);
  EXPECT_GE(s.mean_batch, 1.0);
  EXPECT_GE(s.max_batch_seen, 1u);
}

TEST(Serve, MixedShapesAreServedInSeparateBatches) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.max_wait_us = 5000;
  serve::InferenceServer server(model, opts);
  util::Rng rng(4);

  serve::PredictRequest small = make_request(rng, "small");
  serve::PredictRequest big;
  big.id = "big";
  big.circuit =
      Tensor::randn({feat::kChannelCount, 2 * kSide, 2 * kSide}, rng, 0.5f);
  big.tokens = Tensor::randn({kTokens, pc::kTokenFeatureDim}, rng, 0.5f);

  auto f1 = server.submit(small);
  auto f2 = server.submit(big);
  const auto r1 = f1.get();
  const auto r2 = f2.get();
  EXPECT_EQ(r1.map.dim(1), kSide);
  EXPECT_EQ(r2.map.dim(1), 2 * kSide);
}

TEST(Serve, RejectsMalformedRequests) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::InferenceServer server(model, {});
  serve::PredictRequest bad;
  EXPECT_THROW(server.submit(std::move(bad)), std::invalid_argument);

  serve::PredictRequest thin;  // fewer channels than the model consumes
  util::Rng rng(1);
  thin.circuit = Tensor::randn({1, kSide, kSide}, rng);
  EXPECT_THROW(server.submit(std::move(thin)), std::invalid_argument);
}

TEST(Serve, ShutdownDrainsThenRejects) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.max_wait_us = 10000;
  auto server = std::make_unique<serve::InferenceServer>(model, opts);
  util::Rng rng(2);
  std::vector<std::future<serve::PredictResult>> futs;
  for (int i = 0; i < 4; ++i)
    futs.push_back(server->submit(make_request(rng, "d" + std::to_string(i))));
  server->shutdown();
  for (auto& f : futs) EXPECT_NO_THROW(f.get());  // queued work still served
  EXPECT_THROW(server->submit(make_request(rng, "late")), std::runtime_error);
}

TEST(Serve, BackpressureRejectsWhenQueueFull) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.max_batch = 8;          // dispatcher holds the window open...
  opts.max_wait_us = 500000;   // ...long enough for the queue to fill
  opts.max_queue = 2;
  serve::InferenceServer server(model, opts);
  util::Rng rng(3);
  auto f1 = server.submit(make_request(rng, "q1"));
  auto f2 = server.submit(make_request(rng, "q2"));
  EXPECT_THROW(server.submit(make_request(rng, "q3")), std::runtime_error);
  EXPECT_NO_THROW(f1.get());
  EXPECT_NO_THROW(f2.get());
}

TEST(Serve, MultipleDispatchersServeConcurrentClients) {
  runtime::set_global_threads(1);
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.worker_threads = 2;
  opts.max_batch = 2;
  serve::InferenceServer server(model, opts);

  util::Rng rng(8);
  std::vector<serve::PredictRequest> reqs;
  for (int i = 0; i < 8; ++i)
    reqs.push_back(make_request(rng, "c" + std::to_string(i)));
  std::vector<std::vector<float>> expected;
  for (const auto& r : reqs)
    expected.push_back(sequential_prediction(*model, r));

  std::vector<std::future<serve::PredictResult>> futs;
  for (const auto& r : reqs) futs.push_back(server.submit(r));
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto res = futs[i].get();
    ASSERT_EQ(res.map.numel(), expected[i].size());
    for (std::size_t j = 0; j < expected[i].size(); ++j)
      ASSERT_EQ(res.map.data()[j], expected[i][j]);
  }
  EXPECT_EQ(server.stats().completed, 8u);
}

TEST(Serve, PipelineFacadeAndRestore) {
  core::PipelineOptions po;
  po.sample.input_side = kSide;
  po.sample.pc_grid = 2;
  core::Pipeline pipe(po);
  auto server = pipe.make_server(
      std::shared_ptr<models::IrModel>(models::make_model("LMM-IR")));
  ASSERT_NE(server, nullptr);

  util::Rng rng(5);
  const auto res = server->predict(make_request(rng, "facade"));
  EXPECT_EQ(res.id, "facade");

  // restore_percent_map inverts the target scaling (identity adjust).
  data::Sample s;
  s.adjust.orig_rows = kSide;
  s.adjust.orig_cols = kSide;
  s.adjust.side = kSide;
  const grid::Grid2D map = serve::restore_percent_map(res, s);
  EXPECT_EQ(map.rows(), static_cast<std::size_t>(kSide));
  EXPECT_EQ(map.cols(), static_cast<std::size_t>(kSide));
}

TEST(Serve, ServedMapsMatchEagerAcrossThreadsAndBatching) {
  // Every registry model, served at batch 1 and batched, with the pool at
  // 1 and 4 threads: each map equals the eager single-request forward,
  // bitwise.  Only the first batch of each shape records; the rest replay
  // the model's plan on inputs other than the recording input.
  for (const auto& spec : models::model_registry()) {
    auto model = std::shared_ptr<models::IrModel>(spec.make(11));
    util::Rng rng(777);
    std::vector<serve::PredictRequest> reqs;
    for (int i = 0; i < 4; ++i)
      reqs.push_back(make_request(rng, spec.name + std::to_string(i)));
    std::vector<std::vector<float>> expected;
    for (const auto& r : reqs)
      expected.push_back(sequential_prediction(*model, r));

    for (std::size_t threads : {1u, 4u}) {
      runtime::set_global_threads(threads);
      for (std::size_t max_batch : {1u, 4u}) {
        serve::ServeOptions opts;
        opts.max_batch = max_batch;
        opts.max_wait_us = 200000;  // the four submits below fill a batch
        serve::InferenceServer server(model, opts);
        std::vector<std::future<serve::PredictResult>> futs;
        for (const auto& r : reqs) futs.push_back(server.submit(r));
        for (std::size_t i = 0; i < reqs.size(); ++i)
          EXPECT_EQ(futs[i].get().map.data(), expected[i])
              << spec.name << " threads=" << threads
              << " max_batch=" << max_batch << " request=" << i;
      }
    }
    EXPECT_GT(model->plan_runtime().stats().replays, 0u) << spec.name;
  }
  runtime::set_global_threads(1);
}

TEST(ServeAdmission, ThroughputHelperGuardsDegenerateSpans) {
  EXPECT_EQ(serve::throughput_rps(0, 5.0), 0.0);       // nothing completed
  EXPECT_EQ(serve::throughput_rps(10, 0.0), 0.0);      // zero span
  EXPECT_EQ(serve::throughput_rps(10, -1.0), 0.0);     // negative span
  EXPECT_DOUBLE_EQ(serve::throughput_rps(10, 2.0), 5.0);
}

TEST(ServeAdmission, QueueFullRejectionIsTypedWithRetryHint) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 500000;  // hold the window open while the queue fills
  opts.max_queue = 1;
  serve::InferenceServer server(model, opts);
  util::Rng rng(11);
  auto f1 = server.submit(make_request(rng, "t1"));
  try {
    server.submit(make_request(rng, "t2"));
    FAIL() << "expected RejectedError";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.reason(), serve::RejectReason::QueueFull);
    EXPECT_GT(e.retry_after_us(), 0u);  // hint: one batching window
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  EXPECT_NO_THROW(f1.get());
  EXPECT_EQ(server.stats().rejected_queue_full, 1u);
}

TEST(ServeAdmission, ShutdownRejectionIsTyped) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::InferenceServer server(model, {});
  server.shutdown();
  util::Rng rng(12);
  try {
    server.submit(make_request(rng, "late"));
    FAIL() << "expected RejectedError";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.reason(), serve::RejectReason::Shutdown);
    EXPECT_EQ(e.retry_after_us(), 0u);  // permanent for this server
  }
}

// Regression for the admission-ordering bug: submit() used to stamp the
// lifetime/throughput bookkeeping (first_submit_) BEFORE the admission
// checks, so a rejected submission skewed the throughput span.  Rejected
// submissions must leave stats untouched: a server that only ever
// rejected reports zero completions and zero throughput, not NaN/inf or
// a span anchored at the rejected arrival.
TEST(ServeAdmission, RejectedSubmitLeavesBookkeepingUntouched) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::InferenceServer server(model, {});
  server.shutdown();
  util::Rng rng(13);
  EXPECT_THROW(server.submit(make_request(rng, "r")), serve::RejectedError);
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 0u);
  EXPECT_EQ(s.rejected_shutdown, 1u);
  EXPECT_EQ(s.throughput_rps, 0.0);
}

TEST(ServeAdmission, DeadlineExpiredRequestsDropAtBatchFormation) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.max_batch = 8;
  opts.max_wait_us = 20000;  // window long enough for the deadline to blow
  serve::InferenceServer server(model, opts);
  util::Rng rng(14);

  serve::PredictRequest doomed = make_request(rng, "doomed");
  doomed.deadline_us = 1;  // expires while waiting out the batching window
  serve::PredictRequest healthy = make_request(rng, "healthy");

  auto f_doomed = server.submit(std::move(doomed));
  auto f_healthy = server.submit(std::move(healthy));

  try {
    f_doomed.get();
    FAIL() << "expected RejectedError{DeadlineExceeded}";
  } catch (const serve::RejectedError& e) {
    EXPECT_EQ(e.reason(), serve::RejectReason::DeadlineExceeded);
  }
  // The co-queued request without a deadline is still served normally.
  EXPECT_NO_THROW(f_healthy.get());
  const serve::ServerStats s = server.stats();
  EXPECT_EQ(s.timed_out, 1u);
  EXPECT_EQ(s.completed, 1u);
}

TEST(ServeAdmission, GenerousDeadlineIsHarmless) {
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::InferenceServer server(model, {});
  util::Rng rng(15);
  serve::PredictRequest req = make_request(rng, "relaxed");
  req.deadline_us = 60u * 1000u * 1000u;
  EXPECT_NO_THROW(server.submit(std::move(req)).get());
  EXPECT_EQ(server.stats().timed_out, 0u);
}

TEST(ServePlan, PlanReplayMatchesSequentialBitwiseAndCaches) {
  runtime::set_global_threads(1);
  auto model = std::shared_ptr<models::IrModel>(models::make_model("LMM-IR"));
  util::Rng rng(555);
  std::vector<serve::PredictRequest> reqs;
  for (int i = 0; i < 5; ++i)
    reqs.push_back(make_request(rng, "plan" + std::to_string(i)));

  std::vector<std::vector<float>> expected;
  for (const auto& r : reqs)
    expected.push_back(sequential_prediction(*model, r));

  serve::ServeOptions opts;
  opts.max_batch = 1;       // every batch shares one shape key
  opts.worker_threads = 1;
  serve::InferenceServer server(model, opts);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const serve::PredictResult res = server.predict(reqs[i]);
    ASSERT_EQ(res.map.numel(), expected[i].size());
    for (std::size_t j = 0; j < expected[i].size(); ++j)
      ASSERT_EQ(res.map.data()[j], expected[i][j])
          << "request " << i << " diverged at " << j;
  }
  // First batch recorded; every later same-shape batch replayed the plan.
  const tensor::plan::RuntimeStats ps = server.plan_stats();
  EXPECT_EQ(ps.plans_recorded, 1u);
  EXPECT_EQ(ps.plans_unsupported, 0u);
  EXPECT_EQ(ps.eager_runs, 1u);
  EXPECT_EQ(ps.replays, reqs.size() - 1);
}

TEST(ServePlan, DistinctBatchShapesGetDistinctPlans) {
  runtime::set_global_threads(1);
  auto model = std::shared_ptr<models::IrModel>(models::make_model("IREDGe"));
  serve::ServeOptions opts;
  opts.max_wait_us = 0;  // no coalescing: deterministic batch shapes
  serve::InferenceServer server(model, opts);
  util::Rng rng(41);
  serve::PredictRequest small;
  small.id = "small";
  small.circuit = Tensor::randn({feat::kChannelCount, kSide, kSide}, rng,
                                0.5f);
  serve::PredictRequest large;
  large.id = "large";
  large.circuit = Tensor::randn({feat::kChannelCount, 2 * kSide, 2 * kSide},
                                rng, 0.5f);
  server.predict(small);
  server.predict(large);
  server.predict(small);
  server.predict(large);
  const tensor::plan::RuntimeStats ps = server.plan_stats();
  EXPECT_EQ(ps.plans_recorded, 2u);
  EXPECT_EQ(ps.replays, 2u);
}

}  // namespace
