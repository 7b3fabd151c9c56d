// serve sessions: raw-netlist requests, revision-keyed featurization
// reuse, LRU + memory-budget eviction, concurrency and shutdown races.
#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "data/dataset.hpp"
#include "features/maps.hpp"
#include "gen/began.hpp"
#include "models/registry.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/session.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;

constexpr std::size_t kSide = 16;  // divisible by 2^levels of LMM-IR

std::string tiny_netlist_text(std::uint64_t seed) {
  gen::GeneratorConfig cfg;
  cfg.name = "sess" + std::to_string(seed);
  cfg.width_um = cfg.height_um = 24.0;
  cfg.seed = seed;
  cfg.use_default_stack();
  return spice::write_netlist_string(gen::generate_pdn(cfg));
}

serve::SessionServeOptions tiny_options() {
  serve::SessionServeOptions opts;
  opts.sample.input_side = kSide;
  opts.sample.pc_grid = 2;
  return opts;
}

std::shared_ptr<models::IrModel> tiny_model() {
  return std::shared_ptr<models::IrModel>(models::make_model("LMM-IR"));
}

serve::SessionRequest full_request(const std::string& session,
                                   const std::string& text) {
  serve::SessionRequest req;
  req.session_id = session;
  req.id = session + "/full";
  req.netlist_text = text;
  return req;
}

/// Indices+values rescaling every current source by `factor` (the
/// load-sweep delta shape).
std::vector<serve::ValueEdit> current_sweep(const std::string& text,
                                            double factor) {
  const spice::Netlist nl = spice::parse_netlist_string(text);
  std::vector<serve::ValueEdit> edits;
  const auto& els = nl.elements();
  for (std::size_t i = 0; i < els.size(); ++i)
    if (els[i].type == spice::ElementType::CurrentSource)
      edits.push_back({i, els[i].value * factor});
  return edits;
}

/// The served map must equal the eager forward of `netlist`, bitwise.
void expect_eager_map(models::IrModel& model, const spice::Netlist& netlist,
                      const data::SampleOptions& sample,
                      const serve::SessionResult& served, const char* what) {
  const data::FeaturizedNetlist f = data::featurize_netlist(netlist, sample);
  const auto& cs = f.circuit.shape();
  const auto& ts = f.tokens.shape();
  std::vector<float> eager;
  {
    tensor::NoGradGuard no_grad;
    const tensor::Tensor circuit = data::slice_channels(
        tensor::Tensor::from_data({1, cs[0], cs[1], cs[2]}, f.circuit.data()),
        model.in_channels());
    eager = model
                .forward(circuit, tensor::Tensor::from_data(
                                      {1, ts[0], ts[1]}, f.tokens.data()))
                .data();
  }
  EXPECT_EQ(served.map.data(), eager) << what << " differs from eager";
}

TEST(SessionServer, RawNetlistRoundTripAndRevisionSemantics) {
  auto server = std::make_unique<serve::SessionServer>(tiny_model(),
                                                       tiny_options());
  const std::string text = tiny_netlist_text(101);

  // Cold: session miss, all six channels computed.
  serve::SessionResult first = server->predict(full_request("a", text));
  EXPECT_FALSE(first.session_hit);
  EXPECT_FALSE(first.revision_reuse);
  EXPECT_EQ(first.channels_computed,
            static_cast<std::size_t>(feat::kChannelCount));
  EXPECT_GT(first.revision, 0u);
  ASSERT_EQ(first.map.ndim(), 3);
  EXPECT_EQ(first.map.dim(1), static_cast<int>(kSide));
  EXPECT_GT(first.percent_map.rows(), 0u);

  // Replay (no text, no edits): revision fast path, featurizer skipped.
  serve::SessionRequest replay;
  replay.session_id = "a";
  replay.id = "a/replay";
  serve::SessionResult again = server->predict(std::move(replay));
  EXPECT_TRUE(again.session_hit);
  EXPECT_TRUE(again.revision_reuse);
  EXPECT_EQ(again.revision, first.revision);
  ASSERT_EQ(again.map.numel(), first.map.numel());
  for (std::size_t j = 0; j < first.map.numel(); ++j)
    ASSERT_EQ(again.map.data()[j], first.map.data()[j]);

  // Load-sweep delta: warm hit, topology-invariant channels reused.
  serve::SessionRequest delta;
  delta.session_id = "a";
  delta.id = "a/sweep";
  delta.edits = current_sweep(text, 1.25);
  delta.base_revision = first.revision;  // optimistic check passes
  serve::SessionResult swept = server->predict(std::move(delta));
  EXPECT_TRUE(swept.session_hit);
  EXPECT_FALSE(swept.revision_reuse);
  EXPECT_NE(swept.revision, first.revision);
  EXPECT_GE(swept.channels_reused, 4u);
  EXPECT_LE(swept.channels_computed, 2u);

  const serve::SessionCacheStats s = server->cache_stats();
  EXPECT_EQ(s.requests, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.revision_reuses, 1u);
  EXPECT_EQ(s.sessions, 1u);
  EXPECT_GT(s.resident_bytes, 0u);
  EXPECT_GE(s.peak_resident_bytes, s.resident_bytes);
}

TEST(SessionServer, MalformedRequestsAreTypedErrors) {
  auto server = std::make_unique<serve::SessionServer>(tiny_model(),
                                                       tiny_options());
  // Delta against a session that was never opened.
  serve::SessionRequest orphan;
  orphan.session_id = "ghost";
  orphan.edits = {{0, 1.0}};
  EXPECT_THROW(server->submit(std::move(orphan)), std::invalid_argument);

  const std::string text = tiny_netlist_text(102);
  serve::SessionResult first = server->predict(full_request("s", text));

  // Stale optimistic-concurrency token.
  serve::SessionRequest stale;
  stale.session_id = "s";
  stale.edits = current_sweep(text, 2.0);
  stale.base_revision = first.revision + 999;
  EXPECT_THROW(server->submit(std::move(stale)), std::invalid_argument);

  // Edit addressing a nonexistent element.
  serve::SessionRequest bad_edit;
  bad_edit.session_id = "s";
  bad_edit.edits = {{1u << 30, 5.0}};
  EXPECT_THROW(server->submit(std::move(bad_edit)), std::out_of_range);
}

TEST(SessionServer, NonFiniteValuesAreTypedErrors) {
  auto server = std::make_unique<serve::SessionServer>(tiny_model(),
                                                       tiny_options());
  // Raw SPICE whose current overflows to inf: a line-numbered parse error.
  const std::string text = tiny_netlist_text(107);
  EXPECT_THROW(
      server->submit(full_request("inf", "Iinf n1_m1_0_0 0 1e308k\n" + text)),
      std::runtime_error);

  server->predict(full_request("nan", text));
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    serve::SessionRequest edit;
    edit.session_id = "nan";
    edit.edits = {{0, bad}};
    EXPECT_THROW(server->submit(std::move(edit)), std::invalid_argument);
  }
}

TEST(SessionServer, RejectedDeltaAppliesNoEdit) {
  // Edits are validated before any is applied: a delta whose last edit is
  // bad leaves the session at its previous revision and content.
  auto server = std::make_unique<serve::SessionServer>(tiny_model(),
                                                       tiny_options());
  const std::string text = tiny_netlist_text(108);
  const serve::SessionResult first = server->predict(full_request("d", text));

  for (const serve::ValueEdit bad :
       {serve::ValueEdit{0, std::numeric_limits<double>::quiet_NaN()},
        serve::ValueEdit{1u << 30, 1.0}}) {
    serve::SessionRequest delta;
    delta.session_id = "d";
    delta.edits = current_sweep(text, 3.0);
    ASSERT_GE(delta.edits.size(), 2u);
    delta.edits.push_back(bad);
    EXPECT_ANY_THROW(server->submit(std::move(delta)));
  }

  serve::SessionRequest replay;
  replay.session_id = "d";
  const serve::SessionResult again = server->predict(std::move(replay));
  EXPECT_EQ(again.revision, first.revision);
  EXPECT_TRUE(again.revision_reuse);
  EXPECT_EQ(again.map.data(), first.map.data());
}

TEST(SessionCache, LruEvictionOrder) {
  serve::SessionServeOptions opts = tiny_options();
  opts.max_sessions = 2;
  auto server = std::make_unique<serve::SessionServer>(tiny_model(), opts);
  const std::string text = tiny_netlist_text(103);

  server->predict(full_request("a", text));
  server->predict(full_request("b", text));
  EXPECT_EQ(server->cache_stats().evictions_lru, 0u);

  // Third session evicts the least recently used ("a").
  server->predict(full_request("c", text));
  serve::SessionCacheStats s = server->cache_stats();
  EXPECT_EQ(s.evictions_lru, 1u);
  EXPECT_EQ(s.sessions, 2u);
  EXPECT_FALSE(server->drop_session("a"));  // no longer cached
  EXPECT_TRUE(server->drop_session("b"));   // still cached
  server->predict(full_request("b", text)); // reopen b: {b, c}

  // Touch "c" (now LRU -> MRU), then add "d": "b" must be the victim.
  serve::SessionRequest touch;
  touch.session_id = "c";
  touch.id = "c/touch";
  server->predict(std::move(touch));
  server->predict(full_request("d", text));
  EXPECT_FALSE(server->drop_session("b"));
  EXPECT_TRUE(server->drop_session("c"));
  EXPECT_TRUE(server->drop_session("d"));
}

TEST(SessionCache, MemoryBudgetEviction) {
  const std::string text = tiny_netlist_text(104);

  // Pilot: one session's footprint with no budget.
  std::size_t one_session_bytes = 0;
  {
    auto pilot = std::make_unique<serve::SessionServer>(tiny_model(),
                                                        tiny_options());
    pilot->predict(full_request("p", text));
    one_session_bytes = pilot->cache_stats().resident_bytes;
  }
  ASSERT_GT(one_session_bytes, 0u);

  // Budget for ~1.5 sessions: every second tenant must evict the first.
  serve::SessionServeOptions opts = tiny_options();
  opts.max_resident_bytes = one_session_bytes * 3 / 2;
  auto server = std::make_unique<serve::SessionServer>(tiny_model(), opts);
  for (int s = 0; s < 4; ++s)
    server->predict(
        full_request("tenant" + std::to_string(s), text));

  const serve::SessionCacheStats st = server->cache_stats();
  EXPECT_GE(st.evictions_memory, 3u);
  EXPECT_LE(st.resident_bytes, opts.max_resident_bytes);
  EXPECT_LE(st.peak_resident_bytes, opts.max_resident_bytes);
  EXPECT_EQ(st.sessions, 1u);

  // Evicted sessions are gone, not corrupted: reopening one works.
  EXPECT_FALSE(server->drop_session("tenant0"));
  EXPECT_NO_THROW(server->predict(full_request("tenant0", text)));
}

TEST(SessionServer, ConcurrentSessionsFromPoolWorkers) {
  runtime::set_global_threads(4);
  auto server = std::make_unique<serve::SessionServer>(tiny_model(),
                                                       tiny_options());
  constexpr int kSessions = 4;
  std::vector<std::string> texts;
  for (int s = 0; s < kSessions; ++s)
    texts.push_back(tiny_netlist_text(200 + static_cast<std::uint64_t>(s)));

  // Submit from pool workers (extraction runs inline on the worker);
  // get() runs on this thread — never on a worker, where blocking on the
  // inference future could starve the forward pass of its own pool.
  std::vector<serve::SessionTicket> tickets(kSessions);
  std::vector<std::future<void>> submitted;
  runtime::ThreadPool* pool = runtime::global_pool();
  ASSERT_NE(pool, nullptr);
  for (int s = 0; s < kSessions; ++s) {
    submitted.push_back(pool->submit([&, s] {
      EXPECT_TRUE(pool->in_worker());
      tickets[static_cast<std::size_t>(s)] = server->submit(
          full_request("w" + std::to_string(s), texts[static_cast<std::size_t>(s)]));
    }));
  }
  for (auto& f : submitted) f.get();
  for (int s = 0; s < kSessions; ++s) {
    const serve::SessionResult r = tickets[static_cast<std::size_t>(s)].get();
    EXPECT_EQ(r.session_id, "w" + std::to_string(s));
    EXPECT_EQ(r.map.dim(1), static_cast<int>(kSide));
  }
  const serve::SessionCacheStats st = server->cache_stats();
  EXPECT_EQ(st.requests, static_cast<std::size_t>(kSessions));
  EXPECT_EQ(st.sessions, static_cast<std::size_t>(kSessions));
  runtime::set_global_threads(1);
}

TEST(SessionServer, ShutdownRacingSubmitYieldsTypedRejections) {
  auto server = std::make_unique<serve::SessionServer>(tiny_model(),
                                                       tiny_options());
  const std::string text = tiny_netlist_text(105);
  server->predict(full_request("race", text));  // warm the session

  std::atomic<int> served{0}, rejected{0}, wrong{0};
  std::thread client([&] {
    for (int i = 0; i < 200; ++i) {
      try {
        serve::SessionRequest req;
        req.session_id = "race";
        req.id = "race/" + std::to_string(i);
        server->predict(std::move(req));
        served.fetch_add(1);
      } catch (const serve::RejectedError& e) {
        if (e.reason() == serve::RejectReason::Shutdown)
          rejected.fetch_add(1);
        else
          wrong.fetch_add(1);
        break;  // server is gone; later submissions reject the same way
      } catch (...) {
        wrong.fetch_add(1);
        break;
      }
    }
  });
  while (served.load() == 0 && rejected.load() == 0 && wrong.load() == 0)
    std::this_thread::yield();
  server->shutdown();
  client.join();

  // Every outcome is a clean success or a typed Shutdown rejection.
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(served.load() + rejected.load(), 0);
  // Idempotent; a post-shutdown submit rejects deterministically.
  server->shutdown();
  EXPECT_THROW(server->predict(full_request("late", text)),
               serve::RejectedError);
}

TEST(SessionServer, PipelineFacadeWiresKnobs) {
  core::PipelineOptions po;
  po.sample.input_side = kSide;
  po.sample.pc_grid = 2;
  po.session_cache_sessions = 3;
  po.session_cache_bytes = 7ull << 20;
  core::Pipeline pipe(po);
  auto server = pipe.make_session_server(tiny_model());
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->options().max_sessions, 3u);
  EXPECT_EQ(server->options().max_resident_bytes, 7ull << 20);
  EXPECT_EQ(server->options().sample.input_side, kSide);

  const std::string text = tiny_netlist_text(106);
  const serve::SessionResult r = server->predict(full_request("facade", text));
  EXPECT_EQ(r.id, "facade/full");
  // percent_map is restored to the netlist's original pixel resolution.
  const spice::Netlist nl = spice::parse_netlist_string(text);
  EXPECT_EQ(r.percent_map.rows(), nl.pixel_shape().rows);
  EXPECT_EQ(r.percent_map.cols(), nl.pixel_shape().cols);
}

TEST(SessionServer, InferencePlanReplaysAcrossRevisions) {
  // The first full-netlist request records; the session replay AND every
  // delta revision hit the same batch-shape key (the featurized tensors
  // keep their shapes across value edits), so they ride the recorded plan
  // — each map bitwise equal to the eager forward of its revision, for
  // every registry model at 1 and 4 pool threads.
  serve::SessionServeOptions opts = tiny_options();
  opts.serve.max_batch = 1;
  const std::string text = tiny_netlist_text(151);
  for (const auto& spec : models::model_registry())
    for (std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(spec.name + " threads=" + std::to_string(threads));
      runtime::set_global_threads(threads);
      auto model = std::shared_ptr<models::IrModel>(spec.make(11));
      auto server = std::make_unique<serve::SessionServer>(model, opts);
      spice::Netlist netlist = spice::parse_netlist_string(text);

      const serve::SessionResult first =
          server->predict(full_request("p", text));
      expect_eager_map(*model, netlist, opts.sample, first, "first");
      serve::SessionRequest replay;
      replay.session_id = "p";
      replay.id = "p/replay";
      const serve::SessionResult again = server->predict(std::move(replay));
      expect_eager_map(*model, netlist, opts.sample, again, "replay");

      serve::SessionRequest delta;
      delta.session_id = "p";
      delta.id = "p/sweep";
      delta.edits = current_sweep(text, 1.5);
      for (const serve::ValueEdit& e : delta.edits)
        netlist.set_element_value(e.element_index, e.value);
      const serve::SessionResult swept = server->predict(std::move(delta));
      EXPECT_NE(swept.revision, first.revision);
      expect_eager_map(*model, netlist, opts.sample, swept, "sweep");

      const tensor::plan::RuntimeStats ps = server->server().plan_stats();
      EXPECT_EQ(ps.plans_recorded, 1u);
      EXPECT_EQ(ps.plans_unsupported, 0u);
      EXPECT_EQ(ps.eager_runs, 1u);  // only the recording pass ran eagerly
      EXPECT_GE(ps.replays, 1u);     // the delta revision replayed the plan
    }
  runtime::set_global_threads(1);
}

TEST(SessionServer, ShutdownRacingThePlanRecordingPass) {
  // The very first request is the plan-recording pass (slower than a
  // replay, and it holds the recording slot).  Shutdown racing it must
  // yield either a clean result or a typed Shutdown rejection — never a
  // wedged recording entry, a crash, or a different exception.
  serve::SessionServeOptions opts = tiny_options();
  auto server = std::make_unique<serve::SessionServer>(tiny_model(), opts);
  const std::string text = tiny_netlist_text(152);

  std::atomic<int> served{0}, rejected{0}, wrong{0};
  std::thread client([&] {
    try {
      server->predict(full_request("rec", text));
      served.fetch_add(1);
    } catch (const serve::RejectedError& e) {
      if (e.reason() == serve::RejectReason::Shutdown)
        rejected.fetch_add(1);
      else
        wrong.fetch_add(1);
    } catch (...) {
      wrong.fetch_add(1);
    }
  });
  server->shutdown();  // races featurization + the recording forward
  client.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(served.load() + rejected.load(), 1);
}

}  // namespace
