// Online serving demo: put a model behind the dynamic-batching
// InferenceServer and stream the Table-II style cases through it from
// concurrent clients — the deployment shape that replaces a golden solver
// in a PDN-optimization inner loop.
//
//   1. build a small pipeline and its hidden test cases;
//   2. train LMM-IR briefly (optional, LMMIR_SERVE_TRAIN=0 skips);
//   3. serve: concurrent clients submit every case, futures collect
//      per-request latency; print the batching / latency report.
//
// Observability flags (see docs/OBSERVABILITY.md):
//   --metrics-dump        force metrics on; print the Prometheus-style
//                         text exposition after the run
//   --metrics-json        same, as one JSON line (machine scraping)
//   --stats-period-ms N   emit a periodic structured server-stats log
//                         line every N ms while serving
// LMMIR_METRICS=1 / LMMIR_TRACE_FILE=path work as everywhere else.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "gen/began.hpp"
#include "models/registry.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "spice/netlist.hpp"
#include "spice/writer.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lmmir;

  bool metrics_dump = false;
  bool metrics_json = false;
  long stats_period_ms = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-dump") == 0) {
      metrics_dump = true;
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      metrics_json = true;
    } else if (std::strcmp(argv[i], "--stats-period-ms") == 0 &&
               i + 1 < argc) {
      stats_period_ms = std::strtol(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--metrics-dump] [--metrics-json] "
                   "[--stats-period-ms N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (metrics_dump || metrics_json) obs::set_metrics_enabled(true);
  // The periodic stat line logs at Info; the default threshold is Warn.
  if (stats_period_ms > 0 && !util::log_enabled(util::LogLevel::Info))
    util::set_log_level(util::LogLevel::Info);

  core::PipelineOptions opts;
  opts.sample.input_side = 32;
  opts.sample.pc_grid = 4;
  opts.suite_scale = 0.05;
  opts.fake_cases = 4;
  opts.real_cases = 2;
  opts.train.pretrain_epochs = 1;
  opts.train.finetune_epochs = 3;
  core::Pipeline pipe(opts);

  auto model = std::shared_ptr<models::IrModel>(models::make_model("LMM-IR"));

  bool train = true;
  if (const char* v = std::getenv("LMMIR_SERVE_TRAIN")) train = *v != '0';
  if (train) {
    std::printf("training %s on the small regime...\n",
                model->name().c_str());
    const auto dataset = pipe.build_training_dataset();
    train::fit(*model, dataset, pipe.train_config());
  }

  std::printf("building the hidden test cases...\n");
  const auto tests = pipe.build_hidden_testset();

  std::printf("serving with %zu runtime threads\n",
              runtime::global_threads());
  serve::ServeOptions sopts;
  sopts.max_batch = 4;
  sopts.max_wait_us = 2000;
  auto server = pipe.make_server(model, sopts);

  // Optional periodic stats emitter: one structured log line per period
  // while the serve section runs (stopped before the report prints).
  std::mutex period_mu;
  std::condition_variable period_cv;
  bool period_stop = false;
  std::thread period_thread;
  if (stats_period_ms > 0) {
    period_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(period_mu);
      for (;;) {
        if (period_cv.wait_for(lock,
                               std::chrono::milliseconds(stats_period_ms),
                               [&] { return period_stop; }))
          return;
        const serve::ServerStats st = server->stats();
        util::log_stats(
            "serve_progress",
            {{"completed", std::to_string(st.completed)},
             {"batches", std::to_string(st.batches)},
             {"rejected_queue_full", std::to_string(st.rejected_queue_full)},
             {"failed", std::to_string(st.failed)}});
      }
    });
  }

  // Two client threads submit all cases; futures keep request order.
  std::vector<std::future<serve::PredictResult>> futs(tests.size());
  std::thread even([&] {
    for (std::size_t i = 0; i < tests.size(); i += 2)
      futs[i] = server->submit(serve::request_from_sample(tests[i]));
  });
  std::thread odd([&] {
    for (std::size_t i = 1; i < tests.size(); i += 2)
      futs[i] = server->submit(serve::request_from_sample(tests[i]));
  });
  even.join();
  odd.join();

  util::TextTable table;
  table.set_header({"case", "queue_ms", "compute_ms", "total_ms", "batch"});
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::PredictResult r = futs[i].get();
    // restore_percent_map(r, tests[i]) would hand back the full-resolution
    // percent-of-vdd map for downstream optimization.
    char q[32], c[32], t[32];
    std::snprintf(q, sizeof q, "%.2f", r.queue_us / 1e3);
    std::snprintf(c, sizeof c, "%.2f", r.compute_us / 1e3);
    std::snprintf(t, sizeof t, "%.2f", r.total_us / 1e3);
    table.add_row({r.id, q, c, t, std::to_string(r.batch_size)});
  }

  if (period_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(period_mu);
      period_stop = true;
    }
    period_cv.notify_all();
    period_thread.join();
  }

  std::printf("%s", table.render().c_str());

  const serve::ServerStats st = server->stats();
  std::printf("\n%zu requests in %zu batches | mean batch %.2f | "
              "p50 %.1f ms  p95 %.1f ms  p99 %.1f ms | %.1f req/s\n",
              st.completed, st.batches, st.mean_batch, st.p50_us / 1e3,
              st.p95_us / 1e3, st.p99_us / 1e3, st.throughput_rps);
  const tensor::plan::RuntimeStats plans = server->plan_stats();
  std::printf("inference plans: %zu recorded, %zu replays, %zu eager "
              "forward(s)\n",
              plans.plans_recorded, plans.replays, plans.eager_runs);

  server->shutdown();

  // ---- Raw-netlist session serving: what a real client sends is SPICE
  // text (or a value-edit delta), not tensors.  Two tenants each open a
  // session with a full netlist, then stream an ECO-style load sweep as
  // deltas; the per-session FeatureContext reuses the topology-invariant
  // channels on every warm revision.  See docs/SERVING.md.
  std::printf("\nraw-netlist session serving (2 tenants x 4 revisions):\n");
  auto session_server = pipe.make_session_server(model);
  util::TextTable sess_table;
  sess_table.set_header({"request", "hit", "reused", "extract_ms", "total_ms"});
  for (int tenant = 0; tenant < 2; ++tenant) {
    gen::GeneratorConfig cfg;
    cfg.name = "tenant" + std::to_string(tenant);
    cfg.width_um = cfg.height_um = 40.0;
    cfg.seed = 900 + static_cast<std::uint64_t>(tenant);
    cfg.use_default_stack();
    const spice::Netlist nl = gen::generate_pdn(cfg);

    serve::SessionRequest open;
    open.session_id = cfg.name;
    open.id = cfg.name + "/rev0";
    open.netlist_text = spice::write_netlist_string(nl);  // the wire format
    std::uint64_t revision = 0;
    auto row = [&](const serve::SessionResult& r) {
      char e[32], t[32];
      std::snprintf(e, sizeof e, "%.2f", r.extract_us / 1e3);
      std::snprintf(t, sizeof t, "%.2f", r.total_us / 1e3);
      sess_table.add_row({r.id, r.session_hit ? "yes" : "no",
                          std::to_string(r.channels_reused) + "/" +
                              std::to_string(feat::kChannelCount),
                          e, t});
      revision = r.revision;
    };
    row(session_server->predict(std::move(open)));

    for (int rev = 1; rev <= 3; ++rev) {
      serve::SessionRequest delta;  // ECO edit: rescale the current loads
      delta.session_id = cfg.name;
      delta.id = cfg.name + "/rev" + std::to_string(rev);
      delta.base_revision = revision;  // optimistic concurrency token
      const auto& els = nl.elements();
      for (std::size_t i = 0; i < els.size(); ++i)
        if (els[i].type == spice::ElementType::CurrentSource)
          delta.edits.push_back({i, els[i].value * (1.0 + 0.1 * rev)});
      row(session_server->predict(std::move(delta)));
    }
  }
  std::printf("%s", sess_table.render().c_str());
  const serve::SessionCacheStats sc = session_server->cache_stats();
  std::printf("session cache: %zu requests | %zu hits | %zu sessions | "
              "channels reused/computed %zu/%zu | %.1f KiB resident\n",
              sc.requests, sc.hits, sc.sessions, sc.channels_reused,
              sc.channels_computed,
              static_cast<double>(sc.resident_bytes) / 1024.0);
  session_server->shutdown();
  if (metrics_dump)
    std::printf("\n%s", obs::MetricsRegistry::instance().render_text().c_str());
  if (metrics_json)
    std::printf("%s\n", obs::MetricsRegistry::instance().render_json().c_str());
  return 0;
}
