#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>

#include "data/dataset.hpp"
#include "features/spatial.hpp"
#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace lmmir::serve {

using tensor::Tensor;

namespace {

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Registry instruments for the serve subsystem, resolved once (see
/// docs/OBSERVABILITY.md for the naming scheme).  Writes are no-ops while
/// LMMIR_METRICS is off.
struct ServeMetrics {
  obs::Counter& requests = obs::counter("lmmir_serve_requests_total");
  obs::Counter& completed = obs::counter("lmmir_serve_completed_total");
  obs::Counter& batches = obs::counter("lmmir_serve_batches_total");
  obs::Counter& rejected_full =
      obs::counter("lmmir_serve_rejected_queue_full_total");
  obs::Counter& rejected_shutdown =
      obs::counter("lmmir_serve_rejected_shutdown_total");
  obs::Counter& timed_out = obs::counter("lmmir_serve_timed_out_total");
  obs::Counter& failed = obs::counter("lmmir_serve_failed_total");
  obs::Gauge& queue_depth = obs::gauge("lmmir_serve_queue_depth");
  obs::Histogram& latency = obs::histogram("lmmir_serve_request_latency_us",
                                           obs::latency_buckets_us());
  obs::Histogram& queue_wait = obs::histogram("lmmir_serve_queue_wait_us",
                                              obs::latency_buckets_us());
  obs::Histogram& compute = obs::histogram("lmmir_serve_compute_us",
                                           obs::latency_buckets_us());
  obs::Histogram& batch_size = obs::histogram("lmmir_serve_batch_size",
                                              obs::batch_size_buckets());

  static ServeMetrics& get() {
    static ServeMetrics m;
    return m;
  }
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

}  // namespace

const char* reject_reason_name(RejectReason reason) {
  switch (reason) {
    case RejectReason::QueueFull: return "queue_full";
    case RejectReason::Shutdown: return "shutdown";
    case RejectReason::DeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

double throughput_rps(std::size_t completed, double span_seconds) {
  if (completed == 0 || !(span_seconds > 0.0)) return 0.0;
  return static_cast<double>(completed) / span_seconds;
}

InferenceServer::InferenceServer(std::shared_ptr<models::IrModel> model,
                                 ServeOptions options)
    : model_(std::move(model)), opts_(options) {
  if (!model_)
    throw std::invalid_argument("InferenceServer: model must not be null");
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  if (opts_.worker_threads == 0) opts_.worker_threads = 1;
  // Eval mode once, up front: batch norm uses running stats and dropout is
  // identity, making every layer per-sample and inference side-effect free
  // (batched == sequential bitwise; concurrent dispatchers are safe).
  model_->set_training(false);
  dispatchers_.reserve(opts_.worker_threads);
  try {
    for (std::size_t i = 0; i < opts_.worker_threads; ++i)
      dispatchers_.emplace_back([this] { dispatcher_loop(); });
  } catch (...) {
    shutdown();  // join the dispatchers that did start, then rethrow
    throw;
  }
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<PredictResult> InferenceServer::submit(PredictRequest request) {
  if (!request.circuit.defined() || request.circuit.ndim() != 3)
    throw std::invalid_argument("submit: circuit must be a [C,S,S] tensor");
  if (request.circuit.dim(0) < model_->in_channels())
    throw std::invalid_argument(
        "submit: circuit has fewer channels than the model consumes");
  if (request.tokens.defined() && request.tokens.ndim() != 2)
    throw std::invalid_argument("submit: tokens must be [T,F]");

  Pending p;
  p.request = std::move(request);
  p.arrival = Clock::now();
  std::future<PredictResult> fut = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Admission first: a rejected submission must leave the lifetime
    // bookkeeping untouched, or every rejection before the first admitted
    // request would stretch the throughput_rps span to cover traffic the
    // server never accepted.
    if (stopping_) {
      rejected_shutdown_.fetch_add(1, std::memory_order_relaxed);
      ServeMetrics::get().rejected_shutdown.add();
      throw RejectedError(RejectReason::Shutdown, 0,
                          "submit: server is shut down");
    }
    if (opts_.max_queue > 0 && queue_.size() >= opts_.max_queue) {
      rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
      ServeMetrics::get().rejected_full.add();
      // Retry hint: one batching window — the time for the window holding
      // the queue at capacity to close and dispatch (floored so max_wait 0
      // still suggests a non-zero backoff).
      const std::uint64_t retry_us = std::max<std::uint64_t>(
          opts_.max_wait_us, 100);
      throw RejectedError(RejectReason::QueueFull, retry_us,
                          "submit: queue full (" +
                              std::to_string(opts_.max_queue) +
                              " pending); retry later");
    }
    {
      // Admitted: stamp before the request becomes visible to
      // dispatchers, so last_done_ can never precede first_submit_.
      // stats_mu_ nests inside mu_ here; nothing takes mu_ under
      // stats_mu_, so the order is acyclic.
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      if (!any_submit_) {
        first_submit_ = p.arrival;
        any_submit_ = true;
      }
    }
    queue_.push_back(std::move(p));
    // Under the lock, like the dispatcher's drain-side write: depth sets
    // from the two sides never interleave stale-over-fresh.
    ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
  }
  ServeMetrics::get().requests.add();
  cv_.notify_all();
  return fut;
}

PredictResult InferenceServer::predict(PredictRequest request) {
  return submit(std::move(request)).get();
}

bool InferenceServer::batchable(const PredictRequest& a,
                                const PredictRequest& b) {
  if (!tensor::same_shape(a.circuit.shape(), b.circuit.shape())) return false;
  if (a.tokens.defined() != b.tokens.defined()) return false;
  if (a.tokens.defined() &&
      !tensor::same_shape(a.tokens.shape(), b.tokens.shape()))
    return false;
  return true;
}

void InferenceServer::collect_expired_locked(std::vector<Pending>& expired) {
  const auto now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->request.deadline_us > 0 &&
        now >= it->arrival +
                   std::chrono::microseconds(it->request.deadline_us)) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void InferenceServer::dispatcher_loop() {
  for (;;) {
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained

      // Batching window: collect arrivals until the batch is full or
      // max_wait_us passed since the oldest pending request.  The deadline
      // is recomputed from the current front every wake: another dispatcher
      // may have served the request the previous deadline belonged to, and
      // a fresh arrival deserves its own full window.
      while (!stopping_ && !queue_.empty() &&
             queue_.size() < opts_.max_batch) {
        const auto deadline = queue_.front().arrival +
                              std::chrono::microseconds(opts_.max_wait_us);
        if (Clock::now() >= deadline) break;
        cv_.wait_until(lock, deadline);
      }

      // Per-request deadlines are enforced here, at batch formation: a
      // request that already cannot be answered in time is dropped before
      // the batch is stacked, so its slot (and the forward-pass compute)
      // goes to requests that can still meet theirs.  Promises are
      // fulfilled after unlocking.
      collect_expired_locked(expired);

      if (!queue_.empty()) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        while (batch.size() < opts_.max_batch && !queue_.empty() &&
               batchable(batch.front().request, queue_.front().request)) {
          batch.push_back(std::move(queue_.front()));
          queue_.pop_front();
        }
      }
      // Authoritative write under the queue lock: the gauge tracks drains
      // and expiries as well as submits (otherwise it freezes at the last
      // submit depth).
      ServeMetrics::get().queue_depth.set(static_cast<double>(queue_.size()));
    }
    if (!expired.empty()) {
      timed_out_.fetch_add(expired.size(), std::memory_order_relaxed);
      ServeMetrics::get().timed_out.add(expired.size());
      for (auto& p : expired) {
        const double waited = elapsed_us(p.arrival, Clock::now());
        p.promise.set_exception(std::make_exception_ptr(RejectedError(
            RejectReason::DeadlineExceeded, 0,
            "batch formation: deadline of " +
                std::to_string(p.request.deadline_us) + " us exceeded (" +
                std::to_string(static_cast<std::uint64_t>(waited)) +
                " us in queue)")));
      }
    }
    if (batch.empty()) continue;  // raced, drained, or everything expired
    run_batch(batch);
  }
}

void InferenceServer::run_batch(std::vector<Pending>& batch) {
  const auto t_start = Clock::now();
  const std::size_t n = batch.size();
  std::size_t fulfilled = 0;  // promises already satisfied (never re-set)
  std::uint64_t batch_span_id = 0;
  try {
    // The batch span closes before the per-request lifecycle events are
    // emitted below, so in the trace each request [arrival → fulfil]
    // strictly contains its batch [dequeue → fulfil], which contains the
    // forward span: the nested request → batch → forward view.
    std::optional<obs::Span> batch_span;
    batch_span.emplace("serve.batch");
    batch_span_id = batch_span->id();
    Tensor pred;
    {
      // Stack [C,S,S] -> [N,C,S,S] (and tokens [T,F] -> [N,T,F]), exactly
      // the concatenation data::make_batch performs for training batches.
      Tensor circuit, tokens;
      {
        obs::Span stack_span("serve.stack");
        const auto& cs = batch.front().request.circuit.shape();
        const std::size_t per = batch.front().request.circuit.numel();
        std::vector<float> circ(n * per);
        std::size_t off = 0;
        for (const auto& p : batch) {
          std::copy(p.request.circuit.data().begin(),
                    p.request.circuit.data().end(),
                    circ.begin() + static_cast<std::ptrdiff_t>(off));
          off += per;
        }
        circuit = Tensor::from_data(
            {static_cast<int>(n), cs[0], cs[1], cs[2]}, std::move(circ));
        circuit = data::slice_channels(circuit, model_->in_channels());

        if (batch.front().request.tokens.defined()) {
          const auto& ts = batch.front().request.tokens.shape();
          const std::size_t per_tok = batch.front().request.tokens.numel();
          std::vector<float> toks(n * per_tok);
          std::size_t tok_off = 0;
          for (const auto& p : batch) {
            std::copy(p.request.tokens.data().begin(),
                      p.request.tokens.data().end(),
                      toks.begin() + static_cast<std::ptrdiff_t>(tok_off));
            tok_off += per_tok;
          }
          tokens = Tensor::from_data({static_cast<int>(n), ts[0], ts[1]},
                                     std::move(toks));
        }
      }

      obs::Span forward_span("serve.forward");
      pred = model_->predict(circuit, tokens);
    }
    const auto t_done = Clock::now();
    const double compute_us = elapsed_us(t_start, t_done);

    // Record stats before fulfilling promises so a caller returning from
    // predict() immediately observes its own request in stats().
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      for (const auto& p : batch) {
        const double lat = elapsed_us(p.arrival, t_done);
        if (latencies_us_.size() < kStatsWindow) {
          latencies_us_.push_back(lat);
        } else {
          latencies_us_[latency_pos_] = lat;
          latency_pos_ = (latency_pos_ + 1) % kStatsWindow;
        }
      }
      completed_ += n;
      batches_ += 1;
      batched_requests_ += n;
      max_batch_seen_ = std::max(max_batch_seen_, n);
      // max(): with several dispatchers, batches may record out of order.
      last_done_ = std::max(last_done_, t_done);
    }
    if (obs::metrics_enabled()) {
      ServeMetrics& m = ServeMetrics::get();
      for (const auto& p : batch) {
        m.latency.observe(elapsed_us(p.arrival, t_done));
        m.queue_wait.observe(elapsed_us(p.arrival, t_start));
      }
      m.compute.observe(compute_us);
      m.batch_size.observe(static_cast<double>(n));
      m.completed.add(n);
      m.batches.add();
    }

    const std::size_t per = pred.numel() / n;
    const tensor::Shape map_shape{pred.dim(1), pred.dim(2), pred.dim(3)};
    std::vector<PredictResult> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      PredictResult r;
      r.id = batch[i].request.id;
      r.map = Tensor::from_data(
          map_shape,
          std::vector<float>(pred.data().begin() +
                                 static_cast<std::ptrdiff_t>(i * per),
                             pred.data().begin() +
                                 static_cast<std::ptrdiff_t>((i + 1) * per)));
      r.queue_us = elapsed_us(batch[i].arrival, t_start);
      r.compute_us = compute_us;
      r.total_us = elapsed_us(batch[i].arrival, t_done);
      r.batch_size = n;
      results.push_back(std::move(r));
    }
    {
      obs::Span fulfil_span("serve.fulfil");
      for (std::size_t i = 0; i < n; ++i) {
        batch[i].promise.set_value(std::move(results[i]));
        ++fulfilled;
      }
    }
    // Close the batch span, then stamp one lifecycle event per request
    // (submit → fulfil, started on the client thread) so the trace shows
    // queue wait and batch ride-along per request.
    batch_span.reset();
    if (obs::trace_enabled()) {
      const std::uint64_t t_end = obs::now_ns();
      for (const auto& p : batch)
        obs::emit_span("serve.request", obs::to_ns(p.arrival), t_end,
                       batch_span_id);
    }
  } catch (const std::exception& e) {
    util::log_error("InferenceServer: batch of ", n, " failed: ", e.what());
    failed_.fetch_add(batch.size() - fulfilled, std::memory_order_relaxed);
    ServeMetrics::get().failed.add(batch.size() - fulfilled);
    for (std::size_t i = fulfilled; i < batch.size(); ++i)
      batch[i].promise.set_exception(std::current_exception());
  } catch (...) {
    util::log_error("InferenceServer: batch of ", n,
                    " failed with a non-std exception");
    failed_.fetch_add(batch.size() - fulfilled, std::memory_order_relaxed);
    ServeMetrics::get().failed.add(batch.size() - fulfilled);
    for (std::size_t i = fulfilled; i < batch.size(); ++i)
      batch[i].promise.set_exception(std::current_exception());
  }
}

void InferenceServer::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  // Serialize the join+clear so concurrent shutdown() calls (or shutdown
  // racing the destructor) don't double-join the same thread.
  std::lock_guard<std::mutex> lock(shutdown_mu_);
  for (auto& d : dispatchers_)
    if (d.joinable()) d.join();
  dispatchers_.clear();
}

ServerStats InferenceServer::stats() const {
  ServerStats s;
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_shutdown = rejected_shutdown_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  std::vector<double> lat;
  Clock::time_point first, last;
  bool any;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    lat = latencies_us_;  // bounded by kStatsWindow
    s.completed = completed_;
    s.batches = batches_;
    s.max_batch_seen = max_batch_seen_;
    if (batches_ > 0)
      s.mean_batch = static_cast<double>(batched_requests_) /
                     static_cast<double>(batches_);
    first = first_submit_;
    last = last_done_;
    any = any_submit_;
  }
  if (lat.empty()) return s;

  std::sort(lat.begin(), lat.end());
  s.p50_us = percentile(lat, 50.0);
  s.p95_us = percentile(lat, 95.0);
  s.p99_us = percentile(lat, 99.0);
  s.max_us = lat.back();
  double sum = 0.0;
  for (double v : lat) sum += v;
  s.mean_us = sum / static_cast<double>(lat.size());

  if (any) {
    // A zero span is real (the only completions can share one timestamp
    // on a coarse steady_clock); the helper reports 0 for it instead of
    // the inf-like rate a 1e-9 floor used to manufacture.
    s.throughput_rps = throughput_rps(
        s.completed, std::chrono::duration<double>(last - first).count());
  }
  return s;
}

PredictRequest request_from_sample(const data::Sample& sample) {
  PredictRequest r;
  r.id = sample.name;
  r.circuit = sample.circuit;
  r.tokens = sample.tokens;
  return r;
}

grid::Grid2D restore_percent_map(const PredictResult& result,
                                 const data::Sample& sample) {
  return restore_percent_map(result, sample.adjust);
}

grid::Grid2D restore_percent_map(const PredictResult& result,
                                 const feat::AdjustInfo& adjust) {
  if (!result.map.defined() || result.map.ndim() != 3)
    throw std::invalid_argument("restore_percent_map: expects a [1,S,S] map");
  const std::size_t side = static_cast<std::size_t>(result.map.dim(1));
  grid::Grid2D map(side, side);
  map.data() = result.map.data();
  map.scale(1.0f / data::kTargetScale);
  return feat::restore_from_side(map, adjust);
}

}  // namespace lmmir::serve
