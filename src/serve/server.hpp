#pragma once
// Online inference serving with dynamic batching.
//
// An InferenceServer owns a trained (or freshly constructed) IrModel behind
// a request queue.  Callers submit PredictRequests from any thread and get
// a future; a dispatcher coalesces pending requests into batches of up to
// `max_batch`, waiting at most `max_wait_us` after the oldest pending
// request arrived, runs one batched forward pass, and fulfills each
// request's future with its slice of the output.  This amortizes model
// dispatch across concurrent clients — the same dynamic-batching discipline
// production model servers use — while keeping results bitwise identical to
// single-request inference (every layer in the stack is per-sample in eval
// mode; see tests/test_serve.cpp).
//
//   auto server = pipe.make_server(models::make_model("LMM-IR"));
//   auto fut = server->submit(serve::request_from_sample(sample));
//   serve::PredictResult r = fut.get();           // [1,S,S] prediction
//   grid::Grid2D map = serve::restore_percent_map(r, sample);
//
// The batched forward is IrModel::predict: each batch shape the coalescer
// forms records one inference plan in the model's cache and replays it
// afterwards (docs/PLAN.md).
//
// Thread model: `worker_threads` dispatcher threads pop batches
// independently; the batched forward itself fans out over the
// runtime::global_pool for intra-op parallelism.  The model is switched to
// eval mode at construction and never mutated afterwards, so concurrent
// batch runners are safe.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/sample.hpp"
#include "models/common.hpp"
#include "tensor/plan.hpp"
#include "tensor/tensor.hpp"

namespace lmmir::serve {

/// Why an admission decision refused a request.
enum class RejectReason {
  QueueFull,         // backpressure: pending queue at max_queue
  Shutdown,          // server no longer accepts work
  DeadlineExceeded,  // request expired before batch formation
};

const char* reject_reason_name(RejectReason reason);

/// Typed admission-control rejection.  Clients that catch RejectedError
/// can back off programmatically (reason + retry_after_us) instead of
/// parsing what(); catching std::runtime_error keeps working because the
/// what() text is unchanged from the pre-typed throws.
///
///   retry_after_us > 0  — transient: retry after the hint (queue-full
///                         rejections hint one batching window, the time
///                         for the current window to drain);
///   retry_after_us == 0 — permanent for this server (shutdown) or for
///                         this request (deadline already exceeded).
class RejectedError : public std::runtime_error {
 public:
  RejectedError(RejectReason reason, std::uint64_t retry_after_us,
                const std::string& what_text)
      : std::runtime_error(what_text),
        reason_(reason),
        retry_after_us_(retry_after_us) {}

  RejectReason reason() const { return reason_; }
  std::uint64_t retry_after_us() const { return retry_after_us_; }

 private:
  RejectReason reason_;
  std::uint64_t retry_after_us_;
};

struct ServeOptions {
  std::size_t max_batch = 8;       // largest coalesced batch
  std::uint64_t max_wait_us = 500; // batching window after the oldest arrival
  std::size_t worker_threads = 1;  // concurrent batch dispatchers
  /// Backpressure: submit() throws once this many requests are pending
  /// (each Pending holds full input tensors; an unbounded queue would grow
  /// without limit whenever arrival outpaces compute). 0 = unbounded.
  std::size_t max_queue = 1024;
};

struct PredictRequest {
  std::string id;          // caller tag, echoed in the result
  tensor::Tensor circuit;  // [C,S,S]; C >= model in_channels (extra sliced)
  tensor::Tensor tokens;   // [T,F] netlist tokens; may be undefined for
                           // single-modality models
  /// Per-request deadline, microseconds after submit() admitted the
  /// request (0 = none).  Enforced at batch-formation time: a request
  /// whose deadline passed while it waited in the queue is dropped before
  /// the batch is stacked and its future rethrows RejectedError
  /// {DeadlineExceeded} — the compute it would have wasted goes to
  /// requests that can still meet theirs.  A request already inside a
  /// forming batch runs to completion (deadlines bound queue wait, not
  /// compute).
  std::uint64_t deadline_us = 0;
};

struct PredictResult {
  std::string id;
  tensor::Tensor map;      // [1,S,S] prediction, target-scale units
  double queue_us = 0.0;   // submit -> batch start
  double compute_us = 0.0; // batched forward wall clock (shared by batch)
  double total_us = 0.0;   // submit -> future fulfilled
  std::size_t batch_size = 0;  // size of the batch this request rode in
};

/// Aggregate latency / throughput counters.  Counts, throughput and batch
/// shape cover the server's whole lifetime; the latency distribution
/// (p50/p95/p99/mean/max) covers the most recent kStatsWindow completions
/// so a long-lived server's memory and stats() cost stay bounded.
///
/// This struct is the always-on per-server view; the same quantities also
/// stream into the process-wide obs::MetricsRegistry (lmmir_serve_*) when
/// LMMIR_METRICS is enabled — see docs/OBSERVABILITY.md.
struct ServerStats {
  std::size_t completed = 0;
  std::size_t batches = 0;
  /// Admission-control telemetry (groundwork for retry-after policies):
  /// submissions refused at the queue-full backpressure limit, refused
  /// after shutdown, and requests whose future was fulfilled with an
  /// exception because their batch failed.  Before these counters, every
  /// rejected future vanished without a trace.
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_shutdown = 0;
  /// Requests admitted but dropped at batch formation because their
  /// deadline_us expired while queued (future rethrows RejectedError).
  std::size_t timed_out = 0;
  std::size_t failed = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double max_us = 0.0;
  double throughput_rps = 0.0;  // completed / (last completion - first submit)
  double mean_batch = 0.0;      // mean executed batch size
  std::size_t max_batch_seen = 0;
};

/// Lifetime throughput from completions over the span between the first
/// ADMITTED submission and the last completion.  Defensive against
/// degenerate spans: zero completions, or a zero/negative span (every
/// completion sharing one timestamp on a coarse clock, or a span computed
/// from default-constructed time points) report 0 instead of inf/NaN or a
/// 1e9x-inflated rate.  Exposed for direct unit testing; stats() uses it.
double throughput_rps(std::size_t completed, double span_seconds);

class InferenceServer {
 public:
  explicit InferenceServer(std::shared_ptr<models::IrModel> model,
                           ServeOptions options = {});
  /// Drains pending requests, then joins the dispatchers.
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue from any thread.  The future rethrows inference errors (and
  /// RejectedError{DeadlineExceeded} when request.deadline_us expired
  /// before batch formation).  Throws RejectedError{Shutdown} after
  /// shutdown() and RejectedError{QueueFull, retry_after_us} when the
  /// pending queue is at max_queue (backpressure — both are
  /// std::runtime_error subclasses with the historical what() text).
  /// Rejected submissions leave the lifetime/throughput bookkeeping
  /// untouched: only admitted requests count.
  std::future<PredictResult> submit(PredictRequest request);

  /// Synchronous convenience wrapper: submit + wait.
  PredictResult predict(PredictRequest request);

  /// Stop accepting new requests, serve everything already queued, join.
  /// Idempotent; also run by the destructor.
  void shutdown();

  ServerStats stats() const;
  const ServeOptions& options() const { return opts_; }
  const models::IrModel& model() const { return *model_; }

  /// Counters of the model's plan cache (recorded / unsupported /
  /// replays / eager runs), which the batched forwards go through.  The
  /// cache belongs to the model, so they include its other predict()
  /// calls.
  tensor::plan::RuntimeStats plan_stats() const {
    return model_->plan_runtime().stats();
  }

  /// Latency samples retained for the stats() distribution (ring buffer).
  static constexpr std::size_t kStatsWindow = 16384;

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    PredictRequest request;
    std::promise<PredictResult> promise;
    Clock::time_point arrival;
  };

  void dispatcher_loop();
  void run_batch(std::vector<Pending>& batch);
  static bool batchable(const PredictRequest& a, const PredictRequest& b);
  /// Move queued requests whose deadline passed into `expired` (called
  /// under mu_; promises are fulfilled by the caller after unlocking).
  void collect_expired_locked(std::vector<Pending>& expired);

  std::shared_ptr<models::IrModel> model_;
  ServeOptions opts_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::vector<std::thread> dispatchers_;
  std::mutex shutdown_mu_;  // serializes concurrent shutdown() calls

  // Reject/failure counters live outside stats_mu_: they increment on
  // throw paths where taking the stats lock would be wasted work.
  std::atomic<std::size_t> rejected_queue_full_{0};
  std::atomic<std::size_t> rejected_shutdown_{0};
  std::atomic<std::size_t> timed_out_{0};
  std::atomic<std::size_t> failed_{0};

  mutable std::mutex stats_mu_;
  std::vector<double> latencies_us_;   // ring of the last kStatsWindow
  std::size_t latency_pos_ = 0;        // next overwrite slot once full
  std::size_t completed_ = 0;          // lifetime counters
  std::size_t batches_ = 0;
  std::size_t batched_requests_ = 0;   // sum of executed batch sizes
  std::size_t max_batch_seen_ = 0;
  Clock::time_point first_submit_{};
  Clock::time_point last_done_{};
  bool any_submit_ = false;
};

/// Build a request carrying a sample's canonical circuit stack and tokens.
PredictRequest request_from_sample(const data::Sample& sample);

/// Undo target scaling and the pad/resize adjustment: the result map in
/// percent-of-vdd units at the sample's original resolution (the inference
/// half of train::predict_map).
grid::Grid2D restore_percent_map(const PredictResult& result,
                                 const data::Sample& sample);

/// Same, from a bare adjustment record (the serving path, where there is
/// no Sample — only the AdjustInfo recorded at featurization time).
grid::Grid2D restore_percent_map(const PredictResult& result,
                                 const feat::AdjustInfo& adjust);

}  // namespace lmmir::serve
