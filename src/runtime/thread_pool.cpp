#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace lmmir::runtime {

namespace {
thread_local const ThreadPool* tl_worker_of = nullptr;
}  // namespace

void Latch::count_down(std::ptrdiff_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  count_ -= n;
  if (count_ <= 0) cv_.notify_all();
}

void Latch::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return count_ <= 0; });
}

bool Latch::try_wait() {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ <= 0;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  try {
    for (std::size_t i = 0; i < threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    // Thread creation failed mid-spawn (resource exhaustion).  Join the
    // workers that did start before rethrowing — destroying a joinable
    // std::thread would terminate the process.
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
    throw;
  }
  workers_gauged_ = obs::metrics_enabled();
  if (workers_gauged_)
    obs::gauge("lmmir_pool_workers").add(static_cast<double>(threads));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
  if (workers_gauged_)
    // The ctor counted these workers in, so they count out even if
    // metrics were toggled off in between.
    obs::gauge("lmmir_pool_workers")
        .add_unchecked(-static_cast<double>(workers_.size()));
}

void ThreadPool::worker_loop() {
  tl_worker_of = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      obs::Span task_span("pool.task");
      const bool record = obs::metrics_enabled();
      const std::uint64_t t0 = record ? obs::now_ns() : 0;
      job();
      if (record) {
        // Utilization numerator: lmmir_pool_busy_ns_total against
        // wall-clock * lmmir_pool_workers gives pool occupancy.
        static obs::Counter& tasks = obs::counter("lmmir_pool_tasks_total");
        static obs::Counter& busy = obs::counter("lmmir_pool_busy_ns_total");
        tasks.add();
        busy.add(obs::now_ns() - t0);
      }
    }
  }
  tl_worker_of = nullptr;
}

std::future<void> ThreadPool::submit(std::function<void()> job) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(job));
  std::future<void> fut = task->get_future();
  post([task] { (*task)(); });
  return fut;
}

void ThreadPool::post(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_)
      throw std::runtime_error("ThreadPool::post: pool is shutting down");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

bool ThreadPool::in_worker() const { return tl_worker_of == this; }

namespace {

// Upper bound on pool concurrency: far above any real machine this code
// targets, low enough that a typo'd LMMIR_THREADS can't exhaust thread
// resources.
constexpr std::size_t kMaxThreads = 256;

std::size_t default_threads() {
  if (const char* v = std::getenv("LMMIR_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(v, &end, 10);
    if (end != v && *end == '\0' && parsed > 0)
      return std::min<std::size_t>(static_cast<std::size_t>(parsed),
                                   kMaxThreads);
    util::log_warn("ignoring malformed LMMIR_THREADS='", v, "'");
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc ? hc : 1;
}

std::mutex g_mu;
std::size_t g_threads = 0;  // 0 = not yet initialized
std::unique_ptr<ThreadPool> g_pool;

void configure_locked(std::size_t threads) {
  threads = std::clamp<std::size_t>(threads, 1, kMaxThreads);
  g_pool.reset();  // join old workers before replacing
  if (threads > 1) g_pool = std::make_unique<ThreadPool>(threads - 1);
  g_threads = threads;
}

}  // namespace

std::size_t global_threads() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_threads == 0) configure_locked(default_threads());
  return g_threads;
}

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_mu);
  configure_locked(threads);
}

ThreadPool* global_pool() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_threads == 0) configure_locked(default_threads());
  return g_pool.get();
}

}  // namespace lmmir::runtime
