#pragma once
// Fixed-size worker pool backing intra-op parallelism (tensor / sparse /
// feature kernels) and the serving subsystem.
//
// Threading model of the library:
//  - a single process-wide pool (global_pool) sized from LMMIR_THREADS or
//    the hardware concurrency; hot loops fan out over it via parallel_for
//    (see runtime/parallel_for.hpp) and fall back to serial execution when
//    the range is small or the pool is configured to one thread;
//  - worker threads never create nested parallelism: a parallel_for issued
//    from inside a worker runs inline, so kernels may be composed freely;
//  - results are bitwise identical to the serial code for any thread count
//    because ranges are split on outer loops only and every chunk performs
//    the exact per-row arithmetic of the serial implementation;
//  - workers carry no per-worker state, so runtime/ depends on nothing
//    above it.
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lmmir::runtime {

/// Single-use countdown synchronizer (std::latch analogue kept local so the
/// library builds on toolchains without <latch>).
class Latch {
 public:
  explicit Latch(std::ptrdiff_t count) : count_(count) {}
  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void count_down(std::ptrdiff_t n = 1);
  /// Block until the counter reaches zero.
  void wait();
  /// Non-blocking: true when the counter already reached zero.
  bool try_wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::ptrdiff_t count_;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least one).
  explicit ThreadPool(std::size_t threads);
  /// Drains the queue (pending jobs still run), then joins all workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a job; the future reports completion and rethrows the job's
  /// exception on get().
  std::future<void> submit(std::function<void()> job);

  /// Fire-and-forget enqueue (no future allocation; the job must not
  /// throw past its own boundary).
  void post(std::function<void()> job);

  /// True when the calling thread is one of this pool's workers.
  bool in_worker() const;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // Whether this pool's workers were counted into the lmmir_pool_workers
  // gauge at construction — the destructor must only subtract what the
  // constructor added (metrics may toggle between the two).
  bool workers_gauged_ = false;
};

/// Total concurrency parallel_for may use (calling thread + pool workers).
/// First use reads LMMIR_THREADS, else std::thread::hardware_concurrency().
std::size_t global_threads();

/// Reconfigure the process-wide pool to `threads` total concurrency
/// (clamped to >= 1; 1 means fully serial).  Not safe to call while
/// parallel kernels are in flight on other threads.
void set_global_threads(std::size_t threads);

/// The shared pool, or nullptr when running serial (global_threads() <= 1).
/// The pointer stays valid until the next set_global_threads call.
ThreadPool* global_pool();

}  // namespace lmmir::runtime
