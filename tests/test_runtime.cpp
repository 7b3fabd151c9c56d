// runtime: thread pool, latch, parallel_for coverage / exceptions /
// determinism of the parallelized kernels.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace lmmir;
using runtime::Latch;
using runtime::ThreadPool;

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(pool.submit([&] { ran.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(ran.load(), 20);
}

TEST(ThreadPool, SubmitFutureRethrows) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsPendingJobs) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) pool.post([&] { ran.fetch_add(1); });
    // Destructor must run everything already queued, then join cleanly.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, InWorkerIsPoolSpecific) {
  ThreadPool a(1), b(1);
  EXPECT_FALSE(a.in_worker());
  a.submit([&] {
     EXPECT_TRUE(a.in_worker());
     EXPECT_FALSE(b.in_worker());
   }).get();
}

TEST(Latch, ReleasesWaiterAtZero) {
  ThreadPool pool(3);
  Latch latch(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 3; ++i)
    pool.post([&] {
      done.fetch_add(1);
      latch.count_down();
    });
  latch.wait();
  EXPECT_EQ(done.load(), 3);
  EXPECT_TRUE(latch.try_wait());
}

TEST(ParallelFor, CoversFullRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10007;  // prime: uneven chunk boundaries
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  runtime::parallel_for(&pool, 0, n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndTinyRanges) {
  ThreadPool pool(4);
  int calls = 0;
  runtime::parallel_for(&pool, 5, 5, 1, [&](std::size_t, std::size_t) {
    ++calls;
  });
  EXPECT_EQ(calls, 0);
  std::vector<int> hits(3, 0);
  runtime::parallel_for(&pool, 0, 3, 100,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                        });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3);
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      runtime::parallel_for(&pool, 0, 1000, 1,
                            [&](std::size_t lo, std::size_t) {
                              if (lo >= 500) throw std::invalid_argument("x");
                            }),
      std::invalid_argument);
}

TEST(ParallelFor, NestedCallRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  // A body that fans out again must not deadlock: inner calls run inline.
  runtime::parallel_for(&pool, 0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i)
      runtime::parallel_for(&pool, 0, 4, 1,
                            [&](std::size_t l2, std::size_t h2) {
                              total.fetch_add(static_cast<int>(h2 - l2));
                            });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelFor, NullPoolRunsSerial) {
  std::vector<int> hits(100, 0);
  runtime::parallel_for(nullptr, 0, 100, 0,
                        [&](std::size_t lo, std::size_t hi) {
                          for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                        });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(GlobalPool, ThreadsConfigurable) {
  runtime::set_global_threads(3);
  EXPECT_EQ(runtime::global_threads(), 3u);
  ASSERT_NE(runtime::global_pool(), nullptr);
  EXPECT_EQ(runtime::global_pool()->size(), 2u);  // caller counts as one
  runtime::set_global_threads(1);
  EXPECT_EQ(runtime::global_pool(), nullptr);  // serial mode
}

TEST(GlobalPool, KernelsBitIdenticalAcrossThreadCounts) {
  util::Rng rng(77);
  const tensor::Tensor a = tensor::Tensor::randn({37, 53}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({53, 41}, rng);
  const tensor::Tensor x = tensor::Tensor::randn({2, 3, 24, 24}, rng);
  const tensor::Tensor w = tensor::Tensor::randn({5, 3, 3, 3}, rng, 0.2f);
  const tensor::Tensor bias = tensor::Tensor::randn({5}, rng);

  runtime::set_global_threads(1);
  const auto mm_serial = tensor::matmul(a, b).data();
  const auto conv_serial = tensor::conv2d(x, w, bias, 1, 1).data();

  runtime::set_global_threads(4);
  const auto mm_par = tensor::matmul(a, b).data();
  const auto conv_par = tensor::conv2d(x, w, bias, 1, 1).data();
  runtime::set_global_threads(1);

  ASSERT_EQ(mm_serial.size(), mm_par.size());
  for (std::size_t i = 0; i < mm_serial.size(); ++i)
    ASSERT_EQ(mm_serial[i], mm_par[i]) << "matmul diverged at " << i;
  ASSERT_EQ(conv_serial.size(), conv_par.size());
  for (std::size_t i = 0; i < conv_serial.size(); ++i)
    ASSERT_EQ(conv_serial[i], conv_par[i]) << "conv2d diverged at " << i;
}

}  // namespace
