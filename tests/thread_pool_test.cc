// ThreadPool unit tests: concurrent and nested ParallelFor, typed task
// failures, FIFO tasks beside a live batch, growth, and draining on
// destruction. Run under TSan by `tools/ci.sh thread`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace vdm {
namespace {

/// Spins until `flag` is set or `seconds` pass; returns the flag.
bool WaitFor(const std::atomic<bool>& flag, int seconds = 10) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  return flag.load();
}

TEST(ThreadPoolTest, ConcurrentCallersRunEveryIndexOnce) {
  ThreadPool pool(3);
  constexpr size_t kTasks = 20000;
  std::vector<std::atomic<int>> hits_a(kTasks), hits_b(kTasks);
  Status status_a, status_b;
  std::thread a([&] {
    status_a = pool.ParallelFor(kTasks, [&](size_t i) { ++hits_a[i]; });
  });
  std::thread b([&] {
    status_b = pool.ParallelFor(kTasks, [&](size_t i) { ++hits_b[i]; });
  });
  a.join();
  b.join();
  EXPECT_TRUE(status_a.ok()) << status_a.ToString();
  EXPECT_TRUE(status_b.ok()) << status_b.ToString();
  for (size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hits_a[i].load(), 1) << i;
    ASSERT_EQ(hits_b[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, NestedParallelForFinishes) {
  ThreadPool pool(2);
  constexpr size_t kOuter = 16, kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> inner_failures{0};
  Status status = pool.ParallelFor(kOuter, [&](size_t i) {
    Status inner = pool.ParallelFor(
        kInner, [&](size_t j) { ++hits[i * kInner + j]; });
    if (!inner.ok()) ++inner_failures;
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(inner_failures.load(), 0);
  for (size_t k = 0; k < hits.size(); ++k) ASSERT_EQ(hits[k].load(), 1) << k;
}

TEST(ThreadPoolTest, ThrowingTaskReturnsTypedStatusAndPoolStaysUsable) {
  ThreadPool pool(2);
  Status oom = pool.ParallelFor(100, [](size_t i) {
    if (i == 37) throw std::bad_alloc();
  });
  EXPECT_EQ(oom.code(), StatusCode::kResourceExhausted) << oom.ToString();

  Status threw = pool.ParallelFor(100, [](size_t i) {
    if (i == 5) throw std::runtime_error("boom");
  });
  EXPECT_EQ(threw.code(), StatusCode::kExecutionError) << threw.ToString();

  std::vector<std::atomic<int>> hits(50);
  EXPECT_TRUE(pool.ParallelFor(50, [&](size_t i) { ++hits[i]; }).ok());
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SubmitRunsWhileLongBatchIsLive) {
  ThreadPool pool(2);
  std::atomic<bool> batch_started{false};
  std::atomic<bool> submitted_ran{false};
  std::atomic<bool> waited_ok{false};
  // Task 0 holds the batch open until the submitted task has run; the
  // other tasks drain, leaving a worker free for the FIFO queue.
  std::thread caller([&] {
    Status status = pool.ParallelFor(1000, [&](size_t i) {
      if (i != 0) return;
      batch_started.store(true);
      waited_ok.store(WaitFor(submitted_ran));
    });
    EXPECT_TRUE(status.ok()) << status.ToString();
  });
  ASSERT_TRUE(WaitFor(batch_started));
  pool.Submit([&] { submitted_ran.store(true); });
  caller.join();
  EXPECT_TRUE(waited_ok.load());
}

TEST(ThreadPoolTest, GrowsAndNeverShrinks) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  pool.EnsureWorkers(3);
  EXPECT_EQ(pool.size(), 3u);
  pool.EnsureWorkers(2);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_TRUE(pool.ParallelFor(100, [&](size_t i) { ++hits[i]; }).ok());
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, DestructionDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  {
    ThreadPool pool(1);
    // The first task occupies the only worker, so the rest are still
    // queued when the pool is destroyed.
    pool.Submit([&] {
      WaitFor(release);
      ++ran;
    });
    for (int i = 0; i < 100; ++i) pool.Submit([&] { ++ran; });
    release.store(true);
  }
  EXPECT_EQ(ran.load(), 101);
}

}  // namespace
}  // namespace vdm
