// Tests for the thread pool and parallel_for (util/thread_pool.h).
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.h"

#if defined(__linux__)
#include <sched.h>
#endif

namespace flash {
namespace {

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

#if defined(__linux__) && defined(CPU_COUNT)
TEST(ThreadPool, HardwareThreadsCountsOnlyAllowedCpus) {
  // Pin this thread to the first CPU it may run on (what `taskset -c`
  // does to a process), then restore its mask.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(ThreadPool::hardware_threads(),
            static_cast<std::size_t>(CPU_COUNT(&allowed)));
  int first = 0;
  while (!CPU_ISSET(first, &allowed)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const std::size_t pinned = ThreadPool::hardware_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(allowed), &allowed), 0);
  EXPECT_EQ(pinned, 1u);
}
#endif

TEST(ThreadPool, ZeroMeansHardwareThreads) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), ThreadPool::hardware_threads());
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  ThreadPool pool(2);
  bool ran = false;
  parallel_for(pool, 0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, SingleThreadPreservesOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  parallel_for(pool, 20, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(20);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      parallel_for(pool, 64,
                   [&](std::size_t i) {
                     if (i % 7 == 3) throw std::runtime_error("boom");
                     completed.fetch_add(1);
                   }),
      std::runtime_error);
  // Every non-throwing index still ran: indices 3,10,..,59 throw (nine of
  // the 64), leaving 55 completions.
  EXPECT_EQ(completed.load(), 55);
}

TEST(ParallelFor, ReusableAcrossCalls) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    parallel_for(pool, 100, [&](std::size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 5L * (99L * 100L / 2));
}

}  // namespace
}  // namespace flash
