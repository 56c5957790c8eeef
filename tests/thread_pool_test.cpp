// runtime::ThreadPool::ParallelFor: every index runs exactly once,
// exceptions reach the caller and leave the pool usable, the worker-less
// pool runs inline, concurrent callers share the workers, and thread-count
// resolution. Serve's batch evaluation is the pool's one user.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.h"

namespace swfomc {
namespace {

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  for (std::size_t count : {0u, 1u, 2u, 7u, 1000u}) {
    std::vector<std::atomic<int>> runs(count);
    pool.ParallelFor(count, [&runs](std::size_t i) { ++runs[i]; });
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(ThreadPool, ExceptionIsRethrownAndPoolIsReused) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  std::atomic<int> runs{0};
  pool.ParallelFor(64, [&runs](std::size_t) { ++runs; });
  EXPECT_EQ(runs.load(), 64);
}

TEST(ThreadPool, SingleThreadPoolRunsOnTheCaller) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::vector<std::thread::id> ran_on;
  pool.ParallelFor(5, [&ran_on](std::size_t) {
    ran_on.push_back(std::this_thread::get_id());
  });
  EXPECT_EQ(ran_on, std::vector<std::thread::id>(5, std::this_thread::get_id()));
  EXPECT_THROW(pool.ParallelFor(
                   3, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
}

TEST(ThreadPool, ConcurrentCallersShareTheWorkers) {
  runtime::ThreadPool pool(3);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr std::size_t kCount = 16;
  std::vector<int> failures(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::atomic<int>> runs(kCount);
        pool.ParallelFor(kCount, [&runs](std::size_t i) { ++runs[i]; });
        for (const std::atomic<int>& run : runs) {
          if (run.load() != 1) ++failures[c];
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int c = 0; c < kCallers; ++c) EXPECT_EQ(failures[c], 0) << c;
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(runtime::ThreadPool::ResolveThreadCount(3), 3u);
  EXPECT_GE(runtime::ThreadPool::ResolveThreadCount(0), 1u);
}

}  // namespace
}  // namespace swfomc
