// runtime::ThreadPool / TaskGroup: fork-join fan-out with nested groups,
// exception propagation, the inline single-thread pool, and thread-count
// resolution. Serve's batch evaluation is the pool's one user.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "runtime/thread_pool.h"

namespace swfomc {
namespace {

TEST(ThreadPool, NestedGroupsAndExceptionPropagation) {
  runtime::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);

  // Fork-join fan-out with nested groups: 4 * 8 increments, all counted.
  std::atomic<int> counter{0};
  {
    runtime::TaskGroup group(&pool);
    for (int i = 0; i < 4; ++i) {
      group.Submit([&pool, &counter] {
        runtime::TaskGroup nested(&pool);
        for (int j = 0; j < 8; ++j) {
          nested.Submit([&counter] { ++counter; });
        }
        nested.Wait();
      });
    }
    group.Wait();
  }
  EXPECT_EQ(counter.load(), 32);

  // The first exception surfaces in Wait; the pool survives for reuse.
  runtime::TaskGroup failing(&pool);
  failing.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.Wait(), std::runtime_error);

  runtime::TaskGroup after(&pool);
  after.Submit([&counter] { ++counter; });
  after.Wait();
  EXPECT_EQ(counter.load(), 33);
}

TEST(ThreadPool, SingleThreadPoolRunsTasksInline) {
  runtime::ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int runs = 0;
  runtime::TaskGroup group(&pool);
  for (int i = 0; i < 5; ++i) group.Submit([&runs] { ++runs; });
  group.Wait();
  EXPECT_EQ(runs, 5);
}

TEST(ThreadPool, ResolveThreadCount) {
  EXPECT_EQ(runtime::ThreadPool::ResolveThreadCount(3), 3u);
  EXPECT_GE(runtime::ThreadPool::ResolveThreadCount(0), 1u);
}

}  // namespace
}  // namespace swfomc
