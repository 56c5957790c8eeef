#ifndef SWFOMC_RUNTIME_THREAD_POOL_H_
#define SWFOMC_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace swfomc::runtime {

class TaskGroup;

/// Fixed-size work-stealing thread pool for deterministic fork-join
/// parallelism: per-worker deques (LIFO for the owner, FIFO for thieves),
/// a caller that participates in the work instead of blocking, and no
/// task ever dropped. The pool makes no ordering promises — callers that
/// need determinism must combine results in a schedule-independent way
/// (serve, the one user, writes each weight vector's value into its own
/// slot of the response, so any schedule yields the same bytes).
///
/// The deques share one mutex: tasks in this codebase are coarse (one
/// weight vector evaluated over a compiled circuit), so queue traffic is
/// a few operations per vector and lock contention is unmeasurable.
class ThreadPool {
 public:
  /// Spawns `thread_count - 1` workers; the thread calling
  /// TaskGroup::Wait acts as the remaining worker. `thread_count` of 0 or
  /// 1 spawns no workers at all — every task runs inline in Wait, which
  /// keeps the sequential path allocation- and synchronization-free.
  /// Observability hooks. All pointers may be null (the disabled
  /// state); FromRegistry binds the pool's standard metric names. The
  /// instruments must outlive the pool.
  struct Metrics {
    obs::Counter* tasks_run = nullptr;     // popped from the own deque
    obs::Counter* tasks_stolen = nullptr;  // taken from another deque
    obs::Gauge* queue_depth = nullptr;     // tasks pushed but not started
    static Metrics FromRegistry(obs::MetricsRegistry* registry);
  };

  explicit ThreadPool(unsigned thread_count);
  ThreadPool(unsigned thread_count, Metrics metrics);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers plus the participating caller.
  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Maps a requested thread count to an effective one: 0 means "use the
  /// hardware", anything else is taken literally. Never returns 0.
  static unsigned ResolveThreadCount(unsigned requested);

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };

  /// Pushes onto the current worker's own deque (back) when called from a
  /// pool thread, else onto a round-robin victim.
  void Push(Task task);
  /// Pops one task (own deque back first, then steals from the fronts of
  /// the others) and runs it. Returns false when every deque is empty.
  bool RunOneTask();
  void WorkerLoop(std::size_t worker_index);
  static void Execute(Task task);

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::vector<std::deque<Task>> deques_;  // one per worker + one shared
  std::size_t pending_ = 0;
  std::size_t next_victim_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
  Metrics metrics_;
};

/// One fork-join region. Submit() enqueues subtasks; Wait() returns once
/// all of them (including tasks submitted by tasks) have finished,
/// executing pending pool work while it waits — the "help-first" join
/// that makes nested groups deadlock-free on a bounded pool. The first
/// exception thrown by any task is captured and rethrown from Wait().
///
/// A TaskGroup is owned by exactly one thread; Submit and Wait must be
/// called from that thread. Tasks themselves may create nested groups.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  /// Joins outstanding tasks; any pending exception is swallowed here, so
  /// call Wait() explicitly unless the stack is already unwinding.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> fn);
  void Wait();

 private:
  friend class ThreadPool;

  void OnTaskDone(std::exception_ptr error);

  ThreadPool* pool_;
  std::mutex mutex_;
  std::condition_variable all_done_;
  std::size_t outstanding_ = 0;
  std::exception_ptr error_;
};

}  // namespace swfomc::runtime

#endif  // SWFOMC_RUNTIME_THREAD_POOL_H_
