#ifndef SWFOMC_RUNTIME_THREAD_POOL_H_
#define SWFOMC_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace swfomc::runtime {

/// A fixed set of persistent worker threads behind one flat loop,
/// ParallelFor. The pool makes no ordering promises — callers that need
/// determinism must combine results in a schedule-independent way (serve,
/// the one user, writes each weight vector's value into its own slot of
/// the response, so any schedule yields the same bytes).
///
/// All hand-off state sits behind one mutex: the loop bodies in this
/// codebase are coarse (one weight vector evaluated over a compiled
/// circuit), so claiming an index costs far less than running it.
class ThreadPool {
 public:
  /// Spawns `thread_count - 1` workers; the thread calling ParallelFor
  /// acts as the remaining one. `thread_count` of 0 or 1 spawns none.
  explicit ThreadPool(unsigned thread_count);
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

  /// Runs fn(0), ..., fn(count - 1) on the workers and the calling thread
  /// and returns once every call has finished. The first exception a call
  /// throws is rethrown here; indices not yet started by then are skipped,
  /// and the pool stays usable. Several threads may call ParallelFor at
  /// once and share the workers. Without workers (or with fewer than two
  /// indices) the loop runs inline: no thread, lock or allocation.
  template <typename Fn>
  void ParallelFor(std::size_t count, const Fn& fn) {
    if (workers_.empty() || count < 2) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    // A std::function over a reference_wrapper stores no copy of `fn`.
    Run(count, std::cref(fn));
  }

 private:
  /// One ParallelFor call in flight; it lives on the caller's stack. All
  /// fields but `fn` and `count` are guarded by the pool's mutex.
  struct Job {
    const std::function<void(std::size_t)>* fn;
    std::size_t count;
    std::size_t next = 0;     // first index nobody has claimed yet
    std::size_t running = 0;  // threads inside a call of this job
    std::exception_ptr error;
  };

  void Run(std::size_t count, const std::function<void(std::size_t)>& fn);
  /// Claims and runs `job`'s indices until none is left. Entered and left
  /// with `lock` held; drops it around each call.
  void Drain(Job* job, std::unique_lock<std::mutex>& lock);
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;  // queue_ grew or shutdown
  std::condition_variable job_finished_;    // some job's running hit 0
  std::vector<Job*> queue_;  // jobs with unclaimed indices, oldest first
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace swfomc::runtime

#endif  // SWFOMC_RUNTIME_THREAD_POOL_H_
