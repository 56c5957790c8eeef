#include "runtime/thread_pool.h"

#include <algorithm>

namespace swfomc::runtime {

ThreadPool::ThreadPool(unsigned thread_count) {
  unsigned workers = thread_count > 1 ? thread_count - 1 : 0;
  workers_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

unsigned ThreadPool::ResolveThreadCount(unsigned requested) {
  if (requested != 0) return requested;
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void ThreadPool::Run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  Job job{&fn, count, 0, 0, nullptr};
  std::unique_lock<std::mutex> lock(mutex_);
  queue_.push_back(&job);
  work_available_.notify_all();
  Drain(&job, lock);
  // Every index is claimed and the job has left the queue, so no worker
  // can enter it any more; wait for the ones still inside a call.
  job_finished_.wait(lock, [&job] { return job.running == 0; });
  if (job.error != nullptr) std::rethrow_exception(job.error);
}

void ThreadPool::Drain(Job* job, std::unique_lock<std::mutex>& lock) {
  while (job->next < job->count) {
    std::size_t index = job->next++;
    if (job->next == job->count) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), job));
    }
    ++job->running;
    lock.unlock();
    std::exception_ptr error;
    try {
      (*job->fn)(index);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    --job->running;
    if (error != nullptr && job->error == nullptr) {
      job->error = error;
      if (job->next < job->count) {
        job->next = job->count;  // skip the indices nobody started
        queue_.erase(std::find(queue_.begin(), queue_.end(), job));
      }
    }
  }
  // Notified under the lock: the caller's wait cannot return, and `job`
  // cannot leave the caller's stack, before this thread lets go of it.
  if (job->running == 0) job_finished_.notify_all();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    work_available_.wait(
        lock, [this] { return shutting_down_ || !queue_.empty(); });
    if (queue_.empty()) return;
    Drain(queue_.front(), lock);
  }
}

}  // namespace swfomc::runtime
