// Minimal fixed-size thread pool plus a dynamically-balanced parallel_for.
//
// The pool exists for embarrassingly parallel experiment grids (sim/sweep.h):
// workers pull tasks from one shared queue, and parallel_for hands out loop
// indices through an atomic counter so fast iterations steal slack from slow
// ones without any static partitioning. Determinism is the caller's job:
// tasks must not share mutable state, and anything seeded must derive its
// seed from the task index, never from thread identity or completion order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace flash {

/// Fixed set of worker threads draining one FIFO task queue.
///
/// Thread-safety: submit() and wait_idle() may be called from any thread;
/// the destructor must race with neither. Tasks run concurrently and must
/// synchronize among themselves if they share state.
class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means one per hardware thread.
  explicit ThreadPool(std::size_t threads = 0);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1).
  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw out of operator() — wrap work
  /// that can throw (parallel_for does this for you).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void wait_idle();

  /// The number of CPUs this process may run on (its affinity mask where
  /// the platform reports one, else std::thread::hardware_concurrency),
  /// with a floor of 1.
  static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t active_ = 0;  // tasks currently executing
  bool stopping_ = false;
};

/// Runs fn(0) .. fn(n-1) across the pool and blocks until all complete.
///
/// Indices are claimed one at a time through an atomic counter (dynamic load
/// balancing); the mapping of index to thread is therefore unspecified, so
/// fn must be independent across indices. If any invocation throws, the
/// remaining indices still run and one arbitrary failing invocation's
/// exception (the first captured in wall-clock order) is rethrown.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace flash
