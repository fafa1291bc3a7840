#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#if defined(__linux__)
#include <sched.h>
#endif

namespace flash {

std::size_t ThreadPool::hardware_threads() noexcept {
#if defined(__linux__) && defined(CPU_COUNT)
  // hardware_concurrency counts the host's CPUs even under an affinity
  // mask (taskset, cgroup cpusets), so ask for the ones we may run on.
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  if (sched_getaffinity(0, sizeof(cpus), &cpus) == 0 && CPU_COUNT(&cpus) > 0) {
    return static_cast<std::size_t>(CPU_COUNT(&cpus));
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads > 0 ? threads : hardware_threads();
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Shared by the runner tasks; the caller blocks until `pending` drains.
  struct State {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;
    std::exception_ptr error;
  };
  auto state = std::make_shared<State>();

  const std::size_t runners = std::min(pool.size(), n);
  state->pending = runners;
  for (std::size_t r = 0; r < runners; ++r) {
    pool.submit([state, n, &fn] {
      for (;;) {
        const std::size_t i = state->next.fetch_add(1);
        if (i >= n) break;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->mutex);
          if (!state->error) state->error = std::current_exception();
        }
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      if (--state->pending == 0) state->done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&] { return state->pending == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace flash
