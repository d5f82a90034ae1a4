#ifndef SENTINEL_RULES_THREAD_POOL_H_
#define SENTINEL_RULES_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace sentinel::rules {

/// Fixed pool of worker threads (the paper's "pool of free threads", Fig. 3).
/// Tasks are arbitrary closures; Submit never blocks.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Blocks until the queue is empty and every worker is idle.
  void WaitIdle();

  std::size_t worker_count() const { return threads_.size(); }

  /// Hand-off latency: Submit to the moment a worker starts the task.
  const obs::LatencyHistogram& handoff_ns() const { return handoff_ns_; }
  /// Tasks submitted and not yet started (lock-free read).
  std::size_t queued() const { return queued_.load(std::memory_order_relaxed); }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point submitted;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<Task> queue_;
  std::vector<std::thread> threads_;
  std::size_t busy_ = 0;
  bool stop_ = false;
  std::atomic<std::size_t> queued_{0};  // mirrors queue_.size()
  obs::LatencyHistogram handoff_ns_;
};

}  // namespace sentinel::rules

#endif  // SENTINEL_RULES_THREAD_POOL_H_
