#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mcmcpar::par {

/// A fixed-size worker pool whose one operation is a blocking fork-join.
///
/// Workers are std::jthread, so destruction joins automatically after the
/// stop flag drains the queue. `parallelFor` runs fn(i) for i in [0, n)
/// across the workers and the calling thread, returning when every index
/// completed. Exceptions from fn propagate out of parallelFor (first one
/// wins).
class ThreadPool {
 public:
  /// Spawn `threads` workers (0 = hardware concurrency, at least 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned threadCount() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Run fn(i) for every i in [0, n), distributing dynamically (one index
  /// per task; appropriate for coarse tasks like MCMC partitions). Blocks.
  /// Reentrant: fn may itself call parallelFor on the same pool — the
  /// waiting caller helps drain the task queue, so nested calls make
  /// progress even when every worker is blocked in an enclosing call.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void workerLoop(const std::stop_token& stop);

  /// Enqueue one of parallelFor's helper tasks. They are noexcept: each
  /// catches fn's exceptions itself, so none escapes into a worker.
  void submit(std::function<void()> task);

  /// Pop and run one queued task on the calling thread; false if the queue
  /// was empty. Used by parallelFor to help while waiting.
  bool runPendingTask();

  std::vector<std::jthread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable taskReady_;
  bool stopping_ = false;
};

}  // namespace mcmcpar::par
