#ifndef RWDT_ENGINE_THREAD_POOL_H_
#define RWDT_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rwdt::engine {

/// Fixed-size worker pool with a single FIFO task queue.
///
/// The engine submits one task per shard, so tasks are long-lived and the
/// queue never becomes a bottleneck; a plain mutex-protected deque keeps
/// the implementation obviously correct. `Wait()` blocks until every
/// submitted task has *finished* (not merely been dequeued), so callers
/// can reduce shard results immediately after it returns.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(unsigned threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Never blocks (unbounded queue).
  void Submit(std::function<void()> task);

  /// Blocks until all tasks submitted so far have completed.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Tasks submitted but not yet finished (queued + running) — the
  /// `rwdt_engine_queue_depth` gauge on /metrics. Point-in-time by
  /// nature; taken under the queue mutex, off the worker hot path.
  size_t QueueDepth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;  // dequeued but not yet finished
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace rwdt::engine

#endif  // RWDT_ENGINE_THREAD_POOL_H_
