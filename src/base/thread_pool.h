// Fixed-size worker pool shared by the compute and service tiers.
//
// Deliberately minimal: a locked FIFO of std::function tasks drained by N
// long-lived threads. Nothing here orders tasks — determinism is always the
// caller's job. The two in-tree users solve it differently: the answering
// service assigns each request its RNG stream at submission time, and the
// kernels tier (linalg/kernels/parallel.h) partitions work by problem shape
// so any scheduling of the disjoint pieces produces identical bits.

#ifndef LRM_BASE_THREAD_POOL_H_
#define LRM_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lrm {

/// \brief Fixed pool of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding tasks, then joins the workers. An exception
  /// captured from a task but never observed via Wait() is dropped.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks submitted after shutdown began are rejected
  /// silently (owners only shut the pool down in their destructor, after
  /// all submissions have completed).
  void Submit(std::function<void()> task);

  /// Blocks until every task submitted so far has finished executing. If
  /// any task threw since the last Wait(), rethrows the first such
  /// exception (subsequent ones are dropped); the worker that caught it
  /// keeps running, so the pool stays usable afterwards.
  void Wait();

  /// Grows the pool to `num_threads` workers if it currently has fewer
  /// (never shrinks). Returns the number of workers added. Thread-safe
  /// against concurrent Submit/Wait.
  int EnsureThreads(int num_threads);

  int num_threads() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::exception_ptr first_error_;  // first uncollected task exception
  int in_flight_ = 0;               // tasks popped but not yet finished
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace lrm

#endif  // LRM_BASE_THREAD_POOL_H_
