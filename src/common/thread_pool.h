#ifndef CLOUDJOIN_COMMON_THREAD_POOL_H_
#define CLOUDJOIN_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cloudjoin {

/// Fixed-size worker pool executing queued closures.
///
/// Used by the engines for functional (real) parallelism; the *simulated*
/// cluster parallelism is handled separately by `sim::` schedulers so that
/// results do not depend on the host machine's core count.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  /// Runs every task still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution.
  void Submit(std::function<void()> fn);

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool shutdown_ = false;
};

/// Runs fn(i) for every i in [0, n) and returns once all n calls have
/// finished. The calling thread runs items itself, helped by at most
/// `pool->num_threads()` pool tasks that claim items from a shared counter.
/// It waits only for items a helper has claimed, never for the pool's
/// other work, so two callers sharing one pool each return after their
/// own items, and a call made from inside a pool task completes even when
/// every worker is busy. A null pool runs every item inline, in order.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

}  // namespace cloudjoin

#endif  // CLOUDJOIN_COMMON_THREAD_POOL_H_
