#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/logging.h"

namespace cloudjoin {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  threads_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    CLOUDJOIN_CHECK(!shutdown_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    fn();
  }
}

void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (pool == nullptr || n == 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // A helper may start after the caller has returned, so it shares the
  // claim counter with it; it reads `fn` only for an item it claimed,
  // which the caller is still waiting on.
  struct Shared {
    std::atomic<int64_t> next{0};
    std::mutex mu;
    std::condition_variable done_cv;
    int64_t done = 0;
  };
  auto shared = std::make_shared<Shared>();
  auto drain = [n](Shared* s, const std::function<void(int64_t)>* f) {
    int64_t finished = 0;
    for (int64_t i = s->next.fetch_add(1); i < n; i = s->next.fetch_add(1)) {
      (*f)(i);
      ++finished;
    }
    if (finished == 0) return;
    std::lock_guard<std::mutex> lock(s->mu);
    s->done += finished;
    if (s->done == n) s->done_cv.notify_all();
  };
  const int64_t helpers = std::min<int64_t>(pool->num_threads(), n - 1);
  for (int64_t h = 0; h < helpers; ++h) {
    pool->Submit([shared, drain, f = &fn] { drain(shared.get(), f); });
  }
  drain(shared.get(), &fn);
  std::unique_lock<std::mutex> lock(shared->mu);
  shared->done_cv.wait(lock, [&] { return shared->done == n; });
}

}  // namespace cloudjoin
