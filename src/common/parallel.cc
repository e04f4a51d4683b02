#include "pbs/common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace pbs {

struct ParallelFor::Impl {
  std::mutex mu;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  // Guarded by mu: a new job is published by bumping `generation` with
  // `body`/`count` set; workers snapshot the generation they last served.
  uint64_t generation = 0;
  size_t count = 0;
  const std::function<void(size_t, int)>* body = nullptr;
  int active_workers = 0;  // Spawned workers still running the current job.
  bool shutting_down = false;
  // Work distribution: each worker claims indices with fetch_add. Plain
  // increments (chunk size 1) are right for this pool's use -- tens to
  // thousands of reconciliation instances of milliseconds each.
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;

  void WorkerLoop(int worker_index) {
    uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(size_t, int)>* job = nullptr;
      size_t job_count = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        work_ready.wait(lock, [&] {
          return shutting_down || generation != seen_generation;
        });
        if (shutting_down) return;
        seen_generation = generation;
        job = body;
        job_count = count;
      }
      size_t i;
      while ((i = next.fetch_add(1, std::memory_order_relaxed)) < job_count) {
        (*job)(i, worker_index);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (--active_workers == 0) work_done.notify_one();
      }
    }
  }
};

int ParallelFor::ResolveThreads(int requested) {
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ParallelFor::ParallelFor(int threads) : threads_(threads < 1 ? 1 : threads) {
  if (threads_ == 1) return;
  impl_ = std::make_unique<Impl>();
  impl_->workers.reserve(threads_ - 1);
  for (int w = 1; w < threads_; ++w) {
    impl_->workers.emplace_back([this, w] { impl_->WorkerLoop(w); });
  }
}

ParallelFor::~ParallelFor() {
  if (!impl_) return;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->work_ready.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

void ParallelFor::Run(size_t count,
                      const std::function<void(size_t, int)>& body) {
  if (count == 0) return;
  if (!impl_ || count == 1) {
    // Inline: a 1-thread pool, or nothing worth waking workers for.
    for (size_t i = 0; i < count; ++i) body(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->body = &body;
    impl_->count = count;
    impl_->next.store(0, std::memory_order_relaxed);
    impl_->active_workers = static_cast<int>(impl_->workers.size());
    ++impl_->generation;
  }
  impl_->work_ready.notify_all();

  // The calling thread is worker 0.
  size_t i;
  while ((i = impl_->next.fetch_add(1, std::memory_order_relaxed)) < count) {
    body(i, 0);
  }

  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->work_done.wait(lock, [&] { return impl_->active_workers == 0; });
  impl_->body = nullptr;
}

}  // namespace pbs
