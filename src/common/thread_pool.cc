#include "src/common/thread_pool.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace cedar {
namespace {

// The pool whose worker runs on this thread, if any: ParallelFor's test
// for a call from inside its own pool.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  CEDAR_CHECK(num_threads >= 1 && num_threads <= kMaxThreads)
      << "thread pool size " << num_threads << " outside [1, " << kMaxThreads << "]";
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& thread : threads_) {
    thread.join();
  }
}

int ThreadPool::HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void ThreadPool::Post(long long copies, const std::function<void()>& task) {
  {
    MutexLock lock(mutex_);
    tasks_.insert(tasks_.end(), static_cast<size_t>(copies), task);
  }
  work_cv_.NotifyAll();
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && tasks_.empty()) {
        work_cv_.Wait(lock);
      }
      if (tasks_.empty()) {
        return;  // stopping, and nothing left to run
      }
      task = std::move(tasks_.back());
      tasks_.pop_back();
    }
    task();
  }
}

int ResolveThreadCount(int requested) {
  return std::min(requested >= 1 ? requested : ThreadPool::HardwareThreads(),
                  ThreadPool::kMaxThreads);
}

void ParallelFor(ThreadPool* pool, long long total, int chunks, const ChunkedLoop::Body& body) {
  CEDAR_CHECK_GE(total, 0);
  CEDAR_CHECK_GE(chunks, 1);
  if (total == 0) {
    return;
  }
  // Runners may start after the loop has finished (a busy pool runs them
  // arbitrarily late), so the loop is refcounted; a late runner claims no
  // chunk and never calls |body|, whose captures live on the caller's stack.
  auto loop = std::make_shared<ChunkedLoop>(body, total, chunks);
  if (pool == nullptr) {
    loop->RunChunks();
    return;
  }
  CEDAR_CHECK(current_pool != pool)
      << "ParallelFor called from a worker of its own pool: a nested loop on one pool can "
         "deadlock";
  pool->Post(std::min<long long>(pool->num_threads(), loop->n_chunks),
             [loop] { loop->RunChunks(); });
  loop->done.wait();
}

}  // namespace cedar
