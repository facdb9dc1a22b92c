#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <utility>

#include "src/common/logging.h"

namespace cedar {
namespace {

// The pool whose worker runs on this thread, if any: ParallelFor's test
// for a nested call.
thread_local const ThreadPool* current_pool = nullptr;

// One ParallelFor call's chunk claims. Runners may start after the loop
// has finished (a busy pool runs them arbitrarily late), so the state is
// refcounted, and a late runner sees next >= n_chunks and returns without
// touching |body|, which lives on the caller's stack.
struct Loop {
  Loop(const std::function<void(long long, long long, int)>& body, long long total, int chunks)
      : body(body),
        n_chunks(std::min<long long>(chunks, total)),
        base(total / n_chunks),
        remainder(total % n_chunks),
        done(n_chunks) {}

  void RunChunks() {
    for (long long c = next.fetch_add(1); c < n_chunks; c = next.fetch_add(1)) {
      const long long begin = c * base + std::min(c, remainder);
      body(begin, begin + base + (c < remainder ? 1 : 0), static_cast<int>(c));
      done.count_down();
    }
  }

  const std::function<void(long long, long long, int)>& body;
  const long long n_chunks;
  const long long base;
  const long long remainder;
  std::atomic<long long> next{0};
  std::latch done;  // counts chunks not yet finished
};

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
      // Newest first: a nested loop's helpers run before outer runners that
      // have not started yet (see the header).
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

void ParallelFor(ThreadPool* pool, long long total, int chunks,
                 const std::function<void(long long, long long, int)>& body) {
  CEDAR_CHECK_GE(total, 0);
  CEDAR_CHECK_GE(chunks, 1);
  if (total == 0) {
    return;
  }
  auto loop = std::make_shared<Loop>(body, total, chunks);
  if (pool == nullptr) {
    loop->RunChunks();
    return;
  }
  // A worker caller is itself one of the loop's threads: n - 1 helpers at
  // most, and never a helper without a chunk to claim.
  const long long self = current_pool == pool ? 1 : 0;
  const long long runners =
      std::min<long long>(pool->num_threads() - self, loop->n_chunks - self);
  pool->Post(runners, [loop] { loop->RunChunks(); });
  if (self == 1) {
    loop->RunChunks();
  }
  loop->done.wait();
}

}  // namespace cedar
