// A fixed-size thread pool and the one chunked parallel loop that runs on
// it, ParallelFor: the concurrency substrate of the experiment engine
// (src/sim/experiment_engine.h) and of lent wait-table builds
// (src/core/wait_table.cc).
//
// ParallelFor posts runner tasks that claim chunks from a shared counter,
// so skewed chunks balance without per-worker deques or stealing. The
// pool's one queue hands out the newest task first (LIFO): a wait-table
// build inside an experiment chunk posts its helpers after the
// experiment's runners, and a free worker joins the build before it starts
// another runner (DESIGN.md §8). One mutex, no lock-free cleverness:
// chunks are milliseconds long and the pool must stay obviously correct
// under ThreadSanitizer.
//
// Determinism contract: the pool never introduces randomness. Callers that
// want thread-count-independent results make their chunks independent
// (per-index seeding, disjoint output slots; see experiment_engine.h).

#ifndef CEDAR_SRC_COMMON_THREAD_POOL_H_
#define CEDAR_SRC_COMMON_THREAD_POOL_H_

#include <functional>
#include <thread>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cedar {

class ThreadPool {
 public:
  // The most workers one pool may have: thread counts come from user flags,
  // and a typo must not ask the OS for 100k threads.
  static constexpr int kMaxThreads = 256;

  // Spawns |num_threads| workers, in [1, kMaxThreads].
  explicit ThreadPool(int num_threads);

  // Joins the workers once the queue is empty. What may remain queued is
  // runners of finished loops, which return at once.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // std::thread::hardware_concurrency() clamped to >= 1.
  static int HardwareThreads();

 private:
  friend void ParallelFor(ThreadPool* pool, long long total, int chunks,
                          const std::function<void(long long, long long, int)>& body);

  // Queues |copies| copies of |task| and wakes the workers.
  void Post(long long copies, const std::function<void()>& task);
  void WorkerLoop();

  const int num_threads_;
  Mutex mutex_;
  CondVar work_cv_;  // signalled on Post and shutdown
  std::vector<std::function<void()>> tasks_ CEDAR_GUARDED_BY(mutex_);  // back = newest
  bool stopping_ CEDAR_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

// Resolves a --threads style request: n >= 1 means n workers, n <= 0 one
// per hardware thread; either is capped at ThreadPool::kMaxThreads.
int ResolveThreadCount(int requested);

// Splits [0, |total|) into m = min(|chunks|, |total|) near-equal contiguous
// ranges, the first total % m one longer, and runs body(begin, end, chunk)
// once for each, claiming chunks in index order. Returns when every chunk
// is done. Chunks are independent; the caller must make their side effects
// disjoint. With n = pool->num_threads(), who runs the chunks:
//  - |pool| null: the caller, inline, in chunk order.
//  - a worker of |pool| (a nested loop, as in the wait-table store's
//    single-flight build): the caller, alongside at most min(n - 1, m - 1)
//    helpers, so progress never waits for a free worker and the nested loop
//    cannot deadlock.
//  - any other thread: min(n, m) workers, while the caller only waits. A
//    caller that ran chunks would be one more thread than the pool has,
//    with its own thread-local allocations (DESIGN.md §8).
void ParallelFor(ThreadPool* pool, long long total, int chunks,
                 const std::function<void(long long, long long, int)>& body);

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_THREAD_POOL_H_
