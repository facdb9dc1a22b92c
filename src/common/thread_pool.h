// A fixed-size thread pool and the one chunked parallel loop that runs on
// it, ParallelFor: the concurrency substrate of the experiment engine
// (src/sim/experiment_engine.h). Its claim-and-latch core, ChunkedLoop,
// also runs without a pool: the threads that request a wait table fill it
// together (src/core/wait_table_store.h).
//
// ParallelFor posts runner tasks that claim chunks from a shared counter,
// so skewed chunks balance without per-worker deques or stealing. One
// mutex, no lock-free cleverness: chunks are milliseconds long and the pool
// must stay obviously correct under ThreadSanitizer.
//
// Determinism contract: the pool never introduces randomness. Callers that
// want thread-count-independent results make their chunks independent
// (per-index seeding, disjoint output slots; see experiment_engine.h).

#ifndef CEDAR_SRC_COMMON_THREAD_POOL_H_
#define CEDAR_SRC_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <latch>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cedar {

// One chunked loop's claims: [0, |total|) split into m = min(|chunks|,
// |total|) near-equal contiguous ranges (both >= 1), the first total % m
// one longer. Any number of threads may call RunChunks at once: each claims
// chunks in index order and runs body(begin, end, chunk) until none is
// left, so a late thread never calls |body|. |done| opens once every chunk
// has finished.
struct ChunkedLoop {
  using Body = std::function<void(long long, long long, int)>;

  ChunkedLoop(Body body, long long total, int chunks)
      : body(std::move(body)),
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

  const Body body;
  const long long n_chunks;
  const long long base;
  const long long remainder;
  std::atomic<long long> next{0};
  std::latch done;  // counts chunks not yet finished
};

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
                          const ChunkedLoop::Body& body);

  // Queues |copies| copies of |task| and wakes the workers.
  void Post(long long copies, const std::function<void()>& task);
  void WorkerLoop();

  const int num_threads_;
  Mutex mutex_;
  CondVar work_cv_;  // signalled on Post and shutdown
  std::vector<std::function<void()>> tasks_ CEDAR_GUARDED_BY(mutex_);
  bool stopping_ CEDAR_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_;  // last: the workers use every member above
};

// Resolves a --threads style request: n >= 1 means n workers, n <= 0 one
// per hardware thread; either is capped at ThreadPool::kMaxThreads.
int ResolveThreadCount(int requested);

// Runs body(begin, end, chunk) once for each of the m chunks of a
// ChunkedLoop over [0, |total|) and returns when every chunk is done. Chunks
// are independent; the caller must make their side effects disjoint. With
// |pool| null the caller runs them inline, in chunk order; otherwise
// min(pool->num_threads(), m) workers run them while the caller only waits,
// so the loop never has more threads than the pool (DESIGN.md §8). A call
// from a worker of |pool| is fatal: once every worker waits in one, no
// worker is left to run the chunks.
void ParallelFor(ThreadPool* pool, long long total, int chunks, const ChunkedLoop::Body& body);

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_THREAD_POOL_H_
