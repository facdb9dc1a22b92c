#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <tuple>
#include <vector>

namespace cedar {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1);
}

TEST(ThreadPoolTest, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
  EXPECT_EQ(ResolveThreadCount(0),
            std::min(ThreadPool::HardwareThreads(), ThreadPool::kMaxThreads));
  EXPECT_EQ(ResolveThreadCount(-3), ResolveThreadCount(0));
  EXPECT_EQ(ResolveThreadCount(ThreadPool::kMaxThreads), ThreadPool::kMaxThreads);
  EXPECT_EQ(ResolveThreadCount(100000), ThreadPool::kMaxThreads);
}

// "threadsafe" style re-execs the death-test child, so the fork is safe
// even if an earlier test left a thread behind.
TEST(ThreadPoolDeathTest, ConstructorRejectsASizeOutsideTheCap) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The check runs before any worker starts, so neither asks the OS for a
  // thread.
  EXPECT_DEATH(ThreadPool pool(ThreadPool::kMaxThreads + 1), "thread pool size 257");
  EXPECT_DEATH(ThreadPool pool(0), "thread pool size 0");
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr long long kTotal = 1000;
  std::vector<std::atomic<int>> hits(kTotal);
  ParallelFor(&pool, kTotal, 16, [&hits](long long begin, long long end, int /*chunk*/) {
    for (long long i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (long long i = 0; i < kTotal; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, MoreChunksThanItems) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  ParallelFor(&pool, 3, 16, [&count](long long begin, long long end, int /*chunk*/) {
    count.fetch_add(static_cast<int>(end - begin), std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelForTest, ZeroItemsIsANoOp) {
  ThreadPool pool(2);
  ParallelFor(&pool, 0, 4, [](long long, long long, int) { FAIL() << "no chunks expected"; });
  ParallelFor(nullptr, 0, 4, [](long long, long long, int) { FAIL() << "no chunks expected"; });
}

TEST(ParallelForTest, ChunkRangesTileTheIndexSpace) {
  // The first total % chunks ranges are one longer, whoever runs them.
  const std::vector<std::tuple<long long, long long, int>> want = {
      {0, 4, 0}, {4, 7, 1}, {7, 10, 2}};
  ThreadPool pool(1);  // single worker: no data race on |ranges|
  for (ThreadPool* p : {&pool, static_cast<ThreadPool*>(nullptr)}) {
    std::vector<std::tuple<long long, long long, int>> ranges;
    ParallelFor(p, 10, 3, [&ranges](long long begin, long long end, int chunk) {
      ranges.emplace_back(begin, end, chunk);
    });
    // Chunks are claimed in index order; with one thread they also finish
    // in it, and a null pool runs them inline in the same order.
    EXPECT_EQ(ranges, want) << (p == nullptr ? "null pool" : "one-thread pool");
  }
}

TEST(ParallelForTest, PoolIsReusableAcrossLoops) {
  ThreadPool pool(3);
  std::atomic<long long> count{0};
  for (int loop = 0; loop < 5; ++loop) {
    ParallelFor(&pool, 50, 12, [&count](long long begin, long long end, int /*chunk*/) {
      count.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), (loop + 1) * 50);
  }
}

TEST(ParallelForDeathTest, CallFromAWorkerOfTheSamePoolDies) {
  // A chunk that loops on its own pool would wait for runners that need a
  // free worker; once every worker waits so, the run deadlocks. The call
  // dies instead, naming the problem.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        ParallelFor(&pool, 2, 2, [&pool](long long, long long, int) {
          ParallelFor(&pool, 4, 4, [](long long, long long, int) {});
        });
      },
      "ParallelFor called from a worker of its own pool");
}

TEST(ParallelForTest, ExternalCallerRunsNoChunkAndCapsInFlight) {
  // A caller that is not a worker only waits: the loop never runs on more
  // threads than the pool has.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> on_caller{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::atomic<int> chunks_run{0};
  ParallelFor(&pool, 64, 64, [&](long long, long long, int) {
    if (std::this_thread::get_id() == caller) {
      on_caller.fetch_add(1, std::memory_order_relaxed);
    }
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    in_flight.fetch_sub(1);
    chunks_run.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(chunks_run.load(), 64);
  EXPECT_EQ(on_caller.load(), 0);
  EXPECT_GE(max_in_flight.load(), 1);
  EXPECT_LE(max_in_flight.load(), pool.num_threads());
}

}  // namespace
}  // namespace cedar
