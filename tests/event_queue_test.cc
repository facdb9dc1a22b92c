#include "src/sim/event_queue.h"

#include <vector>

#include <gtest/gtest.h>

namespace cedar {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(3.0, [&] { order.push_back(3); });
  queue.Schedule(1.0, [&] { order.push_back(1); });
  queue.Schedule(2.0, [&] { order.push_back(2); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    queue.Schedule(1.0, [&order, i] { order.push_back(i); });
  }
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, CancelSuppressesEvent) {
  EventQueue queue;
  bool fired = false;
  uint64_t handle = queue.Schedule(1.0, [&] { fired = true; });
  queue.Cancel(handle);
  queue.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelUnknownOrFiredIsNoop) {
  EventQueue queue;
  int count = 0;
  uint64_t handle = queue.Schedule(1.0, [&] { ++count; });
  queue.Run();
  queue.Cancel(handle);  // already fired
  queue.Cancel(9999);    // never existed
  queue.Schedule(2.0, [&] { ++count; });
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_FALSE(queue.empty());
  queue.Run();
  EXPECT_EQ(count, 2);
}

TEST(EventQueueTest, DoubleCancelCountsOnce) {
  EventQueue queue;
  bool fired = false;
  uint64_t a = queue.Schedule(1.0, [&] { fired = true; });
  queue.Schedule(2.0, [] {});
  queue.Cancel(a);
  queue.Cancel(a);
  EXPECT_EQ(queue.pending(), 1u);
  queue.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, CancelFromSameTimeCallbackSuppressesLaterEvent) {
  EventQueue queue;
  std::vector<int> order;
  uint64_t later = 0;
  queue.Schedule(1.0, [&] {
    order.push_back(0);
    queue.Cancel(later);
  });
  later = queue.Schedule(1.0, [&] { order.push_back(1); });
  queue.Schedule(1.0, [&] { order.push_back(2); });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  EXPECT_EQ(queue.pending(), 0u);
}

// A callable that counts how often it is copied (moves are free).
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* copies_in, int* calls_in) : copies(copies_in), calls(calls_in) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies), calls(other.calls) { ++*copies; }
  CopyCounter(CopyCounter&&) = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = default;
  void operator()() const { ++*calls; }
};

TEST(EventQueueTest, CallbacksAreNeverCopied) {
  EventQueue queue;
  int copies = 0;
  int calls = 0;
  // Enough events to regrow the heap's storage several times.
  for (int i = 0; i < 100; ++i) {
    queue.Schedule(static_cast<double>(100 - i), CopyCounter(&copies, &calls));
  }
  queue.Run();
  EXPECT_EQ(calls, 100);
  EXPECT_EQ(copies, 0);
}

TEST(EventQueueTest, EventsScheduleMoreEvents) {
  EventQueue queue;
  std::vector<double> times;
  queue.Schedule(1.0, [&] {
    times.push_back(queue.now());
    queue.Schedule(5.0, [&] { times.push_back(queue.now()); });
    queue.Schedule(2.0, [&] { times.push_back(queue.now()); });
  });
  queue.Run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0, 5.0}));
}

TEST(EventQueueTest, ScheduleAtCurrentTimeRunsAfterCurrentEvent) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(1.0, [&] {
    order.push_back(0);
    queue.Schedule(1.0, [&] { order.push_back(1); });
  });
  queue.Schedule(1.0, [&] { order.push_back(2); });
  queue.Run();
  // Existing same-time event (2) precedes the newly scheduled one (1).
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(EventQueueTest, RunOneStepsSingleEvent) {
  EventQueue queue;
  int count = 0;
  queue.Schedule(1.0, [&] { ++count; });
  queue.Schedule(2.0, [&] { ++count; });
  EXPECT_TRUE(queue.RunOne());
  EXPECT_EQ(count, 1);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_TRUE(queue.RunOne());
  EXPECT_FALSE(queue.RunOne());
}

TEST(EventQueueTest, PendingExcludesCancelled) {
  EventQueue queue;
  uint64_t a = queue.Schedule(1.0, [] {});
  queue.Schedule(2.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  queue.Cancel(a);
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_FALSE(queue.empty());
}

TEST(EventQueueDeathTest, SchedulingIntoThePastDies) {
  EventQueue queue;
  queue.Schedule(5.0, [] {});
  queue.Run();
  EXPECT_DEATH(queue.Schedule(1.0, [] {}), "past");
}

}  // namespace
}  // namespace cedar
