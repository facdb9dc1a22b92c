#include "src/sim/event_queue.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/stats/rng.h"

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

TEST(EventQueueTest, ScheduleAtNowReusesTheFreedSlotAndRunsAfterTheCurrentEvent) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(1.0, [&] {
    order.push_back(0);
    // The slot of the event now running was freed before it ran.
    queue.Schedule(queue.now(), [&] { order.push_back(1); });
    EXPECT_EQ(queue.slots(), 1u);
    order.push_back(2);
  });
  queue.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(queue.slots(), 1u);
  EXPECT_EQ(queue.scheduled(), 2u);
}

TEST(EventQueueTest, CancellingAFiredHandleLeavesTheSlotsNewEventAlone) {
  EventQueue queue;
  int first = 0;
  int second = 0;
  uint64_t fired = queue.Schedule(1.0, [&] { ++first; });
  queue.Run();
  uint64_t reuser = queue.Schedule(2.0, [&] { ++second; });
  ASSERT_EQ(queue.slots(), 1u);  // the new event sits in the fired one's slot
  queue.Cancel(fired);
  EXPECT_EQ(queue.pending(), 1u);
  queue.Run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_NE(fired, reuser);
}

// A seeded mix of 10k schedule, cancel and RunOne operations against a
// reference that keeps every queued event, cancelled ones included, in a
// std::map ordered by (time, seq): the queue must fire exactly the
// reference's events in exactly its order, and hold exactly as many
// callback slots as the reference's peak size. Times are multiples of 0.25
// so ties are common, and some callbacks schedule at now() from inside the
// queue.
TEST(EventQueueTest, MatchesAMapReferenceOnRandomOperations) {
  // A queue reserved below and above the run's peak count of queued events
  // behaves as an unreserved one.
  for (size_t reserved : {size_t{0}, size_t{16}, size_t{4096}}) {
    SCOPED_TRACE("reserved " + std::to_string(reserved));
    struct Ref {
      uint64_t id = 0;
      bool cancelled = false;
    };
    EventQueue queue;
    if (reserved > 0) {
      queue.Reserve(reserved);
    }
    Rng rng(26);
    std::map<std::pair<double, uint64_t>, Ref> reference;  // (time, handle)
    std::map<uint64_t, double> time_of;                    // every handle issued
    std::vector<uint64_t> expected;
    std::vector<uint64_t> fired;
    size_t peak = 0;
    uint64_t next_id = 0;
    std::function<void(double)> schedule = [&](double time) {
      const uint64_t id = next_id++;
      const bool spawns = id % 5 == 0;
      const uint64_t handle = queue.Schedule(time, [&, id, spawns] {
        fired.push_back(id);
        if (spawns) {
          schedule(queue.now());
        }
      });
      ASSERT_EQ(time_of.count(handle), 0u);
      time_of[handle] = time;
      reference[{time, handle}] = Ref{id, false};
      peak = std::max(peak, reference.size());
    };
    // Drops the reference's cancelled events ahead of its first live one, as
    // the queue does, fires that one and runs the queue once; false if the
    // two disagree on whether an event was left to run.
    auto run_one = [&] {
      while (!reference.empty() && reference.begin()->second.cancelled) {
        reference.erase(reference.begin());
      }
      const bool any = !reference.empty();
      if (any) {
        expected.push_back(reference.begin()->second.id);
        reference.erase(reference.begin());
      }
      return queue.RunOne() == any;
    };
    for (int op = 0; op < 10000; ++op) {
      const uint64_t kind = rng.NextBounded(10);
      if (kind < 4) {
        schedule(queue.now() + 0.25 * static_cast<double>(rng.NextBounded(8)));
      } else if (kind < 6) {
        if (time_of.empty()) {
          continue;
        }
        // Any handle ever issued: queued, cancelled or fired.
        const uint64_t handle = 1 + rng.NextBounded(time_of.size());
        queue.Cancel(handle);
        auto it = reference.find({time_of[handle], handle});
        if (it != reference.end()) {
          it->second.cancelled = true;
        }
      } else {
        // Half the time kind 9 cancels the first live event first, so that
        // RunOne meets a cancelled event at the top of the heap.
        if (kind == 9 && rng.NextBounded(2) == 0) {
          auto live = std::find_if(reference.begin(), reference.end(),
                                   [](const auto& entry) { return !entry.second.cancelled; });
          if (live != reference.end()) {
            queue.Cancel(live->first.second);
            live->second.cancelled = true;
          }
        }
        ASSERT_TRUE(run_one()) << "op " << op;
      }
      size_t live = 0;
      for (const auto& [key, ref] : reference) {
        live += ref.cancelled ? 0 : 1;
      }
      ASSERT_EQ(queue.pending(), live) << "op " << op;
    }
    // Slots grow only when every one holds a queued event.
    EXPECT_EQ(queue.slots(), peak);
    EXPECT_GT(peak, 16u);
    EXPECT_LT(peak, 4096u);
    while (!queue.empty()) {
      ASSERT_TRUE(run_one());
    }
    EXPECT_TRUE(run_one());  // both are empty
    EXPECT_EQ(fired, expected);
    EXPECT_EQ(queue.scheduled(), next_id);
    EXPECT_GT(fired.size(), 1000u);
  }
}

TEST(EventQueueDeathTest, SchedulingIntoThePastDies) {
  EventQueue queue;
  queue.Schedule(5.0, [] {});
  queue.Run();
  EXPECT_DEATH(queue.Schedule(1.0, [] {}), "past");
}

}  // namespace
}  // namespace cedar
