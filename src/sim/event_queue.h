// Discrete-event simulation core: a time-ordered event queue with stable
// FIFO ordering for simultaneous events. Shared by the aggregation-tree
// simulator and the cluster runtime.
//
// The heap is a vector under push_heap/pop_heap, and RunOne moves each
// callback out of it, so a callback is never copied. A handle indexes one
// state byte per scheduled event (queued, cancelled or done): Cancel is O(1),
// and a cancelled event is dropped when it reaches the top of the heap.

#ifndef CEDAR_SRC_SIM_EVENT_QUEUE_H_
#define CEDAR_SRC_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/common/time_types.h"

namespace cedar {

using EventCallback = std::function<void()>;

class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules |callback| at absolute simulated time |time| (must be >= now).
  // Returns a handle usable with Cancel(). Events at equal times run in
  // scheduling order.
  uint64_t Schedule(SimTime time, EventCallback callback);

  // Cancels a pending event. Cancelling an already-fired, already-cancelled
  // or unknown handle is a no-op (timers race with completions by design).
  void Cancel(uint64_t handle);

  // Runs events until the queue is empty.
  void Run();

  // Runs the single earliest pending event; returns false if none remain.
  bool RunOne();

  // Current simulated time (the time of the last event fired).
  SimTime now() const { return now_; }

  // Number of pending (non-cancelled) events.
  size_t pending() const { return heap_.size() - cancelled_queued_; }

  bool empty() const { return pending() == 0; }

  // Number of events ever scheduled, fired or cancelled.
  uint64_t scheduled() const { return state_.size(); }

 private:
  enum class State : uint8_t { kQueued, kCancelled, kDone };
  struct Entry {
    SimTime time;
    uint64_t seq;  // the event's handle is seq + 1
    EventCallback callback;
  };
  struct EntryLater {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::vector<Entry> heap_;
  std::vector<State> state_;  // indexed by seq
  size_t cancelled_queued_ = 0;
  SimTime now_ = 0.0;
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EVENT_QUEUE_H_
