// Discrete-event simulation core: a time-ordered event queue with stable
// FIFO ordering for simultaneous events. Shared by the aggregation-tree
// simulator and the cluster runtime.
//
// The heap orders small {time, seq, slot} keys under push_heap/pop_heap; the
// callbacks live in a side vector of slots that a fired or dropped event
// frees for the next Schedule, so the slots never outnumber the peak count of
// queued events. RunOne moves each callback out of its slot, so a callback
// is never copied. A handle indexes one state byte per scheduled event
// (queued, cancelled or done): Cancel is O(1), and a cancelled event is
// dropped when it reaches the top of the heap. A running callback may
// re-queue its own event at a later time under the same seq (Requeue).

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

  // From inside a running callback: queues |callback| at |time| (>= now)
  // under the running event's own seq, so it runs exactly where an event of
  // that seq, scheduled for |time|, would: among events at |time| it keeps
  // its first scheduling's place. Returns the running event's handle, which
  // is queued again (Cancel works on it). Fatal outside a callback or when
  // the running event was already re-queued.
  uint64_t Requeue(SimTime time, EventCallback callback);

  // Cancels a pending event. Cancelling an already-fired, already-cancelled
  // or unknown handle is a no-op (timers race with completions by design).
  void Cancel(uint64_t handle);

  // Makes room for |n| events queued at once, and for the first |n|
  // scheduled, so a run that stays within that schedules without growing
  // storage. Changes no handle and no order.
  void Reserve(size_t n);

  // Runs events until the queue is empty. With profiling on, the whole run
  // is one call of the "event_queue.run" site.
  void Run();

  // Runs the single earliest pending event; returns false if none remain.
  bool RunOne();

  // Runs every event at time <= |t|, in (time, seq) order, including events
  // those callbacks queue at <= |t|. Returns the earliest pending event's
  // time, or kSimTimeInfinity when none remains. A wall-clock loop calls
  // it with the current time and sleeps until the returned one.
  SimTime RunUntil(SimTime t);

  // Current simulated time (the time of the last event fired).
  SimTime now() const { return now_; }

  // Number of pending (non-cancelled) events.
  size_t pending() const { return heap_.size() - cancelled_queued_; }

  bool empty() const { return pending() == 0; }

  // Number of events ever scheduled, fired or cancelled.
  uint64_t scheduled() const { return state_.size(); }

  // Number of callback slots ever allocated: the peak number of queued
  // events, cancelled ones included until they are dropped.
  size_t slots() const { return callbacks_.size(); }

 private:
  enum class State : uint8_t { kQueued, kCancelled, kDone };
  struct Key {
    SimTime time;
    uint64_t seq;   // the event's handle is seq + 1
    uint32_t slot;  // index into callbacks_
  };
  struct KeyLater {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  // Queues |callback| at |time| under |seq|; the caller marks it kQueued.
  void Push(SimTime time, uint64_t seq, EventCallback callback);

  static constexpr uint64_t kNotRunning = UINT64_MAX;

  std::vector<Key> heap_;
  std::vector<EventCallback> callbacks_;  // indexed by slot
  std::vector<uint32_t> free_slots_;      // a stack: the last slot freed is reused first
  std::vector<State> state_;              // indexed by seq
  size_t cancelled_queued_ = 0;
  uint64_t running_seq_ = kNotRunning;  // the seq whose callback is running
  SimTime now_ = 0.0;
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EVENT_QUEUE_H_
