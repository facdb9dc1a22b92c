// Discrete-event simulation core: a time-ordered event queue with stable
// FIFO ordering for simultaneous events. The cluster engines' slot
// scheduler (cluster_runtime.cc) runs its leaf tasks on it; query trees run
// without one (QueryTree::RunFixedTimeLeaves).
//
// The heap orders small {time, seq, slot} keys under push_heap/pop_heap; the
// callbacks live in a side vector of slots that a fired or dropped event
// frees for the next Schedule, so the slots never outnumber the peak count of
// queued events. RunOne moves each callback out of its slot, so a callback
// is never copied. A handle indexes one state byte per scheduled event
// (queued, cancelled or done): Cancel is O(1), and a cancelled event is
// dropped when it reaches the top of the heap.

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
  // or unknown handle is a no-op (a task's two copies race by design).
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

  std::vector<Key> heap_;
  std::vector<EventCallback> callbacks_;  // indexed by slot
  std::vector<uint32_t> free_slots_;      // a stack: the last slot freed is reused first
  std::vector<State> state_;              // indexed by seq
  size_t cancelled_queued_ = 0;
  SimTime now_ = 0.0;
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_EVENT_QUEUE_H_
