#include "src/sim/event_queue.h"

#include <algorithm>
#include <limits>

#include "src/common/logging.h"
#include "src/obs/profiler.h"

namespace cedar {

uint64_t EventQueue::Schedule(SimTime time, EventCallback callback) {
  CEDAR_CHECK(time >= now_) << "scheduling into the past: " << time << " < " << now_;
  CEDAR_CHECK(IsFiniteTime(time)) << "scheduling at non-finite time";
  const uint64_t seq = state_.size();
  uint32_t slot;
  if (free_slots_.empty()) {
    CEDAR_CHECK_LT(callbacks_.size(), size_t{std::numeric_limits<uint32_t>::max()})
        << "too many queued events";
    slot = static_cast<uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(callback));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(callback);
  }
  heap_.push_back(Key{time, seq, slot});
  std::push_heap(heap_.begin(), heap_.end(), KeyLater());
  state_.push_back(State::kQueued);
  return seq + 1;
}

void EventQueue::Reserve(size_t n) {
  heap_.reserve(n);
  callbacks_.reserve(n);
  free_slots_.reserve(n);
  state_.reserve(n);
}

void EventQueue::Cancel(uint64_t handle) {
  if (handle == 0 || handle > state_.size() || state_[handle - 1] != State::kQueued) {
    return;
  }
  state_[handle - 1] = State::kCancelled;
  ++cancelled_queued_;
}

bool EventQueue::RunOne() {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), KeyLater());
    const Key key = heap_.back();
    heap_.pop_back();
    // Free the slot before the callback runs: the callback may schedule, and
    // a Schedule that grows callbacks_ would move a callback still in place.
    EventCallback callback = std::move(callbacks_[key.slot]);
    free_slots_.push_back(key.slot);
    const bool cancelled = state_[key.seq] == State::kCancelled;
    state_[key.seq] = State::kDone;
    if (cancelled) {
      --cancelled_queued_;
      continue;
    }
    now_ = key.time;
    callback();
    return true;
  }
  return false;
}

void EventQueue::Run() {
  // One record per run; it includes the profile sites its callbacks enter.
  CEDAR_PROFILE_SCOPE("event_queue.run");
  while (RunOne()) {
  }
}

}  // namespace cedar
