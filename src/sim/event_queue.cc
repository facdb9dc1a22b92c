#include "src/sim/event_queue.h"

#include <algorithm>

#include "src/common/logging.h"

namespace cedar {

uint64_t EventQueue::Schedule(SimTime time, EventCallback callback) {
  CEDAR_CHECK(time >= now_) << "scheduling into the past: " << time << " < " << now_;
  CEDAR_CHECK(IsFiniteTime(time)) << "scheduling at non-finite time";
  const uint64_t seq = state_.size();
  state_.push_back(State::kQueued);
  heap_.push_back(Entry{time, seq, std::move(callback)});
  std::push_heap(heap_.begin(), heap_.end(), EntryLater());
  return seq + 1;
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
    std::pop_heap(heap_.begin(), heap_.end(), EntryLater());
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    const bool cancelled = state_[entry.seq] == State::kCancelled;
    state_[entry.seq] = State::kDone;
    if (cancelled) {
      --cancelled_queued_;
      continue;
    }
    now_ = entry.time;
    entry.callback();
    return true;
  }
  return false;
}

void EventQueue::Run() {
  while (RunOne()) {
  }
}

}  // namespace cedar
