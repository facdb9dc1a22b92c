// ShuffledSlotStack: the cluster's idle slot ids, a stack whose initial
// order is a seeded Fisher-Yates shuffle of 0..n-1, drawn lazily.
//
// The backward shuffle fixes position i - 1 with its step i (a draw in
// [0, i)) and never touches it again, and the stack is popped from the back.
// So the stack keeps the length u of the prefix not yet fixed, and a pop
// that reaches it runs step u, the one draw that fixes the element it
// returns. Ids pushed back sit above the prefix and are not touched. Every
// pop returns exactly what it would from the stack shuffled in full up
// front, while a run that uses k slots draws k times, not n.

#ifndef CEDAR_SRC_CLUSTER_SLOT_STACK_H_
#define CEDAR_SRC_CLUSTER_SLOT_STACK_H_

#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/stats/rng.h"

namespace cedar {

class ShuffledSlotStack {
 public:
  // Slots 0..|slots|-1, shuffled from |seed|.
  ShuffledSlotStack(int slots, uint64_t seed)
      : ids_(static_cast<size_t>(slots)), unshuffled_(ids_.size()), rng_(seed) {
    std::iota(ids_.begin(), ids_.end(), 0);
  }

  bool empty() const { return ids_.empty(); }

  int Pop() {
    CEDAR_CHECK(!ids_.empty()) << "no idle slot";
    if (ids_.size() == unshuffled_) {
      if (unshuffled_ > 1) {
        const size_t j = static_cast<size_t>(rng_.NextBounded(unshuffled_));
        std::swap(ids_[unshuffled_ - 1], ids_[j]);
      }
      --unshuffled_;
    }
    const int id = ids_.back();
    ids_.pop_back();
    return id;
  }

  void Push(int id) { ids_.push_back(id); }

 private:
  std::vector<int> ids_;  // the back is popped next
  size_t unshuffled_;     // ids_[0, unshuffled_) are not yet fixed
  Rng rng_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_CLUSTER_SLOT_STACK_H_
