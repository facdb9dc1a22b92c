// Aggregation-tree topology and stage-duration specification (Figure 5 and
// Table 1 of the paper).
//
// A tree has n stages, indexed bottom-up from 0. Stage i describes the
// transfer from level-i nodes to their parents: stage 0 is the process
// durations X1, stage n-1 is the topmost aggregators' combine-and-ship
// durations Xn arriving at the root. Fanout k_i is the number of stage-i
// children per parent. Aggregator *tiers* sit above stages 0..n-2; the root
// simply enforces the deadline D on stage n-1 arrivals.

#ifndef CEDAR_SRC_CORE_TREE_H_
#define CEDAR_SRC_CORE_TREE_H_

#include <memory>
#include <string>
#include <vector>
#include <utility>

#include "src/stats/distribution.h"

namespace cedar {

// One stage of the tree. The distribution pointer is shared because the same
// offline distribution object is referenced by every query and policy.
struct StageSpec {
  std::shared_ptr<const Distribution> duration;
  int fanout = 0;

  StageSpec() = default;
  StageSpec(std::shared_ptr<const Distribution> d, int k) : duration(std::move(d)), fanout(k) {}
};

// The full tree: stages[0] is the bottom (process) stage.
class TreeSpec {
 public:
  TreeSpec() = default;
  explicit TreeSpec(std::vector<StageSpec> stages);

  // Convenience for the common two-level case (X1/k1, X2/k2).
  static TreeSpec TwoLevel(std::shared_ptr<const Distribution> x1, int k1,
                           std::shared_ptr<const Distribution> x2, int k2);

  int num_stages() const { return static_cast<int>(stages_.size()); }

  // Number of aggregator tiers that make a wait decision (= n - 1).
  int num_aggregator_tiers() const { return num_stages() - 1; }

  const StageSpec& stage(int i) const;
  const std::vector<StageSpec>& stages() const { return stages_; }

  // Total number of leaf processes: product of all fanouts.
  long long TotalProcesses() const;

  // Sum of stage means (used by the Proportional-split baseline).
  double SumOfStageMeans() const;

  std::string ToString() const;

 private:
  std::vector<StageSpec> stages_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_TREE_H_
