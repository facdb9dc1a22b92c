#include "src/core/tree.h"

#include <sstream>

#include "src/common/logging.h"

namespace cedar {

TreeSpec::TreeSpec(std::vector<StageSpec> stages) : stages_(std::move(stages)) {
  CEDAR_CHECK_GE(stages_.size(), 1u) << "a tree needs at least one stage";
  for (const auto& stage : stages_) {
    CEDAR_CHECK(stage.duration != nullptr) << "stage without a duration distribution";
    CEDAR_CHECK_GE(stage.fanout, 1) << "stage fanout must be >= 1";
  }
}

TreeSpec TreeSpec::TwoLevel(std::shared_ptr<const Distribution> x1, int k1,
                            std::shared_ptr<const Distribution> x2, int k2) {
  std::vector<StageSpec> stages;
  stages.emplace_back(std::move(x1), k1);
  stages.emplace_back(std::move(x2), k2);
  return TreeSpec(std::move(stages));
}

const StageSpec& TreeSpec::stage(int i) const {
  CEDAR_CHECK(i >= 0 && i < num_stages()) << "stage index " << i << " out of range";
  return stages_[static_cast<size_t>(i)];
}

long long TreeSpec::TotalProcesses() const {
  long long total = 1;
  for (const auto& stage : stages_) {
    total *= stage.fanout;
  }
  return total;
}

double TreeSpec::SumOfStageMeans() const {
  double sum = 0.0;
  for (const auto& stage : stages_) {
    sum += stage.duration->Mean();
  }
  return sum;
}

std::string TreeSpec::ToString() const {
  std::ostringstream s;
  s << "tree[";
  for (int i = 0; i < num_stages(); ++i) {
    if (i != 0) {
      s << " -> ";
    }
    s << "X" << (i + 1) << "=" << stages_[static_cast<size_t>(i)].duration->ToString() << " k"
      << (i + 1) << "=" << stages_[static_cast<size_t>(i)].fanout;
  }
  s << "]";
  return s.str();
}

}  // namespace cedar
