#include "src/common/sample_set.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"
#include "src/common/math_util.h"

namespace cedar {

SampleSet::SampleSet(std::vector<double> values) : values_(std::move(values)) {}

void SampleSet::Add(double value) {
  values_.push_back(value);
  sorted_valid_ = false;
}

void SampleSet::EnsureSorted() const {
  if (!sorted_valid_) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
}

double SampleSet::Mean() const {
  CEDAR_CHECK(!values_.empty());
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum / static_cast<double>(values_.size());
}

double SampleSet::StdDev() const {
  if (values_.size() < 2) {
    return 0.0;
  }
  double mean = Mean();
  double ss = 0.0;
  for (double v : values_) {
    ss += (v - mean) * (v - mean);
  }
  return std::sqrt(ss / static_cast<double>(values_.size() - 1));
}

double SampleSet::Min() const {
  EnsureSorted();
  CEDAR_CHECK(!sorted_.empty());
  return sorted_.front();
}

double SampleSet::Max() const {
  EnsureSorted();
  CEDAR_CHECK(!sorted_.empty());
  return sorted_.back();
}

double SampleSet::Sum() const {
  double sum = 0.0;
  for (double v : values_) {
    sum += v;
  }
  return sum;
}

double SampleSet::Quantile(double p) const {
  EnsureSorted();
  return QuantileOfSorted(sorted_, p);
}

double SampleSet::Ecdf(double x) const {
  EnsureSorted();
  CEDAR_CHECK(!sorted_.empty());
  auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) / static_cast<double>(sorted_.size());
}

std::vector<std::pair<double, double>> SampleSet::CdfPoints(size_t max_points) const {
  EnsureSorted();
  std::vector<std::pair<double, double>> points;
  if (sorted_.empty()) {
    return points;
  }
  size_t n = sorted_.size();
  size_t count = std::min(max_points, n);
  points.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Evenly spaced ranks, always including the max.
    size_t rank = (count == 1) ? n - 1 : i * (n - 1) / (count - 1);
    points.emplace_back(sorted_[rank], static_cast<double>(rank + 1) / static_cast<double>(n));
  }
  return points;
}

}  // namespace cedar
