// SampleSet: accumulates scalar observations and answers summary queries
// (mean, stddev, percentiles, ECDF). Used by the metric collectors and the
// figure harnesses.

#ifndef CEDAR_SRC_COMMON_SAMPLE_SET_H_
#define CEDAR_SRC_COMMON_SAMPLE_SET_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace cedar {

class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<double> values);

  void Add(double value);

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Mean() const;
  // Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
  double StdDev() const;
  double Min() const;
  double Max() const;
  double Sum() const;

  // p in [0, 1]; linear interpolation between closest ranks.
  double Quantile(double p) const;
  double Median() const { return Quantile(0.5); }

  // Empirical CDF evaluated at |x|: fraction of samples <= x.
  double Ecdf(double x) const;

  // Returns (value, cumulative fraction) pairs suitable for printing a CDF
  // with at most |max_points| points (subsampled evenly by rank).
  std::vector<std::pair<double, double>> CdfPoints(size_t max_points = 100) const;

  // All values in insertion order (not sorted).
  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_SAMPLE_SET_H_
