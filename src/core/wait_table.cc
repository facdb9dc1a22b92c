#include "src/core/wait_table.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/obs/metrics.h"

namespace cedar {
namespace {

std::unique_ptr<Distribution> MakeParameterized(DistributionFamily family, double location,
                                                double scale) {
  DistributionSpec spec;
  spec.family = family;
  spec.p1 = location;
  spec.p2 = scale;
  return MakeDistribution(spec);
}

}  // namespace

void CheckWaitTableSpec(const WaitTableSpec& spec) {
  CEDAR_CHECK(spec.family == DistributionFamily::kLogNormal ||
              spec.family == DistributionFamily::kNormal)
      << "wait tables support the location-scale families the learner fits, not "
      << DistributionFamilyName(spec.family);
  CEDAR_CHECK_GE(spec.location_points, 2);
  CEDAR_CHECK_GE(spec.scale_points, 2);
  CEDAR_CHECK_LT(spec.location_min, spec.location_max);
  CEDAR_CHECK_LT(spec.scale_min, spec.scale_max);
  CEDAR_CHECK_GT(spec.scale_min, 0.0);
}

WaitTable::WaitTable(WaitTableSpec spec) : spec_(spec) {
  CheckWaitTableSpec(spec_);
  const size_t total =
      static_cast<size_t>(spec_.location_points) * static_cast<size_t>(spec_.scale_points);
  waits_.resize(total);
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("wait_table.builds").Increment();
    registry.GetCounter("wait_table.grid_points").Increment(static_cast<long long>(total));
  }
}

WaitTable::WaitTable(WaitTableSpec spec, int fanout, const PiecewiseLinear& upper_quality,
                     double deadline, double epsilon)
    : WaitTable(spec) {
  FillCells(WaitScan(upper_quality, deadline, epsilon), fanout, 0, num_cells());
}

void WaitTable::FillCells(const WaitScan& scan, int fanout, long long begin, long long end) {
  for (long long cell = begin; cell < end; ++cell) {
    const int li = static_cast<int>(cell / spec_.scale_points);
    const int si = static_cast<int>(cell % spec_.scale_points);
    double location = Lerp(spec_.location_min, spec_.location_max,
                           static_cast<double>(li) / (spec_.location_points - 1));
    double scale =
        Lerp(spec_.scale_min, spec_.scale_max, static_cast<double>(si) / (spec_.scale_points - 1));
    auto dist = MakeParameterized(spec_.family, location, scale);
    waits_[static_cast<size_t>(cell)] = scan.Optimize(*dist, fanout);
  }
}

double WaitTable::Lookup(double location, double scale) const {
  double lpos = (location - spec_.location_min) / (spec_.location_max - spec_.location_min) *
                (spec_.location_points - 1);
  double spos =
      (scale - spec_.scale_min) / (spec_.scale_max - spec_.scale_min) * (spec_.scale_points - 1);
  if (lpos < 0.0 || lpos > spec_.location_points - 1 || spos < 0.0 ||
      spos > spec_.scale_points - 1) {
    clamped_lookups_.fetch_add(1, std::memory_order_relaxed);
  }
  lpos = Clamp(lpos, 0.0, static_cast<double>(spec_.location_points - 1));
  spos = Clamp(spos, 0.0, static_cast<double>(spec_.scale_points - 1));

  int l0 = static_cast<int>(lpos);
  int s0 = static_cast<int>(spos);
  int l1 = std::min(l0 + 1, spec_.location_points - 1);
  int s1 = std::min(s0 + 1, spec_.scale_points - 1);
  double lf = lpos - l0;
  double sf = spos - s0;

  double low = Lerp(At(l0, s0), At(l0, s1), sf);
  double high = Lerp(At(l1, s0), At(l1, s1), sf);
  return Lerp(low, high, lf);
}

double WaitTable::LookupSpec(const DistributionSpec& fitted) const {
  CEDAR_CHECK(fitted.family == spec_.family)
      << "wait table family mismatch: " << DistributionFamilyName(fitted.family) << " vs "
      << DistributionFamilyName(spec_.family);
  // Lookup casts the grid position to int, which is undefined for NaN.
  CEDAR_CHECK(std::isfinite(fitted.p1) && std::isfinite(fitted.p2))
      << "non-finite fit (" << fitted.p1 << ", " << fitted.p2 << ") for a wait table lookup";
  return Lookup(fitted.p1, fitted.p2);
}

}  // namespace cedar
