#include "src/core/wait_table.h"

#include <cmath>

#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

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

WaitTable::WaitTable(WaitTableSpec spec, int fanout, const PiecewiseLinear& upper_quality,
                     double deadline, double epsilon, ThreadPool* build_pool)
    : spec_(spec), deadline_(deadline) {
  CEDAR_PROFILE_SCOPE("wait_table.build");
  CEDAR_CHECK_GE(spec_.location_points, 2);
  CEDAR_CHECK_GE(spec_.scale_points, 2);
  CEDAR_CHECK_LT(spec_.location_min, spec_.location_max);
  CEDAR_CHECK_LT(spec_.scale_min, spec_.scale_max);
  CEDAR_CHECK_GT(spec_.scale_min, 0.0);
  CEDAR_CHECK(spec_.family == DistributionFamily::kLogNormal ||
              spec_.family == DistributionFamily::kNormal)
      << "wait tables support the location-scale families the learner fits";

  const size_t total =
      static_cast<size_t>(spec_.location_points) * static_cast<size_t>(spec_.scale_points);
  waits_.resize(total);
  if (MetricsEnabled()) {
    // Every build counts here, store-resolved or private: "wait_table.builds"
    // is the total-table-build-work measure the store microbench compares.
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("wait_table.builds").Increment();
    registry.GetCounter("wait_table.grid_points").Increment(static_cast<long long>(total));
  }

  // Each grid point is an independent CalculateWait scan over one shared,
  // read-only WaitScan grid, writing its own slot, so filling chunks
  // concurrently is bit-identical to the serial double loop for any thread
  // count (and with no pool at all).
  const WaitScan scan(upper_quality, deadline, epsilon);
  auto fill = [&](long long begin, long long end, int /*chunk*/) {
    for (long long cell = begin; cell < end; ++cell) {
      const int li = static_cast<int>(cell / spec_.scale_points);
      const int si = static_cast<int>(cell % spec_.scale_points);
      double location = Lerp(spec_.location_min, spec_.location_max,
                             static_cast<double>(li) / (spec_.location_points - 1));
      double scale = Lerp(spec_.scale_min, spec_.scale_max,
                          static_cast<double>(si) / (spec_.scale_points - 1));
      auto dist = MakeParameterized(spec_.family, location, scale);
      At(li, si) = scan.Optimize(*dist, fanout);
    }
  };
  const int chunks = build_pool != nullptr ? build_pool->num_threads() * 4 : 1;
  ParallelFor(build_pool, static_cast<long long>(total), chunks, fill);
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
