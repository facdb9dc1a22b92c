// Precomputed wait-duration tables (§4.3.3: "one can simply precompute
// these wait-durations for recorded distributions").
//
// A WaitTable fixes the tree *above* an aggregator (the upper quality curve
// and the fanout) and precomputes the optimal wait over a grid of
// (location, scale) parameters of the learned bottom-stage distribution.
// The online path then replaces a full CalculateWait scan (~10^2..10^3 CDF
// evaluations) with one bilinear interpolation — the fast path for
// deployments with very tight deadlines or very high aggregator counts.
//
// Grids are in the *fitted parameter* space: (mu, sigma) for log-normal,
// (mean, sd) for normal. Lookups outside the grid are clamped to the edge
// (with a counter so callers can detect a mis-sized grid).
//
// A build allocates the grid, then fills its cells: independent scans of
// one read-only WaitScan, each written to its own slot, so any split of the
// cells among threads gives the same bits (the store's cooperative fill,
// src/core/wait_table_store.h).

#ifndef CEDAR_SRC_CORE_WAIT_TABLE_H_
#define CEDAR_SRC_CORE_WAIT_TABLE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "src/core/wait_optimizer.h"
#include "src/stats/distribution.h"

namespace cedar {

struct WaitTableSpec {
  DistributionFamily family = DistributionFamily::kLogNormal;
  // Location (mu / mean) grid.
  double location_min = 0.0;
  double location_max = 1.0;
  int location_points = 33;
  // Scale (sigma / sd) grid.
  double scale_min = 0.1;
  double scale_max = 2.0;
  int scale_points = 17;

  friend bool operator==(const WaitTableSpec&, const WaitTableSpec&) = default;
};

// Fatal unless a WaitTable can fill |spec|'s grid: a location-scale family
// the learner fits (log-normal or normal), at least 2 points and min < max
// on each axis, and scale_min > 0.
void CheckWaitTableSpec(const WaitTableSpec& spec);

class WaitTable {
 public:
  // Precomputes optimal waits for every grid point: |fanout| children with
  // the parameterized bottom distribution, |upper_quality| above, remaining
  // deadline |deadline|, scan step |epsilon|. Cost: location_points *
  // scale_points CalculateWait scans, run once offline on this thread.
  WaitTable(WaitTableSpec spec, int fanout, const PiecewiseLinear& upper_quality,
            double deadline, double epsilon);

  // Bilinear interpolation of the precomputed wait at the fitted
  // parameters. Out-of-grid values clamp to the edge.
  double Lookup(double location, double scale) const;

  // Like Lookup but takes a fitted spec. Fatal if the family does not match
  // or a parameter is not finite.
  double LookupSpec(const DistributionSpec& fitted) const;

  // Number of Lookup calls that clamped at least one axis (atomic: lookups
  // may come from concurrent aggregators sharing one table).
  long long clamped_lookups() const { return clamped_lookups_.load(std::memory_order_relaxed); }

  const WaitTableSpec& spec() const { return spec_; }
  long long num_cells() const { return static_cast<long long>(waits_.size()); }

 private:
  friend class WaitTableStore;

  // Checks |spec| and allocates its grid; every cell reads 0 until filled.
  explicit WaitTable(WaitTableSpec spec);

  // Fills cells [begin, end) of the location-major grid: cell c is grid
  // point (c / scale_points, c % scale_points).
  void FillCells(const WaitScan& scan, int fanout, long long begin, long long end);

  // Index arithmetic in size_t: int * int would overflow (UB) before the
  // widening cast on grids past ~2^31 cells.
  size_t CellIndex(int li, int si) const {
    return static_cast<size_t>(li) * static_cast<size_t>(spec_.scale_points) +
           static_cast<size_t>(si);
  }
  double At(int li, int si) const { return waits_[CellIndex(li, si)]; }

  WaitTableSpec spec_;
  std::vector<double> waits_;
  mutable std::atomic<long long> clamped_lookups_{0};
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_WAIT_TABLE_H_
