// Process-wide precompute service for wait tables (§4.3.3 fast path).
//
// Without sharing, every aggregator of every query would rebuild the same
// (curve, deadline) table. The WaitTableStore builds each table once per
// process, and is CedarPolicy's only wait-table path:
//
//  * Entries are keyed by **content**: everything a build consumes — the
//    WaitTableSpec, the fanout, the remaining deadline, epsilon, and the
//    upper-quality curve's extent and ys. Never addresses: per-query curve
//    stacks are freed between queries, so a recycled allocation could alias
//    a stale table.
//  * Construction is **single-flight and cooperative**: the first get of a
//    key allocates the table and a ChunkedLoop over its location rows.
//    Every get that finds the build in flight, the first included, fills
//    rows until none is left to claim, then waits for the rest. A get after
//    the build is a hit and claims nothing. The requesters are the builders.
//  * Every table stays resident for the store's life. Its traffic is a few
//    tables per process (one per distinct curve, deadline and grid), so
//    nothing is ever evicted.
//
// Stats are also exported through the obs MetricsRegistry (when enabled) as
// wait_table_store.{hits,misses,build_waits}.
//
// Determinism: a returned table depends only on its key, whichever threads
// filled it (WaitTable's cells are independent), so experiment results are
// byte-identical whatever store serves them, for any worker count. See
// DESIGN.md §11.

#ifndef CEDAR_SRC_CORE_WAIT_TABLE_STORE_H_
#define CEDAR_SRC_CORE_WAIT_TABLE_STORE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/wait_table.h"

namespace cedar {

struct ChunkedLoop;

// Point-in-time counters (monotone since construction).
struct WaitTableStoreStats {
  long long hits = 0;         // lookup found a finished table
  long long misses = 0;       // lookup started the build itself
  long long build_waits = 0;  // lookup found the build in flight and joined it
  // Clamped Lookup calls summed over the resident tables — the store-wide
  // mis-sized-grid signal.
  long long clamped_lookups = 0;

  long long Gets() const { return hits + misses + build_waits; }
  double HitRate() const {
    long long gets = Gets();
    return gets > 0 ? static_cast<double>(hits) / static_cast<double>(gets) : 0.0;
  }
};

class WaitTableStore {
 public:
  using TablePtr = std::shared_ptr<const WaitTable>;

  WaitTableStore() = default;
  WaitTableStore(const WaitTableStore&) = delete;
  WaitTableStore& operator=(const WaitTableStore&) = delete;

  // The process-wide store CedarPolicy resolves to by default.
  static WaitTableStore& Global();

  // Returns the table built from exactly these inputs, filling it together
  // with every concurrent requester on a miss. The build scans the first
  // requester's live |upper_quality|, never a copy, so the table is
  // bit-identical to a direct WaitTable build. Blocks until the table is
  // filled; never returns null.
  TablePtr GetOrBuild(const WaitTableSpec& spec, int fanout,
                      const PiecewiseLinear& upper_quality, double deadline, double epsilon);

  WaitTableStoreStats GetStats() const;

  // Tables built or in flight.
  size_t size() const;

 private:
  // One table and the content it was built from.
  struct Entry {
    WaitTableSpec spec;
    int fanout = 0;
    double deadline = 0.0;
    double epsilon = 0.0;
    double curve_min_x = 0.0;
    double curve_max_x = 0.0;
    std::vector<double> curve_ys;
    TablePtr table;
    // The claims on |table|'s rows (the body holds its WaitScan) while in
    // flight; null once every cell is filled.
    std::shared_ptr<ChunkedLoop> fill;
  };

  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_ CEDAR_GUARDED_BY(mutex_);
  // clamped_lookups stays 0 here; GetStats sums the tables'.
  WaitTableStoreStats stats_ CEDAR_GUARDED_BY(mutex_);
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_WAIT_TABLE_STORE_H_
