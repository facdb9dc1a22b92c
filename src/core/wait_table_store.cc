#include "src/core/wait_table_store.h"

#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace cedar {
namespace {

// Called with no store lock held, so the registry's mutex never nests inside
// the store's.
void BumpMetric(const char* name) {
  if (MetricsEnabled()) {
    MetricsRegistry::Global().GetCounter(name).Increment();
  }
}

}  // namespace

WaitTableStore& WaitTableStore::Global() {
  static WaitTableStore store;
  return store;
}

WaitTableStore::TablePtr WaitTableStore::GetOrBuild(const WaitTableSpec& spec, int fanout,
                                                    const PiecewiseLinear& upper_quality,
                                                    double deadline, double epsilon) {
  CEDAR_PROFILE_SCOPE("wait_table_store.get");
  const double min_x = upper_quality.min_x();
  const double max_x = upper_quality.max_x();
  TablePtr table;
  std::shared_ptr<ChunkedLoop> fill;
  Entry* started = nullptr;
  {
    MutexLock lock(mutex_);
    for (const auto& entry : entries_) {
      // Scalars first: the ys compare runs only for a likely hit.
      if (entry->spec == spec && entry->fanout == fanout && entry->deadline == deadline &&
          entry->epsilon == epsilon && entry->curve_min_x == min_x &&
          entry->curve_max_x == max_x && entry->curve_ys == upper_quality.ys()) {
        table = entry->table;
        fill = entry->fill;
        ++(fill != nullptr ? stats_.build_waits : stats_.hits);
        break;
      }
    }
    if (table == nullptr) {
      ++stats_.misses;
      // Allocation and the scan grid take microseconds; cells fill unlocked.
      std::shared_ptr<WaitTable> unfilled(new WaitTable(spec));
      auto scan = std::make_shared<const WaitScan>(upper_quality, deadline, epsilon);
      fill = std::make_shared<ChunkedLoop>(
          [unfilled, scan, fanout](long long begin, long long end, int /*chunk*/) {
            unfilled->FillCells(*scan, fanout, begin, end);
          },
          unfilled->num_cells(), spec.location_points);
      table = unfilled;
      entries_.push_back(std::make_unique<Entry>(Entry{.spec = spec,
                                                       .fanout = fanout,
                                                       .deadline = deadline,
                                                       .epsilon = epsilon,
                                                       .curve_min_x = min_x,
                                                       .curve_max_x = max_x,
                                                       .curve_ys = upper_quality.ys(),
                                                       .table = table,
                                                       .fill = fill}));
      started = entries_.back().get();
    }
  }

  if (started == nullptr) {
    if (fill != nullptr) {  // join the fill in flight
      fill->RunChunks();
      fill->done.wait();
    }
    BumpMetric(fill != nullptr ? "wait_table_store.build_waits" : "wait_table_store.hits");
    return table;
  }
  {
    // The first requester times the whole fill, its own chunks and the wait
    // for everyone else's: one profile record per table.
    CEDAR_PROFILE_SCOPE("wait_table.build");
    fill->RunChunks();
    fill->done.wait();
  }
  {
    MutexLock lock(mutex_);
    started->fill = nullptr;
  }
  BumpMetric("wait_table_store.misses");
  return table;
}

WaitTableStoreStats WaitTableStore::GetStats() const {
  MutexLock lock(mutex_);
  WaitTableStoreStats stats = stats_;
  for (const auto& entry : entries_) {
    stats.clamped_lookups += entry->table->clamped_lookups();
  }
  return stats;
}

size_t WaitTableStore::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace cedar
