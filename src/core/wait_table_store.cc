#include "src/core/wait_table_store.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace cedar {
namespace {

// Called with no store lock held, so the registry's mutex never nests inside
// the store's.
void BumpMetric(const char* name, long long by = 1) {
  if (by > 0 && MetricsEnabled()) {
    MetricsRegistry::Global().GetCounter(name).Increment(by);
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
  std::shared_future<TablePtr> table;
  std::promise<TablePtr> promise;
  Entry* building = nullptr;
  bool waited = false;
  {
    MutexLock lock(mutex_);
    for (const auto& entry : entries_) {
      // Scalars first: the ys compare runs only for a likely hit.
      if (entry->spec == spec && entry->fanout == fanout && entry->deadline == deadline &&
          entry->epsilon == epsilon && entry->curve_min_x == min_x &&
          entry->curve_max_x == max_x && entry->curve_ys == upper_quality.ys()) {
        table = entry->table;
        waited = !entry->ready;
        ++(waited ? stats_.build_waits : stats_.hits);
        break;
      }
    }
    if (!table.valid()) {
      ++stats_.misses;
      table = promise.get_future().share();
      entries_.push_back(std::make_unique<Entry>(Entry{.spec = spec,
                                                       .fanout = fanout,
                                                       .deadline = deadline,
                                                       .epsilon = epsilon,
                                                       .curve_min_x = min_x,
                                                       .curve_max_x = max_x,
                                                       .curve_ys = upper_quality.ys(),
                                                       .table = table}));
      building = entries_.back().get();
    }
  }

  if (building == nullptr) {
    BumpMetric(waited ? "wait_table_store.build_waits" : "wait_table_store.hits");
    return table.get();
  }

  // Build outside the lock: gets of other keys proceed meanwhile, and gets
  // of this key block on the future (single-flight). The build reads the
  // caller's live curve, so the table is bit-for-bit what a store-less
  // WaitTable build from the same inputs produces.
  auto built = std::make_shared<const WaitTable>(spec, fanout, upper_quality, deadline, epsilon,
                                                 build_pool_.load(std::memory_order_acquire));
  promise.set_value(built);
  long long evicted = 0;
  {
    MutexLock lock(mutex_);
    building->ready = true;
    // In-flight entries are pinned (their waiters hold the future); the one
    // just marked ready guarantees a victim exists.
    while (entries_.size() > kCapacity) {
      auto oldest = std::find_if(entries_.begin(), entries_.end(),
                                 [](const auto& entry) { return entry->ready; });
      stats_.clamped_lookups += (*oldest)->table.get()->clamped_lookups();
      entries_.erase(oldest);
      ++evicted;
    }
    stats_.evictions += evicted;
  }
  BumpMetric("wait_table_store.misses");
  BumpMetric("wait_table_store.evictions", evicted);
  return built;
}

WaitTableStoreStats WaitTableStore::GetStats() const {
  MutexLock lock(mutex_);
  WaitTableStoreStats stats = stats_;
  for (const auto& entry : entries_) {
    if (entry->ready) {
      stats.clamped_lookups += entry->table.get()->clamped_lookups();
    }
  }
  return stats;
}

size_t WaitTableStore::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace cedar
