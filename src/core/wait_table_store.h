// Process-wide precompute service for wait tables (§4.3.3 fast path).
//
// Without sharing, a sweep with N worker forks would rebuild the same
// (curve, deadline) table up to N times. The WaitTableStore amortizes that
// work across every worker in the process, and is CedarPolicy's only
// wait-table path:
//
//  * Keys are **content fingerprints** of everything a build consumes — the
//    upper-quality curve's ys and extent, the remaining deadline, the fanout,
//    epsilon, and the WaitTableSpec. Never addresses: per-query curve stacks
//    are freed between queries, so a recycled allocation could alias a stale
//    table.
//  * Lookups hash the fingerprint to one of a fixed set of shards, each under
//    its own mutex, so concurrent hits from sweep workers rarely contend.
//  * Construction is **single-flight**: when K workers miss on the same key,
//    exactly one builds while the rest block on that entry's shared_future.
//    The builder may parallelize the grid fill over a lent ThreadPool (see
//    WaitTable's build_pool parameter) — bit-identical to a serial build.
//  * Capacity is LRU-bounded per shard; evicting a table retires its
//    clamped-lookup count into the store's stats so the mis-sized-grid signal
//    survives eviction.
//
// Stats are also exported through the obs MetricsRegistry (when enabled) as
// wait_table_store.{hits,misses,build_waits,evictions}.
//
// Determinism: a returned table depends only on its key (WaitTable's build is
// thread-count-invariant), so experiment results are byte-identical with the
// store enabled or disabled, for any worker count. See DESIGN.md §11.

#ifndef CEDAR_SRC_CORE_WAIT_TABLE_STORE_H_
#define CEDAR_SRC_CORE_WAIT_TABLE_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "src/common/math_util.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/wait_table.h"

namespace cedar {

class ThreadPool;

// The full content a wait-table build depends on. Equality is deep (curve ys
// included); Fingerprint() mixes every field, so equal keys always collide
// and unequal keys collide only by hash accident — which the store resolves
// with a chained content compare.
struct WaitTableKey {
  WaitTableSpec spec;
  int fanout = 0;
  double deadline = 0.0;  // remaining deadline the table was built for
  double epsilon = 0.0;
  double curve_min_x = 0.0;
  double curve_max_x = 0.0;
  std::vector<double> curve_ys;

  static WaitTableKey Of(const WaitTableSpec& spec, int fanout,
                         const PiecewiseLinear& upper_quality, double deadline,
                         double epsilon);

  bool operator==(const WaitTableKey& other) const;

  // 64-bit content hash (splitmix64-style mixing over the raw double bits).
  // Not an identity: the store compares full keys on fingerprint collisions.
  uint64_t Fingerprint() const;
};

// True iff |key| was built from exactly these inputs. Equivalent to
// key == WaitTableKey::Of(...) but without copying the curve's ys.
bool MatchesKey(const WaitTableKey& key, const WaitTableSpec& spec, int fanout,
                const PiecewiseLinear& upper_quality, double deadline, double epsilon);

struct WaitTableStoreOptions {
  // Total table capacity across shards; each shard holds ~capacity/num_shards
  // entries (at least one). A fig08-style sweep needs one table per distinct
  // (deadline, curve), so the default comfortably covers whole sweeps.
  size_t capacity = 128;
  int num_shards = 8;
  // Borrowed pool for parallel grid fills (may be null: builds are serial).
  // Also settable later via SetBuildPool.
  ThreadPool* build_pool = nullptr;
  // ANDed onto every fingerprint before use. All-ones in production; tests
  // set 0 to force every key into one chain and exercise collision handling.
  uint64_t fingerprint_mask = ~0ull;
};

// Point-in-time counters (monotone since construction or Clear()).
struct WaitTableStoreStats {
  long long hits = 0;         // lookup found a ready table
  long long misses = 0;       // lookup built the table itself
  long long build_waits = 0;  // lookup blocked on another thread's build
  long long evictions = 0;    // tables dropped by the LRU bound
  // Clamped Lookup calls summed over evicted tables plus tables still
  // resident — the store-wide mis-sized-grid signal.
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

  explicit WaitTableStore(WaitTableStoreOptions options = {});

  WaitTableStore(const WaitTableStore&) = delete;
  WaitTableStore& operator=(const WaitTableStore&) = delete;

  // The process-wide store CedarPolicy resolves to by default.
  static WaitTableStore& Global();

  // Returns the table for |key|, building it (single-flight) on a miss.
  // |upper_quality| must be the curve |key| was fingerprinted from (or one
  // equal in content): a miss builds from this live curve, never from a
  // reconstruction, so the table is bit-identical to a direct WaitTable
  // build. Blocks until the table is ready; never returns null.
  TablePtr GetOrBuild(const WaitTableKey& key, const PiecewiseLinear& upper_quality);

  // Convenience: key construction + lookup.
  TablePtr GetOrBuild(const WaitTableSpec& spec, int fanout,
                      const PiecewiseLinear& upper_quality, double deadline,
                      double epsilon);

  // Lends (or revokes, with null) a pool for parallel builds. Safe to call
  // concurrently with lookups; in-flight builds keep the pool they started
  // with. The caller must revoke before destroying the pool.
  void SetBuildPool(ThreadPool* pool) { build_pool_.store(pool, std::memory_order_release); }

  WaitTableStoreStats GetStats() const;

  // Resident tables (ready or building).
  size_t size() const;

  // Drops every entry and zeroes the stats. Callers must ensure no lookup is
  // concurrently in flight (tests, bench runs between configurations).
  void Clear();

 private:
  struct Entry {
    WaitTableKey key;
    uint64_t fingerprint = 0;
    std::shared_future<TablePtr> future;
    uint64_t lru_tick = 0;
    bool ready = false;  // future holds a value; safe to evict
  };

  struct alignas(64) Shard {
    mutable Mutex mutex;
    // Chained (linear scan) entry list and stats, all guarded by |mutex|.
    std::vector<std::shared_ptr<Entry>> entries CEDAR_GUARDED_BY(mutex);
    uint64_t tick CEDAR_GUARDED_BY(mutex) = 0;
    long long hits CEDAR_GUARDED_BY(mutex) = 0;
    long long misses CEDAR_GUARDED_BY(mutex) = 0;
    long long build_waits CEDAR_GUARDED_BY(mutex) = 0;
    long long evictions CEDAR_GUARDED_BY(mutex) = 0;
    // clamped_lookups of evicted tables.
    long long retired_clamped CEDAR_GUARDED_BY(mutex) = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    return shards_[fingerprint % shards_.size()];
  }
  // Evicts least-recently-used *ready* entries until the shard is under its
  // per-shard cap.
  void EnforceCapacity(Shard& shard) CEDAR_REQUIRES(shard.mutex);

  WaitTableStoreOptions options_;
  size_t per_shard_capacity_;
  std::atomic<ThreadPool*> build_pool_;
  std::vector<Shard> shards_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_CORE_WAIT_TABLE_STORE_H_
