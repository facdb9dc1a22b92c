// Query-lifecycle tracing: a thread-safe event sink exportable as Chrome
// trace_event JSON (loadable in chrome://tracing or https://ui.perfetto.dev)
// and as CSV.
//
// Model: every query run becomes one *track* (rendered as a thread lane in
// the viewer), keyed by the driver-assigned query sequence id. The engines
// emit one top-level 'X' (complete) span named "query" per (query, policy)
// run plus instant events for the lifecycle: per-tier initial waits, child
// arrivals, wait re-arms, hold/fold sends, and root arrivals / deadline
// misses. Simulated time is exported 1:1 as trace microseconds.
//
// Emission is batched per query (see QueryTraceBuilder) so the collector's
// mutex is taken once per query, not once per event, and a whole query's
// events stay contiguous. Snapshot() canonicalizes order by (track, ts), so
// exported traces do not depend on which worker thread ran which query.

#ifndef CEDAR_SRC_OBS_TRACE_H_
#define CEDAR_SRC_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cedar {

// One key/value annotation on a trace event. Numeric args are exported as
// JSON numbers, everything else as JSON strings.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;

  static TraceArg Num(std::string key, double value);
  static TraceArg Str(std::string key, std::string value);
};

struct TraceEvent {
  std::string name;
  std::string category;
  // Chrome trace-event phase: 'X' = complete span (ts + dur), 'i' = instant.
  char phase = 'i';
  // Event time and span duration in simulated time units.
  double ts = 0.0;
  double dur = 0.0;
  // Track id, rendered as the viewer's thread lane; the engines use the
  // query sequence id.
  uint64_t track = 0;
  std::vector<TraceArg> args;
};

// Thread-safe trace sink. Writers only append; export sorts.
class TraceCollector {
 public:
  TraceCollector() = default;
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  // Appends a whole batch under one lock (the engines emit one per query).
  void EmitBatch(std::vector<TraceEvent> events);

  // All events so far, stably sorted by (track, ts) so intra-query emission
  // order is preserved while cross-query interleaving is canonical.
  std::vector<TraceEvent> Snapshot() const;

  size_t size() const;

  // Chrome trace-event JSON: {"traceEvents": [...], ...}.
  void WriteChromeJson(std::ostream& out) const;
  void WriteChromeJson(const std::string& path) const;

  // CSV with columns: track,ts,dur,phase,category,name,args (args packed as
  // "k=v;k=v" — the simple dialect of src/common/csv.h has no quoting).
  void WriteCsv(const std::string& path) const;

 private:
  mutable Mutex mutex_;
  std::vector<TraceEvent> events_ CEDAR_GUARDED_BY(mutex_);
};

// The one trace sink of the engines and apps: tools and benches install a
// collector here for --trace-out, tests install their own and clear it
// afterwards. Borrowed, never owned; null (the default) disables tracing.
// Relaxed atomic pointer — engines load it once per query.
TraceCollector* ActiveTraceCollector();
void SetActiveTraceCollector(TraceCollector* collector);

// Escapes a string for embedding in a JSON string literal (no quotes added).
std::string JsonEscape(const std::string& text);

}  // namespace cedar

#endif  // CEDAR_SRC_OBS_TRACE_H_
