// QueryTraceBuilder: the per-query adapter between the execution engines and
// a TraceCollector. One builder lives on the stack of a RunQuery call (or in
// a loaded-runtime job); the engine and its AggregatorNodes record lifecycle
// events through it, and Finish() emits the assembled batch — the top-level
// "query" span plus every buffered instant event — into the collector under
// a single lock.
//
// All Record* calls take times *relative to the query's start*; |origin| (a
// loaded run's arrival time) shifts them onto the shared timeline at export.
// A builder constructed with a null collector is inert: active() is false
// and the engines skip every Record call, so disabled tracing costs one
// pointer test per event site.

#ifndef CEDAR_SRC_OBS_QUERY_TRACE_H_
#define CEDAR_SRC_OBS_QUERY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace cedar {

class QueryTraceBuilder {
 public:
  // |sequence| keys the trace track; |policy| and |engine| ("sim",
  // "cluster", "loaded") become span args. The collector is borrowed and may
  // be null (inert builder).
  QueryTraceBuilder(TraceCollector* collector, uint64_t sequence, std::string policy,
                    std::string engine, double origin = 0.0);

  bool active() const { return collector_ != nullptr; }
  uint64_t sequence() const { return sequence_; }

  // The *planned* start offset of one aggregator tier (tier 0 starts at 0).
  void RecordTierPlan(int tier, double start_offset);

  // An aggregator's initial wait decision (absolute send time from query
  // start), made before any arrival.
  void RecordInitialWait(int tier, long long index, double wait);

  // One child output arriving at an aggregator. |arrivals| counts arrivals
  // so far including this one.
  void RecordArrival(int tier, long long index, double time, int arrivals);

  // The policy re-armed the aggregator's timer to |new_wait| on an arrival.
  void RecordWaitUpdate(int tier, long long index, double time, double new_wait);

  // The aggregator sent its partial result upstream. A send with
  // arrivals == fanout is a *hold* that paid off (complete aggregation); a
  // timer-driven send with missing children is a *fold* (stragglers
  // abandoned).
  void RecordSend(int tier, long long index, double time, int arrivals, int fanout,
                  double weight);

  // A top-tier result reaching the root; !in_time is a deadline miss.
  void RecordRootArrival(double time, bool in_time);

  // Emits the query span [0, end_time] with the hold/fold outcome, the final
  // inclusion fraction, and |extra_args| (engine-specific diagnostics), then
  // flushes the batch. Call at most once; Record* calls after Finish are
  // invalid.
  void Finish(double end_time, double inclusion_fraction,
              std::vector<TraceArg> extra_args = {});

  // Number of events recorded so far (Finish's span aside).
  size_t records() const { return events_.size(); }

  // Puts the recorded events in |order|: the new i-th is the old
  // |order|[i]-th, and |order| must be a permutation of [0, records()).
  // For an engine that runs events out of their queued order: the export's
  // stable sort keeps equal-time events in recording order.
  void PermuteRecords(const std::vector<size_t>& order);

  int holds() const { return holds_; }
  int folds() const { return folds_; }
  int deadline_misses() const { return deadline_misses_; }

 private:
  void Push(TraceEvent event);

  TraceCollector* collector_;
  uint64_t sequence_;
  std::string policy_;
  std::string engine_;
  double origin_;
  int holds_ = 0;
  int folds_ = 0;
  int deadline_misses_ = 0;
  std::vector<TraceEvent> events_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_OBS_QUERY_TRACE_H_
