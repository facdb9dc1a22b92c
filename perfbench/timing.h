// Timing decorators and an in-memory span log for the benchmark's traced
// run.
//
// Spans are recorded by the benchmark around its calls into the engines'
// public API; the engines themselves are not instrumented. A span's parent
// is the innermost span still open on the same log when it starts, so a
// decision timed by TimedPolicy during a replay nests under that replay and
// engine self time is the replay's duration minus its children's.
//
// The decorators change no result: they forward every call to the wrapped
// object and only read the clock around it.

#ifndef CEDAR_PERFBENCH_TIMING_H_
#define CEDAR_PERFBENCH_TIMING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"
#include "src/core/policy.h"
#include "src/core/tree.h"
#include "src/sim/workload.h"
#include "src/stats/rng.h"

namespace cedar {

struct Span {
  std::string name;
  long long query = -1;  // query index within the replayed batch; -1 if none
  int parent = -1;       // index of the enclosing span in the same log; -1 if root
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t DurationNs() const { return end_ns - start_ns; }
};

// The spans of one thread, in start order. Not thread-safe: concurrent
// writers each take their own log from a SpanLogSet.
class SpanLog {
 public:
  // Starts a span nested under the innermost open one; returns its id.
  int Open(std::string name, long long query = -1);
  // Ends span |id|, which must be the innermost open span.
  void Close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Owns one SpanLog per policy fork, so that forks running on different
// worker threads never share a log.
class SpanLogSet {
 public:
  SpanLog* NewLog();

 private:
  Mutex mutex_;
  std::vector<std::unique_ptr<SpanLog>> logs_ CEDAR_GUARDED_BY(mutex_);
};

// Records one "policy.<name>" span around every decision of |inner|.
//
// Delegation follows TracingPolicy: Clone() wraps inner->Clone() and logs to
// the same log (all aggregators of one query run on one thread), while
// ForkForWorker() wraps inner->ForkForWorker() and, when |forks| is set,
// takes a fresh log from it for the new worker. With |forks| null every fork
// keeps |log|, which is only safe when the forks run serially.
class TimedPolicy final : public WaitPolicy {
 public:
  TimedPolicy(std::unique_ptr<WaitPolicy> inner, SpanLog* log, SpanLogSet* forks);

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<WaitPolicy> Clone() const override;
  std::unique_ptr<WaitPolicy> ForkForWorker() const override;
  void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) override;

 protected:
  double InitialWait(const AggregatorContext& ctx) override;
  double OnArrival(const AggregatorContext& ctx, double arrival_time,
                   const std::vector<double>& arrivals) override;

 private:
  std::unique_ptr<WaitPolicy> inner_;
  SpanLog* log_;
  SpanLogSet* forks_;
  std::string span_name_;
};

// Records one "workload.draw" span around every draw of |inner| and keeps
// the drawn truths, so per-query costs can be re-measured after an engine
// that draws internally (RunLoadedCluster) has finished. DrawQueryAt
// forwards to inner->DrawQueryAt, keeping index-addressed replay intact.
//
// Draws write to |log| from a const method: use it from one thread only.
class TimedWorkload final : public Workload {
 public:
  TimedWorkload(const Workload& inner, SpanLog* log);

  std::string name() const override { return inner_.name(); }
  std::string time_unit() const override { return inner_.time_unit(); }
  TreeSpec OfflineTree() const override { return inner_.OfflineTree(); }
  QueryTruth DrawQuery(Rng& rng) const override;
  QueryTruth DrawQueryAt(uint64_t index, Rng& rng) const override;

  // Returns the truths drawn since the last call, in draw order.
  std::vector<QueryTruth> TakeDrawn();

 private:
  QueryTruth Keep(QueryTruth truth, int span) const;

  const Workload& inner_;
  SpanLog* log_;
  mutable std::vector<QueryTruth> drawn_;
};

}  // namespace cedar

#endif  // CEDAR_PERFBENCH_TIMING_H_
