#include "src/obs/query_trace.h"

#include <utility>

#include "src/common/logging.h"

namespace cedar {
namespace {

constexpr char kCatLifecycle[] = "lifecycle";
constexpr char kCatDecision[] = "decision";

}  // namespace

QueryTraceBuilder::QueryTraceBuilder(TraceCollector* collector, uint64_t sequence,
                                     std::string policy, std::string engine, double origin)
    : collector_(collector),
      sequence_(sequence),
      policy_(std::move(policy)),
      engine_(std::move(engine)),
      origin_(origin) {
  if (collector_ != nullptr) {
    // A query's batch is usually a few dozen events; reserve a plausible
    // floor so the common case never reallocates more than once.
    events_.reserve(32);
  }
}

void QueryTraceBuilder::Push(TraceEvent event) {
  event.ts += origin_;
  event.track = sequence_;
  events_.push_back(std::move(event));
}

void QueryTraceBuilder::RecordTierPlan(int tier, double start_offset) {
  TraceEvent event;
  event.name = "tier_plan";
  event.category = kCatLifecycle;
  event.ts = start_offset;
  event.args = {TraceArg::Num("tier", tier), TraceArg::Num("start_offset", start_offset)};
  Push(std::move(event));
}

void QueryTraceBuilder::RecordInitialWait(int tier, long long index, double wait) {
  TraceEvent event;
  event.name = "initial_wait";
  event.category = kCatDecision;
  event.ts = 0.0;
  event.args = {TraceArg::Num("tier", tier),
                TraceArg::Num("aggregator", static_cast<double>(index)),
                TraceArg::Num("wait", wait)};
  Push(std::move(event));
}

void QueryTraceBuilder::RecordArrival(int tier, long long index, double time, int arrivals) {
  TraceEvent event;
  event.name = "arrival";
  event.category = kCatLifecycle;
  event.ts = time;
  event.args = {TraceArg::Num("tier", tier),
                TraceArg::Num("aggregator", static_cast<double>(index)),
                TraceArg::Num("arrivals", arrivals)};
  Push(std::move(event));
}

void QueryTraceBuilder::RecordWaitUpdate(int tier, long long index, double time,
                                         double new_wait) {
  TraceEvent event;
  event.name = "wait_update";
  event.category = kCatDecision;
  event.ts = time;
  event.args = {TraceArg::Num("tier", tier),
                TraceArg::Num("aggregator", static_cast<double>(index)),
                TraceArg::Num("new_wait", new_wait)};
  Push(std::move(event));
}

void QueryTraceBuilder::RecordSend(int tier, long long index, double time, int arrivals,
                                   int fanout, double weight) {
  const bool complete = arrivals >= fanout;
  if (complete) {
    ++holds_;
  } else {
    ++folds_;
  }
  TraceEvent event;
  event.name = complete ? "hold_send" : "fold_send";
  event.category = kCatDecision;
  event.ts = time;
  event.args = {TraceArg::Num("tier", tier),
                TraceArg::Num("aggregator", static_cast<double>(index)),
                TraceArg::Num("arrivals", arrivals), TraceArg::Num("fanout", fanout),
                TraceArg::Num("weight", weight)};
  Push(std::move(event));
}

void QueryTraceBuilder::RecordRootArrival(double time, bool in_time) {
  if (!in_time) {
    ++deadline_misses_;
  }
  TraceEvent event;
  event.name = in_time ? "root_arrival" : "deadline_miss";
  event.category = kCatLifecycle;
  event.ts = time;
  event.args = {TraceArg::Num("in_time", in_time ? 1 : 0)};
  Push(std::move(event));
}

void QueryTraceBuilder::PermuteRecords(const std::vector<size_t>& order) {
  CEDAR_CHECK_EQ(order.size(), events_.size());
  std::vector<bool> seen(order.size(), false);
  std::vector<TraceEvent> permuted;
  permuted.reserve(order.size());
  for (size_t from : order) {
    CEDAR_CHECK(from < events_.size() && !seen[from]) << "not a permutation at " << from;
    seen[from] = true;
    permuted.push_back(std::move(events_[from]));
  }
  events_ = std::move(permuted);
}

void QueryTraceBuilder::Finish(double end_time, double inclusion_fraction,
                               std::vector<TraceArg> extra_args) {
  if (collector_ == nullptr) {
    return;
  }
  TraceEvent span;
  span.name = "query";
  span.category = "query";
  span.phase = 'X';
  span.ts = origin_;
  span.dur = end_time;
  span.track = sequence_;
  span.args = {TraceArg::Str("policy", policy_),
               TraceArg::Str("engine", engine_),
               TraceArg::Num("sequence", static_cast<double>(sequence_)),
               TraceArg::Num("inclusion_fraction", inclusion_fraction),
               // Query-level verdict: pure hold if no aggregator folded.
               TraceArg::Str("outcome", folds_ == 0 ? "hold" : "fold"),
               TraceArg::Num("holds", holds_), TraceArg::Num("folds", folds_),
               TraceArg::Num("deadline_misses", deadline_misses_)};
  for (TraceArg& arg : extra_args) {
    span.args.push_back(std::move(arg));
  }
  // The span leads the batch so a track's first event names the query.
  std::vector<TraceEvent> batch;
  batch.reserve(events_.size() + 1);
  batch.push_back(std::move(span));
  for (TraceEvent& event : events_) {
    batch.push_back(std::move(event));
  }
  events_.clear();
  collector_->EmitBatch(std::move(batch));
}

}  // namespace cedar
