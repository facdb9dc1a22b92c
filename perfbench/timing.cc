#include "perfbench/timing.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/profiler.h"

namespace cedar {

int SpanLog::Open(std::string name, long long query) {
  Span span;
  span.name = std::move(name);
  span.query = query;
  span.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  open_.push_back(id);
  span.start_ns = SteadyNowNs();
  spans_.push_back(std::move(span));
  return id;
}

void SpanLog::Close(int id) {
  const int64_t now = SteadyNowNs();
  CEDAR_CHECK(!open_.empty() && open_.back() == id) << "span " << id << " closed out of order";
  open_.pop_back();
  spans_[static_cast<size_t>(id)].end_ns = now;
}

SpanLog* SpanLogSet::NewLog() {
  MutexLock lock(mutex_);
  logs_.push_back(std::make_unique<SpanLog>());
  return logs_.back().get();
}

TimedPolicy::TimedPolicy(std::unique_ptr<WaitPolicy> inner, SpanLog* log, SpanLogSet* forks)
    : inner_(std::move(inner)), log_(log), forks_(forks) {
  CEDAR_CHECK(inner_ != nullptr);
  CEDAR_CHECK(log_ != nullptr);
  span_name_ = "policy." + inner_->name();
}

std::unique_ptr<WaitPolicy> TimedPolicy::Clone() const {
  return std::make_unique<TimedPolicy>(inner_->Clone(), log_, forks_);
}

std::unique_ptr<WaitPolicy> TimedPolicy::ForkForWorker() const {
  SpanLog* log = forks_ != nullptr ? forks_->NewLog() : log_;
  return std::make_unique<TimedPolicy>(inner_->ForkForWorker(), log, forks_);
}

void TimedPolicy::BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) {
  WaitPolicy::BeginQuery(ctx, truth);
  inner_->BeginQuery(ctx, truth);
}

double TimedPolicy::InitialWait(const AggregatorContext& ctx) {
  const int span = log_->Open(span_name_);
  const double wait = inner_->DecideInitialWait(ctx);
  log_->Close(span);
  return wait;
}

double TimedPolicy::OnArrival(const AggregatorContext& ctx, double arrival_time,
                              const std::vector<double>& arrivals) {
  const int span = log_->Open(span_name_);
  const double wait = inner_->DecideOnArrival(ctx, arrival_time, arrivals);
  log_->Close(span);
  return wait;
}

TimedWorkload::TimedWorkload(const Workload& inner, SpanLog* log) : inner_(inner), log_(log) {
  CEDAR_CHECK(log_ != nullptr);
}

QueryTruth TimedWorkload::DrawQuery(Rng& rng) const {
  const int span = log_->Open("workload.draw");
  return Keep(inner_.DrawQuery(rng), span);
}

QueryTruth TimedWorkload::DrawQueryAt(uint64_t index, Rng& rng) const {
  const int span = log_->Open("workload.draw", static_cast<long long>(index));
  return Keep(inner_.DrawQueryAt(index, rng), span);
}

QueryTruth TimedWorkload::Keep(QueryTruth truth, int span) const {
  log_->Close(span);
  drawn_.push_back(truth);
  return truth;
}

std::vector<QueryTruth> TimedWorkload::TakeDrawn() { return std::exchange(drawn_, {}); }

}  // namespace cedar
