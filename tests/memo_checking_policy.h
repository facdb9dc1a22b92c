// Test helper: a policy decorator that checks every initial wait its inner
// policy returns under the context's query memo against a fresh instance
// deciding on a copy of the context with a fresh memo.

#ifndef CEDAR_TESTS_MEMO_CHECKING_POLICY_H_
#define CEDAR_TESTS_MEMO_CHECKING_POLICY_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/core/policy.h"

namespace cedar {

struct MemoCheck {
  const QueryMemo* memo = nullptr;  // ctx.memo of the decision
  int tier = 0;
  double got = 0.0;   // the inner policy's wait, with the query's memo
  double want = 0.0;  // a fresh clone's wait, with a fresh memo
};

class MemoCheckingPolicy final : public WaitPolicy {
 public:
  MemoCheckingPolicy(std::unique_ptr<WaitPolicy> inner,
                     std::shared_ptr<std::vector<MemoCheck>> log)
      : inner_(std::move(inner)), log_(std::move(log)) {}

  std::string name() const override { return inner_->name(); }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<MemoCheckingPolicy>(inner_->Clone(), log_);
  }
  // Clones append to one unsynchronized log, so this decorator serves
  // single-threaded runs only.
  std::unique_ptr<WaitPolicy> ForkForWorker() const override {
    CEDAR_CHECK(false) << "MemoCheckingPolicy is single-threaded";
    return nullptr;
  }
  void BeginQuery(const AggregatorContext& ctx, const QueryTruth* truth) override {
    WaitPolicy::BeginQuery(ctx, truth);
    inner_->BeginQuery(ctx, truth);
    truth_ = truth;
  }

 protected:
  double InitialWait(const AggregatorContext& ctx) override {
    double got = inner_->DecideInitialWait(ctx);
    QueryMemo fresh;
    AggregatorContext bare = ctx;
    bare.memo = &fresh;
    auto twin = inner_->Clone();
    twin->BeginQuery(bare, truth_);
    log_->push_back({ctx.memo, ctx.tier, got, twin->DecideInitialWait(bare)});
    return got;
  }
  double OnArrival(const AggregatorContext& ctx, double arrival_time,
                   const std::vector<double>& arrivals) override {
    return inner_->DecideOnArrival(ctx, arrival_time, arrivals);
  }

 private:
  std::unique_ptr<WaitPolicy> inner_;
  std::shared_ptr<std::vector<MemoCheck>> log_;
  const QueryTruth* truth_ = nullptr;
};

}  // namespace cedar

#endif  // CEDAR_TESTS_MEMO_CHECKING_POLICY_H_
