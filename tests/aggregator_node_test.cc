#include "src/sim/aggregator_node.h"

#include <memory>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/policies.h"

namespace cedar {
namespace {

// A policy whose decisions are scripted: initial wait w0, and on the r-th
// arrival the wait becomes script[r-1] (absolute, query-relative).
// Test-local and stateless across queries.
class ScriptedPolicy final : public WaitPolicy {
 public:
  ScriptedPolicy(double initial, std::vector<double> script)
      : initial_(initial), script_(std::move(script)) {}

  std::string name() const override { return "scripted"; }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<ScriptedPolicy>(*this);
  }

 protected:
  double InitialWait(const AggregatorContext&) override { return initial_; }
  double OnArrival(const AggregatorContext&, double, const std::vector<double>& arrivals) override {
    size_t index = arrivals.size() - 1;
    if (index < script_.size()) {
      return script_[index];
    }
    return current_wait_;
  }

 private:
  double initial_;
  std::vector<double> script_;
};

// Defers every arrival's decision: on the r-th arrival the send time is
// only bounded below by bounds[r-1], and resolves to waits[r-1]. Counts the
// resolves.
class DeferringPolicy final : public WaitPolicy {
 public:
  DeferringPolicy(double initial, std::vector<double> bounds, std::vector<double> waits,
                  int* resolves)
      : initial_(initial), bounds_(std::move(bounds)), waits_(std::move(waits)),
        resolves_(resolves) {}

  std::string name() const override { return "deferring"; }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<DeferringPolicy>(*this);
  }

 protected:
  double InitialWait(const AggregatorContext&) override { return initial_; }
  ArrivalDecision OnArrivalDeferrable(const AggregatorContext&, double,
                                      const std::vector<double>& arrivals) override {
    index_ = arrivals.size() - 1;
    return {bounds_[index_], true, false};
  }
  double Resolve(const AggregatorContext&) override {
    ++*resolves_;
    return waits_[index_];
  }

 private:
  double initial_;
  std::vector<double> bounds_;
  std::vector<double> waits_;
  int* resolves_;
  size_t index_ = 0;
};

struct NodeFixture {
  explicit NodeFixture(int fanout) {
    tree = TreeSpec::TwoLevel(std::make_shared<ExponentialDistribution>(1.0), fanout,
                              std::make_shared<ExponentialDistribution>(1.0), 2);
    ctx.tier = 0;
    ctx.deadline = 100.0;
    ctx.fanout = fanout;
    ctx.offline_tree = &tree;
    ctx.epsilon = 0.25;
  }

  TreeSpec tree;
  AggregatorContext ctx;
};

// Drives |node| as RealtimeAggregator does, without a queue: starts it at
// |start|; before each arrival (time, weight) fires its timer while it is
// due at that time, each firing at timer_at(); after the last arrival fires
// it until the node sends. |on_send| runs once, right after the send. No
// case below ties a timer with an arrival.
void Drive(AggregatorNode& node, double start,
           const std::vector<std::pair<double, double>>& arrivals,
           const std::function<void()>& on_send = [] {}) {
  const auto apply = [&](AggregatorNode::Step step) {
    if (step == AggregatorNode::Step::kSent) {
      on_send();
    }
  };
  apply(node.Start(start));
  for (const auto& [time, weight] : arrivals) {
    while (node.timer_at() <= time) {
      apply(node.OnTimer(node.timer_at()));
    }
    apply(node.OnChildOutput(time, weight));
  }
  while (!node.closed()) {
    apply(node.OnTimer(node.timer_at()));
  }
}

TEST(AggregatorNodeTest, FiresAtInitialWaitWithoutArrivals) {
  NodeFixture fixture(3);
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(10.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  double sent_weight = -1.0;
  Drive(node, 0.0, {}, [&] {
    sent_at = node.send_time();
    sent_weight = node.included_weight();
  });
  EXPECT_DOUBLE_EQ(sent_at, 10.0);
  EXPECT_DOUBLE_EQ(sent_weight, 0.0);
  EXPECT_TRUE(node.closed());
}

TEST(AggregatorNodeTest, SendsEarlyWhenAllChildrenReport) {
  NodeFixture fixture(2);
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(50.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  double sent_weight = -1.0;
  Drive(node, 0.0, {{3.0, 1.0}, {7.0, 1.0}}, [&] {
    sent_at = node.send_time();
    sent_weight = node.included_weight();
  });
  EXPECT_DOUBLE_EQ(sent_at, 7.0) << "all children reported: SetTimer(0)";
  EXPECT_DOUBLE_EQ(sent_weight, 2.0);
}

TEST(AggregatorNodeTest, RearmExtendsAndShortensTimer) {
  NodeFixture fixture(5);
  AggregatorNode node;
  // After the 1st arrival extend to 40; after the 2nd shorten to 12.
  auto policy = std::make_unique<ScriptedPolicy>(20.0, std::vector<double>{40.0, 12.0});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  Drive(node, 0.0, {{5.0, 1.0}, {10.0, 1.0}}, [&] { sent_at = node.send_time(); });
  EXPECT_DOUBLE_EQ(sent_at, 12.0);
}

TEST(AggregatorNodeTest, ShorteningBelowNowFiresImmediately) {
  NodeFixture fixture(5);
  AggregatorNode node;
  // After the arrival at t=8 the policy wants wait=2 (already past).
  auto policy = std::make_unique<ScriptedPolicy>(20.0, std::vector<double>{2.0});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  Drive(node, 0.0, {{8.0, 1.0}}, [&] { sent_at = node.send_time(); });
  EXPECT_DOUBLE_EQ(sent_at, 8.0);
}

TEST(AggregatorNodeTest, LateArrivalsAreDropped) {
  NodeFixture fixture(5);
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(10.0, std::vector<double>{10.0, 10.0});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_weight = -1.0;
  int sends = 0;
  Drive(node, 0.0, {{4.0, 1.0}, {25.0, 1.0}},  // the second after the send
        [&] {
          sent_weight = node.included_weight();
          ++sends;
        });
  EXPECT_EQ(sends, 1);
  EXPECT_DOUBLE_EQ(sent_weight, 1.0);
  EXPECT_DOUBLE_EQ(node.included_weight(), 1.0);
}

TEST(AggregatorNodeTest, OriginShiftsTimerAndRelativeArrivals) {
  NodeFixture fixture(5);
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(10.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx, /*origin=*/100.0);

  double sent_at = -1.0;
  // Start the node at the origin, as the loaded runtime does for a job.
  Drive(node, 100.0, {}, [&] { sent_at = node.send_time(); });
  EXPECT_DOUBLE_EQ(sent_at, 110.0) << "wait 10 is relative to the origin";
}

TEST(AggregatorNodeTest, SendDeliversAccumulatedWeights) {
  NodeFixture fixture(3);
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(30.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 7, std::move(policy), &fixture.ctx);
  EXPECT_EQ(node.index(), 7);

  double sent_weight = -1.0;
  Drive(node, 0.0, {{1.0, 2.5}, {2.0, 0.5}}, [&] {
    sent_weight = node.included_weight();
    EXPECT_EQ(node.arrivals_count(), 2);
  });
  EXPECT_DOUBLE_EQ(sent_weight, 3.0);
  EXPECT_DOUBLE_EQ(node.send_time(), 30.0);
}

// A deferred timer fires at its bound, resolves once and fires again at the
// exact wait, or sends at once when the wait is the bound; a deferred
// decision replaced before its bound is never resolved.
TEST(AggregatorNodeTest, DeferredTimerResolvesOnlyWhenItsBoundIsReached) {
  struct Case {
    std::vector<double> bounds;
    std::vector<double> waits;
    double want_sent_at;
    int want_resolves;
  };
  // Arrivals at 5 and 10 of 5 children.
  for (const Case& c : {Case{{30.0, 40.0}, {35.0, 45.0}, 45.0, 1},
                        Case{{8.0, 40.0}, {35.0, 45.0}, 45.0, 2},   // first bound fires at 8
                        Case{{12.0, 40.0}, {35.0, 40.0}, 40.0, 1},  // the wait is the bound
                        Case{{6.0, 7.0}, {9.0, 50.0}, 9.0, 1}}) {   // sent before arrival 2
    NodeFixture fixture(5);
      AggregatorNode node;
    int resolves = 0;
    auto policy = std::make_unique<DeferringPolicy>(20.0, c.bounds, c.waits, &resolves);
    policy->BeginQuery(fixture.ctx, nullptr);
    node.Init(0, 0, std::move(policy), &fixture.ctx);
    double sent_at = -1.0;
    Drive(node, 0.0, {{5.0, 1.0}, {10.0, 1.0}}, [&] { sent_at = node.send_time(); });
    EXPECT_DOUBLE_EQ(sent_at, c.want_sent_at) << "bounds " << c.bounds[0] << ", " << c.bounds[1];
    EXPECT_EQ(resolves, c.want_resolves) << "bounds " << c.bounds[0] << ", " << c.bounds[1];
  }
}

// Each handler takes the driver's time and reports what it did to the
// node's one timer.
TEST(AggregatorNodeTest, HandlersReportTheirTimerSteps) {
  using Step = AggregatorNode::Step;
  NodeFixture fixture(3);
  {
    AggregatorNode node;
    auto policy = std::make_unique<ScriptedPolicy>(20.0, std::vector<double>{20.0});
    policy->BeginQuery(fixture.ctx, nullptr);
    node.Init(0, 0, std::move(policy), &fixture.ctx);
    EXPECT_EQ(node.Start(0.0), Step::kArmed);
    EXPECT_EQ(node.timer_at(), 20.0);
    EXPECT_EQ(node.OnChildOutput(4.0, 1.0), Step::kKept) << "the same wait keeps the timer";
    EXPECT_EQ(node.OnChildOutput(5.0, 1.0), Step::kKept) << "past the script";
    EXPECT_EQ(node.OnChildOutput(6.0, 1.0), Step::kSent) << "all children reported";
    EXPECT_TRUE(node.closed());
    EXPECT_EQ(node.send_time(), 6.0);
    EXPECT_EQ(node.timer_at(), kSimTimeInfinity);
  }
  AggregatorNode node;
  int resolves = 0;
  auto policy = std::make_unique<DeferringPolicy>(20.0, std::vector<double>{30.0, 8.0},
                                                  std::vector<double>{35.0, 8.0}, &resolves);
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);
  EXPECT_EQ(node.Start(0.0), Step::kArmed);
  EXPECT_EQ(node.OnChildOutput(5.0, 1.0), Step::kArmed);
  EXPECT_EQ(node.timer_at(), 30.0) << "armed at the bound";
  EXPECT_EQ(node.OnTimer(30.0), Step::kMoved);
  EXPECT_EQ(node.timer_at(), 35.0) << "moved to the resolved wait";
  EXPECT_EQ(node.OnChildOutput(31.0, 1.0), Step::kArmed);
  EXPECT_EQ(node.timer_at(), 31.0) << "a bound already past arms at the arrival";
  EXPECT_EQ(node.OnTimer(31.0), Step::kSent) << "the resolved wait is past too";
  EXPECT_EQ(resolves, 2);
  EXPECT_EQ(node.send_time(), 31.0);
  EXPECT_EQ(node.included_weight(), 2.0);
  EXPECT_EQ(node.OnChildOutput(40.0, 1.0), Step::kKept) << "late outputs are dropped";
  EXPECT_EQ(node.included_weight(), 2.0);
}

TEST(AggregatorNodeDeathTest, ResolvingBelowTheBoundDies) {
  NodeFixture fixture(5);
  AggregatorNode node;
  int resolves = 0;
  auto policy = std::make_unique<DeferringPolicy>(20.0, std::vector<double>{30.0},
                                                  std::vector<double>{29.0}, &resolves);
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);
  EXPECT_DEATH(Drive(node, 0.0, {{5.0, 1.0}}), "resolved below its bound");
}

}  // namespace
}  // namespace cedar
