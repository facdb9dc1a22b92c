#include "src/sim/aggregator_node.h"

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

TEST(AggregatorNodeTest, FiresAtInitialWaitWithoutArrivals) {
  NodeFixture fixture(3);
  EventQueue queue;
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(10.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  double sent_weight = -1.0;
  node.Start(queue, [&](AggregatorNode&, double weight) {
    sent_at = queue.now();
    sent_weight = weight;
  });
  queue.Run();
  EXPECT_DOUBLE_EQ(sent_at, 10.0);
  EXPECT_DOUBLE_EQ(sent_weight, 0.0);
  EXPECT_TRUE(node.closed());
}

TEST(AggregatorNodeTest, SendsEarlyWhenAllChildrenReport) {
  NodeFixture fixture(2);
  EventQueue queue;
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(50.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  double sent_weight = -1.0;
  node.Start(queue, [&](AggregatorNode&, double weight) {
    sent_at = queue.now();
    sent_weight = weight;
  });
  queue.Schedule(3.0, [&] { node.OnChildOutput(1.0); });
  queue.Schedule(7.0, [&] { node.OnChildOutput(1.0); });
  queue.Run();
  EXPECT_DOUBLE_EQ(sent_at, 7.0) << "all children reported: SetTimer(0)";
  EXPECT_DOUBLE_EQ(sent_weight, 2.0);
}

TEST(AggregatorNodeTest, RearmExtendsAndShortensTimer) {
  NodeFixture fixture(5);
  EventQueue queue;
  AggregatorNode node;
  // After the 1st arrival extend to 40; after the 2nd shorten to 12.
  auto policy = std::make_unique<ScriptedPolicy>(20.0, std::vector<double>{40.0, 12.0});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  node.Start(queue, [&](AggregatorNode&, double) { sent_at = queue.now(); });
  queue.Schedule(5.0, [&] { node.OnChildOutput(1.0); });
  queue.Schedule(10.0, [&] { node.OnChildOutput(1.0); });
  queue.Run();
  EXPECT_DOUBLE_EQ(sent_at, 12.0);
}

TEST(AggregatorNodeTest, ShorteningBelowNowFiresImmediately) {
  NodeFixture fixture(5);
  EventQueue queue;
  AggregatorNode node;
  // After the arrival at t=8 the policy wants wait=2 (already past).
  auto policy = std::make_unique<ScriptedPolicy>(20.0, std::vector<double>{2.0});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_at = -1.0;
  node.Start(queue, [&](AggregatorNode&, double) { sent_at = queue.now(); });
  queue.Schedule(8.0, [&] { node.OnChildOutput(1.0); });
  queue.Run();
  EXPECT_DOUBLE_EQ(sent_at, 8.0);
}

TEST(AggregatorNodeTest, LateArrivalsAreDropped) {
  NodeFixture fixture(5);
  EventQueue queue;
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(10.0, std::vector<double>{10.0, 10.0});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx);

  double sent_weight = -1.0;
  int sends = 0;
  node.Start(queue, [&](AggregatorNode&, double weight) {
    sent_weight = weight;
    ++sends;
  });
  queue.Schedule(4.0, [&] { node.OnChildOutput(1.0); });
  queue.Schedule(25.0, [&] { node.OnChildOutput(1.0); });  // after the send
  queue.Run();
  EXPECT_EQ(sends, 1);
  EXPECT_DOUBLE_EQ(sent_weight, 1.0);
  EXPECT_DOUBLE_EQ(node.included_weight(), 1.0);
}

TEST(AggregatorNodeTest, OriginShiftsTimerAndRelativeArrivals) {
  NodeFixture fixture(5);
  EventQueue queue;
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(10.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 0, std::move(policy), &fixture.ctx, /*origin=*/100.0);

  double sent_at = -1.0;
  // Advance the queue to the origin before starting the node, as the loaded
  // runtime does on job arrival.
  queue.Schedule(100.0, [&] {
    node.Start(queue, [&](AggregatorNode&, double) { sent_at = queue.now(); });
  });
  queue.Run();
  EXPECT_DOUBLE_EQ(sent_at, 110.0) << "wait 10 is relative to the origin";
}

TEST(AggregatorNodeTest, SendDeliversAccumulatedWeights) {
  NodeFixture fixture(3);
  EventQueue queue;
  AggregatorNode node;
  auto policy = std::make_unique<ScriptedPolicy>(30.0, std::vector<double>{});
  policy->BeginQuery(fixture.ctx, nullptr);
  node.Init(0, 7, std::move(policy), &fixture.ctx);
  EXPECT_EQ(node.index(), 7);

  double sent_weight = -1.0;
  node.Start(queue, [&](AggregatorNode& self, double weight) {
    sent_weight = weight;
    EXPECT_EQ(self.arrivals_count(), 2);
  });
  queue.Schedule(1.0, [&] { node.OnChildOutput(2.5); });
  queue.Schedule(2.0, [&] { node.OnChildOutput(0.5); });
  queue.Run();
  EXPECT_DOUBLE_EQ(sent_weight, 3.0);
  EXPECT_DOUBLE_EQ(node.send_time(), 30.0);
}

}  // namespace
}  // namespace cedar
