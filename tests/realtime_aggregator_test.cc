#include "src/rt/realtime_aggregator.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include <gtest/gtest.h>

#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/obs/metrics.h"

namespace cedar {
namespace {

// Wall-clock tests: durations are tens of milliseconds with generous
// tolerances, so they are robust to scheduler jitter while still proving
// the timer/arrival interleaving works.

constexpr double kMs = 1e-3;

// Four children under a 1 s deadline. By default both stages are
// log-normal(-3.5, 0.6), about 30 ms each.
struct RtFixture {
  explicit RtFixture(std::shared_ptr<const Distribution> bottom =
                         std::make_shared<LogNormalDistribution>(-3.5, 0.6),
                     std::shared_ptr<const Distribution> upper_stage =
                         std::make_shared<LogNormalDistribution>(-3.5, 0.6))
      : tree(TreeSpec::TwoLevel(std::move(bottom), 4, std::move(upper_stage), 2)),
        upper(TabulateCdf(*tree.stage(1).duration, 1.0, 201)) {
    ctx.tier = 0;
    ctx.deadline = 1.0;  // seconds
    ctx.fanout = 4;
    ctx.offline_tree = &tree;
    ctx.upper_quality = &upper;
    ctx.epsilon = 0.0025;
  }

  TreeSpec tree;
  PiecewiseLinear upper;
  AggregatorContext ctx;
};

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double>(ms * kMs));
}

TEST(RealtimeAggregatorTest, FiresAtFixedWait) {
  RtFixture fixture;
  std::atomic<bool> fired{false};
  RealtimeAggregator<int>::Result result;
  RealtimeAggregator<int> aggregator(
      std::make_unique<FixedWaitPolicy>(0.05), fixture.ctx, [&](auto r) {
        result = std::move(r);
        fired = true;
      });
  aggregator.Start();
  aggregator.Offer(1);
  aggregator.Join();
  EXPECT_TRUE(fired);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_FALSE(result.sent_early);
  EXPECT_GE(result.send_time, 0.045);
  EXPECT_LT(result.send_time, 0.5);  // generous upper bound vs 50ms target
}

TEST(RealtimeAggregatorTest, SendsEarlyWhenAllArrive) {
  RtFixture fixture;
  RealtimeAggregator<int>::Result result;
  RealtimeAggregator<int> aggregator(std::make_unique<FixedWaitPolicy>(10.0), fixture.ctx,
                                     [&](auto r) { result = std::move(r); });
  aggregator.Start();
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(aggregator.Offer(i));
  }
  aggregator.Join();
  EXPECT_TRUE(result.sent_early);
  EXPECT_EQ(result.outputs.size(), 4u);
  EXPECT_LT(result.send_time, 1.0) << "must not wait out the 10s timer";
}

TEST(RealtimeAggregatorTest, LateOffersRejected) {
  RtFixture fixture;
  RealtimeAggregator<int> aggregator(std::make_unique<FixedWaitPolicy>(0.02), fixture.ctx,
                                     [](auto) {});
  aggregator.Start();
  aggregator.Join();
  EXPECT_TRUE(aggregator.sent());
  EXPECT_FALSE(aggregator.Offer(99)) << "offers after the send are dropped";
}

TEST(RealtimeAggregatorTest, FlushSendsImmediately) {
  RtFixture fixture;
  RealtimeAggregator<int>::Result result;
  RealtimeAggregator<int> aggregator(std::make_unique<FixedWaitPolicy>(10.0), fixture.ctx,
                                     [&](auto r) { result = std::move(r); });
  aggregator.Start();
  aggregator.Offer(7);
  aggregator.Flush();
  aggregator.Join();
  EXPECT_EQ(result.outputs.size(), 1u);
  EXPECT_LT(result.send_time, 1.0);
}

TEST(RealtimeAggregatorTest, ConcurrentOffersAllCounted) {
  RtFixture fixture;
  fixture.ctx.fanout = 16;
  RealtimeAggregator<int>::Result result;
  RealtimeAggregator<int> aggregator(std::make_unique<FixedWaitPolicy>(5.0), fixture.ctx,
                                     [&](auto r) { result = std::move(r); });
  aggregator.Start();
  std::vector<std::thread> workers;
  for (int i = 0; i < 16; ++i) {
    workers.emplace_back([&aggregator, i] {
      SleepMs(1.0 + (i % 5));
      aggregator.Offer(i);
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  aggregator.Join();
  EXPECT_TRUE(result.sent_early);
  EXPECT_EQ(result.outputs.size(), 16u);
  // Arrival times must be recorded in nondecreasing order.
  for (size_t i = 1; i < result.arrival_times.size(); ++i) {
    EXPECT_GE(result.arrival_times[i], result.arrival_times[i - 1]);
  }
}

TEST(RealtimeAggregatorTest, CedarPolicyDrivesRealClockWaits) {
  // End to end with the real policy: 4 workers, lognormal(-3.5, 0.6) ~ 30ms
  // durations, deadline 1s. Cedar should collect all four comfortably.
  RtFixture fixture;
  RealtimeAggregator<int>::Result result;
  RealtimeAggregator<int> aggregator(std::make_unique<CedarPolicy>(), fixture.ctx,
                                     [&](auto r) { result = std::move(r); });
  aggregator.Start();
  std::vector<std::thread> workers;
  Rng rng(3);
  LogNormalDistribution duration(-3.5, 0.6);
  for (int i = 0; i < 4; ++i) {
    double sleep_s = duration.Sample(rng);
    workers.emplace_back([&aggregator, i, sleep_s] {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      aggregator.Offer(i);
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  aggregator.Join();
  EXPECT_EQ(result.outputs.size(), 4u);
  EXPECT_LT(result.send_time, 1.0);
}

TEST(RealtimeAggregatorTest, CedarDefersOnTheWallClockAndSendsOnce) {
  // Three of the fixture's four children report, a few milliseconds apart,
  // so the node decides on arrivals and its timer sends. Cedar's arrival
  // searches stop at a bound there, as they do in the simulators.
  //
  // Every assertion below needs the wall clock to run on schedule: the
  // offers must land before the initial timer and before the second
  // decision's bound, and the send must fire before 1 s. A bottom stage of
  // log-normal(-3.5, 0.3) and an upper one of log-normal(ln 0.2, 0.2) put
  // the initial timer at the 1 s deadline, the second decision's bound at
  // ~0.50 s and the send at ~0.74 s (arrivals 5 to 20 ms apart), so a host
  // stall has ~0.98 s before the offers, ~0.49 s among them and ~0.26 s
  // after them. The default stages would send at 0.92 s, 80 ms short of
  // the bound.
  RtFixture fixture(std::make_shared<LogNormalDistribution>(-3.5, 0.3),
                    std::make_shared<LogNormalDistribution>(std::log(0.2), 0.2));
  MetricsRegistry& registry = MetricsRegistry::Global();
  const bool metrics_were_enabled = MetricsEnabled();
  SetMetricsEnabled(true);
  const long long deferred_before = registry.GetCounter("policy.decisions_deferred").Value();
  const long long resolved_before = registry.GetCounter("policy.decisions_resolved").Value();
  const long long bounds_before = registry.GetCounter("wait_optimizer.bound_calls").Value();
  std::atomic<int> sends{0};
  RealtimeAggregator<int>::Result result;
  RealtimeAggregator<int> aggregator(std::make_unique<CedarPolicy>(), fixture.ctx, [&](auto r) {
    result = std::move(r);
    ++sends;
  });
  aggregator.Start();
  for (int i = 0; i < 3; ++i) {
    SleepMs(5.0);
    aggregator.Offer(i);
  }
  aggregator.Join();
  SetMetricsEnabled(metrics_were_enabled);
  const long long deferred = registry.GetCounter("policy.decisions_deferred").Value();
  EXPECT_GT(deferred, deferred_before);
  // The third child's decision replaced the second's before its timer
  // fired, so not every deferred decision was resolved: none is at once.
  EXPECT_LT(registry.GetCounter("policy.decisions_resolved").Value() - resolved_before,
            deferred - deferred_before);
  EXPECT_GT(registry.GetCounter("wait_optimizer.bound_calls").Value(), bounds_before);
  EXPECT_FALSE(aggregator.Offer(3)) << "the send is final";
  EXPECT_EQ(sends.load(), 1);
  EXPECT_FALSE(result.sent_early);
  EXPECT_EQ(result.outputs.size(), 3u);
  ASSERT_EQ(result.arrival_times.size(), 3u);
  EXPECT_GE(result.send_time, result.arrival_times.back());
  EXPECT_LT(result.send_time, 1.0);
}

TEST(RealtimeAggregatorDeathTest, OfferBeforeStartDies) {
  RtFixture fixture;
  RealtimeAggregator<int> aggregator(std::make_unique<FixedWaitPolicy>(0.01), fixture.ctx,
                                     [](auto) {});
  EXPECT_DEATH(aggregator.Offer(1), "before Start");
  aggregator.Start();
  aggregator.Join();
}

}  // namespace
}  // namespace cedar
