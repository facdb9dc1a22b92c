// The fixed-time runner's equal-time order (DESIGN.md §4, "Aggregator
// loop"): hand-built realizations full of ties, each run through
// QueryTree::RunFixedTimeLeaves, must give the values pinned below. The
// pins were produced by queued runs of these exact scenarios, every leaf
// and timer on one heap popped in (time, seq) order, seq counting the
// schedules: first by the queued fixed-time runner the
// queue-free one replaced, then (the accepted leaves) by the queued tree
// driver the cluster engines used until they too ran the queue-free one.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/policies.h"
#include "src/obs/trace.h"
#include "src/sim/query_tree.h"
#include "src/sim/realization.h"

namespace cedar {
namespace {

// Scripted decisions: the initial wait, then on the r-th arrival the send
// time waits[r-1], deferred at bounds[r-1] when that is lower; arrivals
// past the script keep the decision. Every aggregator of a tree runs a
// clone, so nodes differ only through their arrivals.
class ScriptedPolicy final : public WaitPolicy {
 public:
  ScriptedPolicy(double initial, std::vector<double> bounds, std::vector<double> waits)
      : initial_(initial), bounds_(std::move(bounds)), waits_(std::move(waits)) {}

  std::string name() const override { return "scripted"; }
  std::unique_ptr<WaitPolicy> Clone() const override {
    return std::make_unique<ScriptedPolicy>(*this);
  }

 protected:
  double InitialWait(const AggregatorContext&) override { return initial_; }
  ArrivalDecision OnArrivalDeferrable(const AggregatorContext&, double,
                                      const std::vector<double>& arrivals) override {
    const size_t r = arrivals.size() - 1;
    if (r >= waits_.size()) {
      return {current_wait_, deferred_, true};
    }
    index_ = r;
    return {bounds_[r], bounds_[r] < waits_[r], false};
  }
  double Resolve(const AggregatorContext&) override { return waits_[index_]; }

 private:
  double initial_;
  std::vector<double> bounds_;
  std::vector<double> waits_;
  size_t index_ = 0;
};

// Every stage is exponential with mean 1, so proportional-split waits a
// tier-t aggregator until D * (t + 1) / stages.
TreeSpec Tree(const std::vector<int>& fanouts) {
  std::vector<StageSpec> stages;
  for (int fanout : fanouts) {
    stages.emplace_back(std::make_shared<ExponentialDistribution>(1.0), fanout);
  }
  return TreeSpec(std::move(stages));
}

QueryRealization Realization(const TreeSpec& tree, std::vector<std::vector<double>> durations,
                             std::vector<double> weights = {}) {
  QueryRealization realization;
  for (int i = 0; i < tree.num_stages(); ++i) {
    realization.truth.stage_durations.push_back(tree.stage(i).duration);
  }
  realization.truth.sequence = 7;
  realization.stage_durations = std::move(durations);
  realization.leaf_weights = std::move(weights);
  return realization;
}

struct Outcome {
  std::vector<long long> root_senders;
  uint64_t included_weight_bits = 0;
  uint64_t mean_tier0_send_time_bits = 0;
  long long events = 0;
  // The leaves the run took, by aggregator, each in its arrival order: the
  // order an app's payloads see.
  std::vector<long long> accepted;
  uint64_t trace_digest = 0;        // FNV-1a of the Chrome JSON
};

uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  return hash;
}

// Runs |realization| under |policy| with a fresh trace collector.
Outcome Run(const TreeSpec& tree, double deadline, const WaitPolicy& policy,
            const QueryRealization& realization) {
  TraceCollector collector;
  SetActiveTraceCollector(&collector);
  const QueryTreeModel model(tree, deadline, QueryTreeOptions{});
  Outcome outcome;
  {
    QueryTree query(model, policy, realization, "sim");
    const FixedTimeRun fixed = query.RunFixedTimeLeaves(
        realization.stage_durations[0], [&](long long leaf) { outcome.accepted.push_back(leaf); });
    query.trace()->Finish(fixed.end_time, fixed.result.quality);
    outcome.root_senders = query.root_senders();
    outcome.included_weight_bits = std::bit_cast<uint64_t>(fixed.result.included_weight);
    outcome.mean_tier0_send_time_bits =
        std::bit_cast<uint64_t>(fixed.result.mean_tier0_send_time);
    outcome.events = fixed.result.events;
  }
  SetActiveTraceCollector(nullptr);
  std::stable_sort(outcome.accepted.begin(), outcome.accepted.end(),
                   [fanout = tree.stage(0).fanout](long long a, long long b) {
                     return a / fanout < b / fanout;
                   });
  std::ostringstream json;
  collector.WriteChromeJson(json);
  outcome.trace_digest = Fnv1a(json.str());
  return outcome;
}

void ExpectOrder(const char* scenario, const TreeSpec& tree, double deadline,
                 const WaitPolicy& policy, const QueryRealization& realization,
                 const Outcome& pinned) {
  SCOPED_TRACE(scenario);
  const Outcome outcome = Run(tree, deadline, policy, realization);
  EXPECT_EQ(outcome.root_senders, pinned.root_senders);
  EXPECT_EQ(outcome.included_weight_bits, pinned.included_weight_bits);
  EXPECT_EQ(outcome.mean_tier0_send_time_bits, pinned.mean_tier0_send_time_bits);
  EXPECT_EQ(outcome.events, pinned.events);
  EXPECT_EQ(outcome.accepted, pinned.accepted);
  EXPECT_EQ(outcome.trace_digest, pinned.trace_digest);
}

TEST(FixedTimeOrderTest, TiedLeavesAndTierZeroSendsTiedAtTheInitialWait) {
  // 4 x 3 leaves, D = 40: proportional-split sends every tier-0 aggregator
  // at 20. Aggregator 0's leaves tie at 5 and one lands on the wait, after
  // its timer (an initial timer is Pre, before every leaf); aggregator 1's
  // all land on the wait, so it folds empty; aggregator 2 holds at 4 with
  // two tied leaves. Aggregators 0 and 1 send tied at 20, in Start order,
  // and reach the root tied at 25.
  const TreeSpec tree = Tree({4, 3});
  const QueryRealization realization =
      Realization(tree,
                  {{5.0, 5.0, 20.0, 30.0, 20.0, 20.0, 20.0, 20.0, 1.0, 4.0, 4.0, 2.0},
                   {5.0, 5.0, 21.0}},
                  {0.1, 0.7, 0.2, 0.3, 0.6, 0.9, 0.4, 0.5, 0.35, 0.15, 0.05, 0.45});
  ProportionalSplitPolicy policy;
  ExpectOrder("prop-split", tree, 40.0, policy, realization,
              {{2, 0, 1}, 0x3ffcccccccccccccull, 0x402d555555555555ull, 15,
               {0, 1, 8, 11, 9, 10}, 0xb7dcb228c20f3cfbull});
}

TEST(FixedTimeOrderTest, ReArmedAndMovedTimersTiedWithLeaves) {
  // 4 x 4 leaves, initial wait 30; the first three arrivals ask for 10, 5
  // (already past from 8 on: the timer re-arms at the arrival's own time)
  // and 10. Exactly, or deferred at bound 6 and resolved later: the
  // deferred timer fires at 6 and moves to 10. A re-armed or moved timer
  // is Fresh, so every leaf tied with it runs first. Aggregator 3 sends at
  // 5. At 10, aggregator 2 holds on a leaf (Pre), ahead of 1 and 0, whose
  // re-armed timers tie there and run in the order of the arrivals that
  // armed them (at 8, then at 10).
  const TreeSpec tree = Tree({4, 4});
  const QueryRealization realization =
      Realization(tree,
                  {{2.0, 10.0, 10.0, 12.0,   // two leaves at 10, then the timer
                    8.0, 8.0, 8.0, 40.0,     // re-armed at 8 after a tied leaf
                    10.0, 3.0, 10.0, 10.0,   // holds on the last leaf at 10
                    1.0, 10.0, 9.0, 2.0},    // sends at 5
                   {0.5, 0.5, 0.5, 0.5}},
                  {0.1, 0.7, 0.2, 0.3, 0.6, 0.9, 0.4, 0.5, 0.35, 0.15, 0.05, 0.45, 0.25,
                   0.65, 0.85, 0.95});
  ScriptedPolicy exact(30.0, {10.0, 5.0, 10.0}, {10.0, 5.0, 10.0});
  ExpectOrder("exact re-arms", tree, 40.0, exact, realization,
              {{3, 2, 1, 0}, 0x4014666666666666ull, 0x4021800000000000ull, 31,
               {0, 1, 2, 4, 5, 6, 9, 8, 10, 11, 12, 15}, 0xc6dc99eb5ffc2091ull});
  ScriptedPolicy deferred(30.0, {6.0, 5.0, 6.0}, {10.0, 5.0, 10.0});
  ExpectOrder("deferred re-arms", tree, 40.0, deferred, realization,
              {{3, 2, 1, 0}, 0x4014666666666666ull, 0x4021800000000000ull, 31,
               {0, 1, 2, 4, 5, 6, 9, 8, 10, 11, 12, 15}, 0xc6dc99eb5ffc2091ull});
}

TEST(FixedTimeOrderTest, ThreeLevelsWithWeightedLeaves) {
  // 2 x 2 x 2 leaves with weights that make every sum's order show in its
  // bits, D = 30.
  const TreeSpec tree = Tree({2, 2, 2});
  const QueryRealization realization =
      Realization(tree,
                  {{3.0, 3.0, 10.0, 4.0, 7.0, 12.0, 10.0, 9.5},
                   {12.0, 5.0, 5.0, 10.0},
                   {8.0, 3.0}},
                  {0.1, 0.7, 0.2, 0.3, 0.6, 0.9, 0.4, 0.5});
  // Proportional-split waits tier 0 until 10 and tier 1 until 20.
  // Tier-0 aggregator 0 holds at 3 and the rest fold at 10, tied; 0 and 1
  // reach tier-1 aggregator 0 tied at 15 (the earlier send first), which
  // holds there; tier-1 aggregator 1's timer at 20 runs before its second
  // child's arrival at 20. Both tier-1 results reach the root tied at 23.
  ProportionalSplitPolicy prop_split;
  ExpectOrder("prop-split", tree, 30.0, prop_split, realization,
              {{0, 1}, 0x3ffb333333333332ull, 0x4020800000000000ull, 18, {0, 1, 3, 4, 7},
               0x73b8b98bcdbf3120ull});
  // Initial wait 16; the first arrival defers at bound 4 and resolves to 9,
  // the second asks for 15. Tier-0 aggregators 1 and 2 send tied at 9 on
  // moved timers, in the order of the arrivals that armed them (4, then
  // 7); both tier-1 aggregators then send tied at 14 on their first
  // arrival's timer, ordered through three levels of causes.
  ScriptedPolicy scripted(16.0, {4.0, 15.0}, {9.0, 15.0});
  ExpectOrder("scripted", tree, 30.0, scripted, realization,
              {{0, 1}, 0x3fecccccccccccccull, 0x401e800000000000ull, 24, {0, 1, 3, 4, 7},
               0x3b7e5d0a0a7d40f1ull});
}

TEST(FixedTimeOrderTest, TiedChildArrivalsRunInTheirSendOrder) {
  // 1 x 3 x 1 leaves, D = 30. Each tier-0 aggregator sends when its one
  // leaf lands, aggregator 2 first; their results reach the tier-1
  // aggregator tied at 7, where they run in send order (2, 1, 0), not in
  // index order, and 0.3 + 0.2 + 0.1 differs from 0.1 + 0.2 + 0.3 in the
  // last bit.
  const TreeSpec tree = Tree({1, 3, 1});
  const QueryRealization realization =
      Realization(tree, {{3.0, 2.0, 1.0}, {4.0, 5.0, 6.0}, {2.0}}, {0.1, 0.2, 0.3});
  ProportionalSplitPolicy policy;
  ExpectOrder("prop-split", tree, 30.0, policy, realization,
              {{0}, 0x3fe3333333333333ull, 0x4000000000000000ull, 10, {0, 1, 2},
               0xe57ca84fc0864cebull});
}

}  // namespace
}  // namespace cedar
