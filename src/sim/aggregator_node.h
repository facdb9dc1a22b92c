// AggregatorNode: one aggregator instance executing Pseudocode 1 — arrival
// handler, timer re-arming, early send when all children have reported.
// QueryTree wires one per aggregator for all three engines; RealtimeAggregator
// drives one on the wall clock. It is the library's only Pseudocode 1 loop.
//
// The node owns no clock and no queue. Its one timer is a value,
// timer_at(); each handler takes the driver's current time and returns a
// Step saying what it did to that timer. QueryTree::RunFixedTimeLeaves
// merges the timer into each node's sorted child arrivals, so a re-arm is
// an assignment; RealtimeAggregator fires it whenever the wall clock has
// passed timer_at().
//
// Arrivals go through WaitPolicy::DecideOnArrivalDeferrable: a deferred
// decision arms the timer at its lower bound, and only a timer that fires
// there resolves the exact send time, moving itself there when that is
// later (kMoved: the same timer, keeping its place among equal times).
// Every send time is the eager decisions' (DESIGN.md §4, "Aggregator loop").

#ifndef CEDAR_SRC_SIM_AGGREGATOR_NODE_H_
#define CEDAR_SRC_SIM_AGGREGATOR_NODE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time_types.h"
#include "src/core/policy.h"
#include "src/obs/query_trace.h"

namespace cedar {

class AggregatorNode {
 public:
  // What a handler did to the node's timer.
  enum class Step : uint8_t {
    kKept,   // nothing: a kept decision, or an output that came after the send
    kArmed,  // a new timer at timer_at() replaced the old one (a new event)
    kMoved,  // OnTimer only: the fired deferred timer resolved later and
             // now fires at timer_at() (the same event, keeping its key)
    kSent,   // the node sent at the handler's time; no timer is left
  };

  AggregatorNode() = default;

  // |origin| is this aggregator's time zero: policies reason in times
  // relative to their query's start, so a job arriving mid-simulation sets
  // origin to its arrival time (multi-query cluster runs) while single-query
  // replays leave it at 0. |trace|, when non-null, receives lifecycle events
  // (initial wait, arrivals, re-arms, the hold/fold send) in query-relative
  // time; it must outlive the node.
  void Init(int tier, long long index, std::unique_ptr<WaitPolicy> policy,
            const AggregatorContext* ctx, double origin = 0.0,
            QueryTraceBuilder* trace = nullptr) {
    tier_ = tier;
    index_ = index;
    policy_ = std::move(policy);
    ctx_ = ctx;
    origin_ = origin;
    trace_ = trace;
    arrivals_.reserve(static_cast<size_t>(ctx->fanout));
  }

  WaitPolicy* policy() { return policy_.get(); }
  int tier() const { return tier_; }
  long long index() const { return index_; }
  bool closed() const { return closed_; }
  double send_time() const { return send_time_; }
  double included_weight() const { return included_weight_; }
  int arrivals_count() const { return static_cast<int>(arrivals_.size()); }

  // The absolute time the armed timer fires; kSimTimeInfinity once sent.
  double timer_at() const { return timer_at_; }

  // Arms the initial timer (InitialWait) at |now|. Returns kArmed.
  Step Start(double now) {
    double wait = policy_->DecideInitialWait(*ctx_);
    if (trace_ != nullptr) {
      trace_->RecordInitialWait(tier_, index_, wait);
      traced_wait_ = wait;
    }
    ArmTimer(now, wait, false);
    return Step::kArmed;
  }

  // Handles one child output of |weight| arriving at |now|. Late outputs
  // (after the send) are dropped, matching the model: once the partial
  // result went upstream, stragglers are ignored.
  Step OnChildOutput(double now, double weight) {
    if (closed_) {
      return Step::kKept;
    }
    double relative_now = now - origin_;
    arrivals_.push_back(relative_now);
    included_weight_ += weight;
    if (trace_ != nullptr) {
      trace_->RecordArrival(tier_, index_, relative_now,
                            static_cast<int>(arrivals_.size()));
    }
    if (static_cast<int>(arrivals_.size()) == ctx_->fanout) {
      Send(now);  // all children reported: SetTimer(0) in Pseudocode 1
      return Step::kSent;
    }
    const WaitPolicy::ArrivalDecision decision =
        policy_->DecideOnArrivalDeferrable(*ctx_, relative_now, arrivals_);
    if (decision.kept) {
      return Step::kKept;
    }
    if (trace_ != nullptr) {
      // The record needs the exact wait; the timer is armed as untraced.
      const double wait = decision.deferred ? policy_->ResolveWait(*ctx_) : decision.send_time;
      if (wait != traced_wait_) {
        trace_->RecordWaitUpdate(tier_, index_, relative_now, wait);
        traced_wait_ = wait;
      }
    }
    // An exact wait equal to the armed one keeps the timer; a deferred
    // decision, or one replacing a deferred timer, always re-arms.
    if (decision.deferred || armed_deferred_ || decision.send_time != armed_wait_) {
      ArmTimer(now, decision.send_time, decision.deferred);
      return Step::kArmed;
    }
    return Step::kKept;
  }

  // The armed timer fires at |now| == timer_at(). A deferred timer fires at
  // its bound: the exact wait is at least the bound, so the timer moves
  // there, or the node sends if that is now.
  Step OnTimer(double now) {
    if (armed_deferred_) {
      armed_deferred_ = false;
      armed_wait_ = policy_->ResolveWait(*ctx_);
      const double fire_at = origin_ + armed_wait_;
      if (fire_at > now) {
        SetTimer(fire_at);
        return Step::kMoved;
      }
    }
    Send(now);
    return Step::kSent;
  }

 private:
  void ArmTimer(double now, double wait, bool deferred) {
    armed_wait_ = wait;
    armed_deferred_ = deferred;
    SetTimer(std::max(origin_ + wait, now));
  }

  // Every driver's timer fires at a finite time.
  void SetTimer(double at) {
    CEDAR_CHECK(IsFiniteTime(at)) << "timer at non-finite time " << at;
    timer_at_ = at;
  }

  void Send(double now) {
    closed_ = true;
    timer_at_ = kSimTimeInfinity;
    send_time_ = now;
    if (trace_ != nullptr) {
      trace_->RecordSend(tier_, index_, send_time_ - origin_,
                         static_cast<int>(arrivals_.size()), ctx_->fanout,
                         included_weight_);
    }
  }

  int tier_ = 0;
  long long index_ = 0;
  double origin_ = 0.0;
  std::unique_ptr<WaitPolicy> policy_;
  const AggregatorContext* ctx_ = nullptr;
  QueryTraceBuilder* trace_ = nullptr;

  std::vector<double> arrivals_;
  double included_weight_ = 0.0;
  bool closed_ = false;
  double send_time_ = 0.0;
  double timer_at_ = kSimTimeInfinity;
  double armed_wait_ = -1.0;
  bool armed_deferred_ = false;  // armed_wait_ is a deferred decision's bound
  double traced_wait_ = -1.0;    // the last exact wait the trace recorded
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_AGGREGATOR_NODE_H_
