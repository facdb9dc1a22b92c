// AggregatorNode: one aggregator instance executing Pseudocode 1 against an
// EventQueue — arrival handler, timer re-arming, early send when all
// children have reported, and the upstream send callback. QueryTree wires
// one per aggregator for all three engines; RealtimeAggregator drives one
// on the wall clock. It is the library's only Pseudocode 1 loop.
//
// Arrivals go through WaitPolicy::DecideOnArrivalDeferrable: a deferred
// decision arms the timer at its lower bound, and only a timer that fires
// there resolves the exact send time, re-queueing itself under its own seq
// when that is later. Every send time is the eager decisions' (DESIGN.md
// §4, "Aggregator loop").

#ifndef CEDAR_SRC_SIM_AGGREGATOR_NODE_H_
#define CEDAR_SRC_SIM_AGGREGATOR_NODE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/core/policy.h"
#include "src/obs/query_trace.h"
#include "src/sim/event_queue.h"

namespace cedar {

class AggregatorNode {
 public:
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

  // Arms the initial timer (InitialWait) on |queue|, which the node keeps
  // for its timers and must outlive it. |send_fn| is invoked exactly once,
  // at the send, with (*this, accumulated weight).
  void Start(EventQueue& queue, std::function<void(AggregatorNode&, double)> send_fn) {
    queue_ = &queue;
    send_fn_ = std::move(send_fn);
    double wait = policy_->DecideInitialWait(*ctx_);
    if (trace_ != nullptr) {
      trace_->RecordInitialWait(tier_, index_, wait);
      traced_wait_ = wait;
    }
    ArmTimer(wait, false);
  }

  // Handles one child output of |weight| arriving now, at the queue's
  // current time. Late outputs (after the send) are dropped, matching the
  // model: once the partial result went upstream, stragglers are ignored.
  void OnChildOutput(double weight) {
    if (closed_) {
      return;
    }
    double relative_now = queue_->now() - origin_;
    arrivals_.push_back(relative_now);
    included_weight_ += weight;
    if (trace_ != nullptr) {
      trace_->RecordArrival(tier_, index_, relative_now,
                            static_cast<int>(arrivals_.size()));
    }
    if (static_cast<int>(arrivals_.size()) == ctx_->fanout) {
      Send();  // all children reported: SetTimer(0) in Pseudocode 1
      return;
    }
    const WaitPolicy::ArrivalDecision decision =
        policy_->DecideOnArrivalDeferrable(*ctx_, relative_now, arrivals_);
    if (decision.kept) {
      return;
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
      ArmTimer(decision.send_time, decision.deferred);
    }
  }

 private:
  void ArmTimer(double wait, bool deferred) {
    if (timer_handle_ != 0) {
      queue_->Cancel(timer_handle_);
    }
    armed_wait_ = wait;
    armed_deferred_ = deferred;
    double fire_at = std::max(origin_ + wait, queue_->now());
    timer_handle_ = queue_->Schedule(fire_at, [this] { OnTimer(); });
  }

  // A deferred timer fires at its bound: the exact wait is at least the
  // bound, so the timer re-queues itself there, under the seq it was armed
  // with, or sends if that is now.
  void OnTimer() {
    timer_handle_ = 0;
    if (armed_deferred_) {
      armed_deferred_ = false;
      armed_wait_ = policy_->ResolveWait(*ctx_);
      const double fire_at = origin_ + armed_wait_;
      if (fire_at > queue_->now()) {
        timer_handle_ = queue_->Requeue(fire_at, [this] { OnTimer(); });
        return;
      }
    }
    Send();
  }

  void Send() {
    if (closed_) {
      return;
    }
    closed_ = true;
    if (timer_handle_ != 0) {
      queue_->Cancel(timer_handle_);
      timer_handle_ = 0;
    }
    send_time_ = queue_->now();
    if (trace_ != nullptr) {
      trace_->RecordSend(tier_, index_, send_time_ - origin_,
                         static_cast<int>(arrivals_.size()), ctx_->fanout,
                         included_weight_);
    }
    send_fn_(*this, included_weight_);
  }

  int tier_ = 0;
  long long index_ = 0;
  double origin_ = 0.0;
  std::unique_ptr<WaitPolicy> policy_;
  const AggregatorContext* ctx_ = nullptr;
  QueryTraceBuilder* trace_ = nullptr;
  EventQueue* queue_ = nullptr;
  std::function<void(AggregatorNode&, double)> send_fn_;

  std::vector<double> arrivals_;
  double included_weight_ = 0.0;
  bool closed_ = false;
  double send_time_ = 0.0;
  uint64_t timer_handle_ = 0;
  double armed_wait_ = -1.0;
  bool armed_deferred_ = false;  // armed_wait_ is a deferred decision's bound
  double traced_wait_ = -1.0;    // the last exact wait the trace recorded
};

}  // namespace cedar

#endif  // CEDAR_SRC_SIM_AGGREGATOR_NODE_H_
