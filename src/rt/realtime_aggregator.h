// RealtimeAggregator: Pseudocode 1 on the wall clock for real services — the
// endhost deployment path the paper emphasizes ("Cedar can be implemented
// entirely at the endhosts", §1).
//
// It drives one AggregatorNode, the loop the simulators run, directly, in
// seconds on std::chrono::steady_clock since Start(). Offer() first fires
// the node's timer while it is due (each firing at timer_at(), so a timer
// already due fires first, as in a simulation), then delivers the arrival
// now and fires a timer that it re-armed at now; a timer thread does the
// same firing and sleeps until timer_at(). Deferral, resolve at expiry and
// the single send are the node's. The callback fires exactly once: at the
// node's send, or at Flush().
//
// Threading contract: Offer/Flush/Join are thread-safe; the callback runs
// on the timer thread with no locks held; the node and its policy are only
// touched under the internal mutex. The referenced AggregatorContext
// pointers (offline tree, upper curve) must outlive the aggregator. The
// aggregator runs one query and owns that query's QueryMemo: its context
// copy points there.

#ifndef CEDAR_SRC_RT_REALTIME_AGGREGATOR_H_
#define CEDAR_SRC_RT_REALTIME_AGGREGATOR_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/time_types.h"
#include "src/core/policy.h"
#include "src/sim/aggregator_node.h"

namespace cedar {

template <typename Output>
class RealtimeAggregator {
 public:
  struct Result {
    std::vector<Output> outputs;
    // Seconds from Start() to the send.
    double send_time = 0.0;
    // True if the send happened because all fanout outputs arrived.
    bool sent_early = false;
    // Arrival times (seconds from Start) of the included outputs.
    std::vector<double> arrival_times;
  };

  // |ctx| must describe this aggregator (fanout, deadline, curves); its memo
  // is replaced by the aggregator's own. |policy| is owned. |on_send| is
  // invoked exactly once, on the timer thread.
  RealtimeAggregator(std::unique_ptr<WaitPolicy> policy, const AggregatorContext& ctx,
                     std::function<void(Result)> on_send)
      : ctx_(ctx), on_send_(std::move(on_send)) {
    CEDAR_CHECK(policy != nullptr);
    CEDAR_CHECK(on_send_ != nullptr);
    CEDAR_CHECK_GE(ctx_.fanout, 1);
    ctx_.memo = &memo_;
    node_.Init(ctx_.tier, 0, std::move(policy), &ctx_);
  }

  ~RealtimeAggregator() { Join(); }

  RealtimeAggregator(const RealtimeAggregator&) = delete;
  RealtimeAggregator& operator=(const RealtimeAggregator&) = delete;

  // Begins the query: the node arms the policy's initial wait, and the
  // timer thread starts. Must be called exactly once.
  void Start() {
    std::lock_guard<std::mutex> lock(mutex_);
    CEDAR_CHECK(!started_) << "Start() called twice";
    started_ = true;
    start_time_ = Clock::now();
    node_.policy()->BeginQuery(ctx_, nullptr);
    node_.Start(0.0);
    timer_ = std::thread([this] { TimerLoop(); });
  }

  // Delivers one worker output. Returns false (and drops the output) if the
  // result was already sent, which includes a wait that expired before this
  // call even if the timer thread has not woken yet. Thread-safe.
  bool Offer(Output output) {
    std::unique_lock<std::mutex> lock(mutex_);
    CEDAR_CHECK(started_) << "Offer() before Start()";
    if (sent_) {
      return false;
    }
    const double now = Elapsed();
    FireDueTimer(now);
    const bool accepted = !sent_;
    if (accepted) {
      outputs_.push_back(std::move(output));
      arrival_times_.push_back(now);
      node_.OnChildOutput(now, 1.0);
      FireDueTimer(now);  // a wait already past re-arms the timer at now
    }
    lock.unlock();
    cv_.notify_all();  // the node's next timer, or its send, may have changed
    return accepted;
  }

  // Forces an immediate send (e.g. external cancellation). Safe to call
  // multiple times and concurrently with Offer.
  void Flush() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      flush_requested_ = true;
    }
    cv_.notify_all();
  }

  // Blocks until the result has been sent and the timer thread exited.
  void Join() {
    if (timer_.joinable()) {
      timer_.join();
    }
  }

  // True once the result is sent: later offers are dropped, and the
  // callback fires, or has fired, on the timer thread.
  bool sent() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_time_).count();
  }

  // Fires the node's timer while it is due at |now|, each time at
  // timer_at(): a deferred timer may move to a time already due. Under
  // mutex_.
  void FireDueTimer(double now) {
    while (node_.timer_at() <= now) {
      node_.OnTimer(node_.timer_at());
    }
    sent_ = sent_ || node_.closed();
  }

  // Fires the node's due timer and sleeps until its next one, or until an
  // Offer or Flush wakes it, then delivers the result once.
  void TimerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      FireDueTimer(Elapsed());
      if (sent_ || flush_requested_) {
        break;
      }
      const double next = node_.timer_at();
      if (IsFiniteTime(next)) {
        cv_.wait_until(lock, start_time_ + std::chrono::ceil<Clock::duration>(
                                               std::chrono::duration<double>(next)));
      } else {
        cv_.wait(lock);
      }
    }
    sent_ = true;
    Result result;
    result.outputs = std::move(outputs_);
    result.arrival_times = arrival_times_;
    result.send_time = Elapsed();
    result.sent_early = node_.arrivals_count() == ctx_.fanout;
    lock.unlock();
    on_send_(std::move(result));
  }

  QueryMemo memo_;
  AggregatorContext ctx_;
  std::function<void(Result)> on_send_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  Clock::time_point start_time_;
  AggregatorNode node_;
  bool started_ = false;
  bool sent_ = false;  // the node sent, or a flush ended the query
  bool flush_requested_ = false;
  std::vector<Output> outputs_;
  std::vector<double> arrival_times_;
  std::thread timer_;  // last: it uses every member above
};

}  // namespace cedar

#endif  // CEDAR_SRC_RT_REALTIME_AGGREGATOR_H_
