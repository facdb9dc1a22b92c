// RealtimeAggregator: a wall-clock implementation of Pseudocode 1 for real
// services — the endhost deployment path the paper emphasizes ("Cedar can
// be implemented entirely at the endhosts", §1).
//
// Worker threads deliver outputs with Offer() from any thread; an internal
// timer thread enforces the policy's (continuously re-optimized) wait; the
// completion callback fires exactly once — when the wait expires, when all
// fanout outputs have arrived, or when Flush() is called. All time is in
// seconds on std::chrono::steady_clock, measured from Start().
//
// Threading contract: Offer/Flush/Join are thread-safe; the callback runs
// on the timer thread with no locks held; the WaitPolicy is only ever
// invoked under the internal mutex (policies are not thread-safe
// themselves). The referenced AggregatorContext pointers (offline tree,
// upper curve) must outlive the aggregator. The aggregator runs one query and
// owns that query's QueryMemo: its context copy points there.

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
#include "src/core/policy.h"

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
      : policy_(std::move(policy)), ctx_(ctx), on_send_(std::move(on_send)) {
    CEDAR_CHECK(policy_ != nullptr);
    CEDAR_CHECK(on_send_ != nullptr);
    CEDAR_CHECK_GE(ctx_.fanout, 1);
    ctx_.memo = &memo_;
  }

  ~RealtimeAggregator() { Join(); }

  RealtimeAggregator(const RealtimeAggregator&) = delete;
  RealtimeAggregator& operator=(const RealtimeAggregator&) = delete;

  // Begins the query: consults the policy for the initial wait and starts
  // the timer thread. Must be called exactly once.
  void Start() {
    std::lock_guard<std::mutex> lock(mutex_);
    CEDAR_CHECK(!started_) << "Start() called twice";
    started_ = true;
    start_time_ = Clock::now();
    policy_->BeginQuery(ctx_, nullptr);
    current_wait_ = policy_->DecideInitialWait(ctx_);
    timer_ = std::thread([this] { TimerLoop(); });
  }

  // Delivers one worker output. Returns false (and drops the output) if the
  // result was already sent. Thread-safe.
  bool Offer(Output output) {
    std::unique_lock<std::mutex> lock(mutex_);
    CEDAR_CHECK(started_) << "Offer() before Start()";
    if (sent_) {
      return false;
    }
    double now = Elapsed();
    outputs_.push_back(std::move(output));
    arrivals_.push_back(now);
    if (static_cast<int>(arrivals_.size()) >= ctx_.fanout) {
      all_arrived_ = true;
    } else {
      current_wait_ = policy_->DecideOnArrival(ctx_, now, arrivals_);
    }
    lock.unlock();
    cv_.notify_all();
    return true;
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

  // True once the callback has fired.
  bool sent() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sent_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  double Elapsed() const {
    return std::chrono::duration<double>(Clock::now() - start_time_).count();
  }

  void TimerLoop() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (all_arrived_ || flush_requested_) {
        break;
      }
      double wait = current_wait_;
      if (Elapsed() >= wait) {
        break;  // timer expired (possibly re-armed into the past)
      }
      auto fire_at = start_time_ + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(wait));
      // Wake early if an arrival re-armed the timer or finished the fanout.
      cv_.wait_until(lock, fire_at, [&] {
        return all_arrived_ || flush_requested_ || current_wait_ != wait;
      });
    }
    sent_ = true;
    Result result;
    result.outputs = std::move(outputs_);
    result.arrival_times = arrivals_;
    result.send_time = Elapsed();
    result.sent_early = all_arrived_;
    lock.unlock();
    on_send_(std::move(result));
  }

  std::unique_ptr<WaitPolicy> policy_;
  QueryMemo memo_;
  AggregatorContext ctx_;
  std::function<void(Result)> on_send_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::thread timer_;
  Clock::time_point start_time_;
  bool started_ = false;
  bool sent_ = false;
  bool all_arrived_ = false;
  bool flush_requested_ = false;
  double current_wait_ = 0.0;
  std::vector<Output> outputs_;
  std::vector<double> arrivals_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_RT_REALTIME_AGGREGATOR_H_
