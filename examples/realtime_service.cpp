// Real-time endhost demo: a wall-clock partial-aggregation service.
//
// Spawns k worker threads (simulated index servers) whose response times
// are log-normal in real milliseconds, and one RealtimeAggregator driven by
// the Cedar policy. Prints the timeline: the offline initial wait, each
// arrival, and the final send — everything on std::chrono::steady_clock.
// This is the §1 claim in action: no network-layer support, just endhost
// timers.
//
//   ./realtime_service [--fanout=16] [--deadline_ms=250] [--true_mu_ms=40]

#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/rt/realtime_aggregator.h"
#include "src/stats/rng.h"

int main(int argc, char** argv) {
  cedar::FlagSet flags("Real-time partial aggregation with Cedar on wall-clock timers.");
  int64_t* fanout = flags.AddInt("fanout", 16, "number of worker threads");
  double* deadline_ms = flags.AddPositiveDouble("deadline_ms", 250.0, "end-to-end deadline (ms)");
  double* true_mu_ms = flags.AddDouble("true_mu_ms", 40.0,
                                       "median worker latency in ms (this query's truth)");
  int64_t* seed = flags.AddInt("seed", 11, "rng seed");
  flags.Parse(argc, argv);

  const int k = static_cast<int>(*fanout);
  const double deadline_s = *deadline_ms / 1000.0;

  // Offline knowledge (seconds): believed worker latency and upstream ship.
  auto offline_x1 = std::make_shared<cedar::LogNormalDistribution>(std::log(0.030), 0.6);
  auto x2 = std::make_shared<cedar::LogNormalDistribution>(std::log(0.020), 0.5);
  cedar::TreeSpec tree = cedar::TreeSpec::TwoLevel(offline_x1, k, x2, 1);
  cedar::PiecewiseLinear upper = cedar::TabulateCdf(*x2, deadline_s, 201);

  cedar::AggregatorContext ctx;
  ctx.tier = 0;
  ctx.deadline = deadline_s;
  ctx.fanout = k;
  ctx.offline_tree = &tree;
  ctx.upper_quality = &upper;
  ctx.epsilon = deadline_s / 400.0;

  std::cout << "Believed worker latency: " << offline_x1->ToString()
            << " s; actual median this query: " << *true_mu_ms << " ms\n"
            << "Deadline " << *deadline_ms << " ms, fanout " << k << "\n\n";

  cedar::RealtimeAggregator<int>::Result result;
  cedar::RealtimeAggregator<int> aggregator(
      std::make_unique<cedar::CedarPolicy>(), ctx,
      [&](cedar::RealtimeAggregator<int>::Result r) { result = std::move(r); });

  aggregator.Start();

  // Workers: the query's true latency differs from the offline belief —
  // Cedar must adapt on the fly.
  cedar::LogNormalDistribution true_latency(std::log(*true_mu_ms / 1000.0), 0.6);
  cedar::Rng rng(static_cast<uint64_t>(*seed));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    double latency_s = true_latency.Sample(rng);
    workers.emplace_back([&aggregator, i, latency_s] {
      std::this_thread::sleep_for(std::chrono::duration<double>(latency_s));
      aggregator.Offer(i);
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  aggregator.Join();

  cedar::TablePrinter table({"metric", "value"});
  table.AddRow({"outputs included", std::to_string(result.outputs.size()) + " / " +
                                        std::to_string(k)});
  table.AddRow({"send time (ms)",
                cedar::TablePrinter::FormatDouble(result.send_time * 1000.0, 1)});
  table.AddRow({"sent early (all arrived)", result.sent_early ? "yes" : "no"});
  if (!result.arrival_times.empty()) {
    table.AddRow({"first arrival (ms)",
                  cedar::TablePrinter::FormatDouble(result.arrival_times.front() * 1000.0, 1)});
    table.AddRow({"last included arrival (ms)",
                  cedar::TablePrinter::FormatDouble(result.arrival_times.back() * 1000.0, 1)});
  }
  table.Print(std::cout);

  double quality = static_cast<double>(result.outputs.size()) / k;
  std::cout << "\nResponse quality: " << cedar::TablePrinter::FormatDouble(quality, 3) << "\n";
  return 0;
}
