// A guided walkthrough of one aggregator's life (Pseudocode 1): watch the
// online learner refine its (mu, sigma) estimate and CalculateWait adjust
// the timer as process outputs arrive. This is the example to read when
// integrating Cedar into your own aggregation service.
//
//   ./adaptive_aggregator [--fanout=50] [--deadline=1000] [--true_mu=4.0]

#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/core/online_learner.h"
#include "src/core/quality.h"
#include "src/core/wait_optimizer.h"
#include "src/stats/rng.h"

int main(int argc, char** argv) {
  cedar::FlagSet flags("Single-aggregator walkthrough of Cedar's online loop.");
  int64_t* fanout = flags.AddInt("fanout", 50, "number of child processes (k1)");
  double* deadline = flags.AddPositiveDouble("deadline", 1000.0, "end-to-end deadline");
  double* true_mu = flags.AddDouble("true_mu", 4.0, "this query's true lognormal mu");
  double* true_sigma = flags.AddDouble("true_sigma", 0.84, "this query's true lognormal sigma");
  int64_t* seed = flags.AddInt("seed", 7, "rng seed");
  flags.Parse(argc, argv);

  const int k = static_cast<int>(*fanout);

  // What the system believes offline (global fit across past queries) vs
  // what this query actually is.
  auto offline_x1 = std::make_shared<cedar::LogNormalDistribution>(5.0, 1.5);
  cedar::LogNormalDistribution true_x1(*true_mu, *true_sigma);
  auto x2 = std::make_shared<cedar::LogNormalDistribution>(4.3, 1.0);  // upper stage, known offline

  // q_1 curve for the subtree above this aggregator: the CDF of X2.
  cedar::PiecewiseLinear upper = cedar::TabulateCdf(*x2, *deadline, 401);
  double epsilon = *deadline / 400.0;

  std::cout << "Offline belief: " << offline_x1->ToString() << "\n"
            << "This query:     " << true_x1.ToString() << "\n"
            << "Upper stage:    " << x2->ToString() << ", deadline " << *deadline << "\n\n";

  const double initial = cedar::OptimizeWait(*offline_x1, k, upper, *deadline, epsilon);
  // q_2(D) of the believed two-level tree: the quality its optimal waits
  // expect (the upper stage's fanout does not enter q_2).
  const cedar::TreeSpec belief = cedar::TreeSpec::TwoLevel(offline_x1, k, x2, 1);
  std::cout << "Initial wait from offline belief: " << initial
            << " (expected quality under that belief: "
            << cedar::TablePrinter::FormatDouble(cedar::MaxExpectedQuality(belief, *deadline), 3)
            << ")\n";
  const double oracle = cedar::OptimizeWait(true_x1, k, upper, *deadline, epsilon);
  std::cout << "Wait an oracle would pick:        " << oracle << "\n\n";

  // Sample this query's process durations — the arrivals the aggregator
  // will observe in order.
  cedar::Rng rng(static_cast<uint64_t>(*seed));
  std::vector<double> arrivals(static_cast<size_t>(k));
  for (auto& arrival : arrivals) {
    arrival = true_x1.Sample(rng);
  }
  std::sort(arrivals.begin(), arrivals.end());

  cedar::OnlineLearnerOptions learner_options;
  learner_options.min_samples = 5;
  cedar::OnlineLearner learner(k, learner_options);

  cedar::TablePrinter table(
      {"arrival#", "time", "fitted_mu", "fitted_sigma", "recomputed_wait"});
  double wait = initial;
  int sent_at = -1;
  for (int i = 0; i < k; ++i) {
    double now = arrivals[static_cast<size_t>(i)];
    if (now > wait && sent_at < 0) {
      sent_at = i;  // the timer would have fired before this arrival
    }
    learner.Observe(now);
    auto fit = learner.CurrentFit();
    std::string mu_text = "-";
    std::string sigma_text = "-";
    if (fit.has_value()) {
      auto fitted = cedar::MakeDistribution(*fit);
      wait = cedar::OptimizeWait(*fitted, k, upper, *deadline, epsilon);
      mu_text = cedar::TablePrinter::FormatDouble(fit->p1, 3);
      sigma_text = cedar::TablePrinter::FormatDouble(fit->p2, 3);
    }
    if (i < 12 || (i + 1) % 10 == 0) {
      table.AddRow({std::to_string(i + 1), cedar::TablePrinter::FormatDouble(now, 2), mu_text,
                    sigma_text, cedar::TablePrinter::FormatDouble(wait, 1)});
    }
  }
  table.Print(std::cout);

  std::cout << "\nFinal learned fit: mu="
            << cedar::TablePrinter::FormatDouble(learner.CurrentFit()->p1, 3)
            << " sigma=" << cedar::TablePrinter::FormatDouble(learner.CurrentFit()->p2, 3)
            << " (truth: mu=" << *true_mu << " sigma=" << *true_sigma << ")\n"
            << "Final wait " << cedar::TablePrinter::FormatDouble(wait, 1)
            << " vs oracle wait " << cedar::TablePrinter::FormatDouble(oracle, 1) << "\n";
  if (sent_at >= 0) {
    std::cout << "(With the offline-only wait the timer would have fired after arrival "
              << sent_at << " of " << k << ".)\n";
  }
  return 0;
}
