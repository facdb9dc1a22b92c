// Figure 4: distribution of RTTs in Bing's search cluster.
//
// The paper plots the CDF with median 330us, p90 1.1ms, p99 14ms. We
// reproduce the figure from the published log-normal fit (5.9, 1.25): the
// percentile table and CDF series below, plus the FitPercentiles run on
// the three published percentiles (the §4.2.1 offline type-fitting step).

#include <iostream>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/table.h"
#include "src/stats/distribution.h"
#include "src/stats/fitting.h"
#include "src/trace/calibration.h"

int main(int argc, char** argv) {
  using namespace cedar;
  FlagSet flags("Figure 4: Bing search-cluster RTT distribution.");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  PrintBanner(std::cout, "Figure 4: Bing search-cluster RTT distribution (microseconds)");

  LogNormalDistribution paper_fit(kBingMu, kBingSigma);
  std::cout << "paper fit: " << paper_fit.ToString() << "\n";

  {
    TablePrinter table({"percentile", "paper_reported_us", "fit_value_us"});
    table.AddRow({"p50", TablePrinter::FormatDouble(kBingMedianUs, 0),
                  TablePrinter::FormatDouble(paper_fit.Quantile(0.50), 0)});
    table.AddRow({"p90", TablePrinter::FormatDouble(kBingP90Us, 0),
                  TablePrinter::FormatDouble(paper_fit.Quantile(0.90), 0)});
    table.AddRow({"p99", TablePrinter::FormatDouble(kBingP99Us, 0),
                  TablePrinter::FormatDouble(paper_fit.Quantile(0.99), 0)});
    table.Print(std::cout);
  }

  // The offline type-fitting step on the published percentiles.
  {
    PrintBanner(std::cout, "Offline percentile fit of the published points (rriskDistributions "
                           "substitute)");
    std::vector<PercentilePoint> points = {
        {0.50, kBingMedianUs}, {0.90, kBingP90Us}, {0.99, kBingP99Us}};
    auto fits = FitPercentiles(points);
    TablePrinter table({"family", "fit", "relative_rms_error"});
    for (const auto& fit : fits) {
      table.AddRow({DistributionFamilyName(fit.spec.family), fit.spec.ToString(),
                    TablePrinter::FormatDouble(fit.relative_rms_error, 5)});
    }
    table.Print(std::cout);
  }

  // CDF series as plotted in the figure (0-2ms body; 0-15ms tail inset).
  {
    PrintBanner(std::cout, "CDF series (body: 0-2 ms)");
    TablePrinter table({"time_us", "cdf"});
    for (double t = 100.0; t <= 2000.0; t += 100.0) {
      table.AddNumericRow({t, paper_fit.Cdf(t)}, 4);
    }
    table.Print(std::cout);

    PrintBanner(std::cout, "CDF series (tail inset: 2-15 ms)");
    TablePrinter tail({"time_us", "cdf"});
    for (double t = 2000.0; t <= 15000.0; t += 1000.0) {
      tail.AddNumericRow({t, paper_fit.Cdf(t)}, 4);
    }
    tail.Print(std::cout);
  }
  obs.Finish(std::cout);
  return 0;
}
