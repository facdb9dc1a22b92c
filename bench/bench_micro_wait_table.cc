// Microbench for the wait-table precompute (§4.3.3 fast path): one WaitTable
// build (every grid point is an independent OptimizeWait scan) timed
// serially and on worker pools of increasing size, with every grid point
// checked bit-identical to the serial build.
//
// --smoke shrinks the grid and the repeats to a few-second run for the
// tier1_store CI label.

#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/core/quality.h"
#include "src/core/wait_table.h"
#include "src/obs/profiler.h"

namespace {

using namespace cedar;

double MillisBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

// Exact grid-point lookups (bilinear weights are 0 at grid nodes), compared
// bitwise against the serial build.
void CheckBitIdentical(const WaitTable& serial, const WaitTable& parallel) {
  const WaitTableSpec& spec = serial.spec();
  for (int li = 0; li < spec.location_points; ++li) {
    double location = Lerp(spec.location_min, spec.location_max,
                           static_cast<double>(li) / (spec.location_points - 1));
    for (int si = 0; si < spec.scale_points; ++si) {
      double scale = Lerp(spec.scale_min, spec.scale_max,
                          static_cast<double>(si) / (spec.scale_points - 1));
      CEDAR_CHECK(serial.Lookup(location, scale) == parallel.Lookup(location, scale))
          << "parallel build diverged at grid point (" << li << ", " << si << ")";
    }
  }
}

void RunBuildBench(std::ostream& out, const WaitTableSpec& spec, int repeats) {
  PrintBanner(out, "WaitTable build, serial vs pool-parallel grid fill");
  const PiecewiseLinear upper = TabulateCdf(LogNormalDistribution(3.25, 0.95), 1000.0, 401);
  const double epsilon = 1000.0 / 400.0;
  const int fanout = 50;
  out << "grid=" << spec.location_points << "x" << spec.scale_points
      << " points, repeats=" << repeats << " (best shown), hardware_threads="
      << ThreadPool::HardwareThreads() << "\n";

  auto best_build_ms = [&](ThreadPool* pool, std::unique_ptr<WaitTable>& table_out) {
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      int64_t begin = SteadyNowNs();
      auto table = std::make_unique<WaitTable>(spec, fanout, upper, 1000.0, epsilon, pool);
      double ms = MillisBetween(begin, SteadyNowNs());
      if (r == 0 || ms < best) {
        best = ms;
      }
      table_out = std::move(table);
    }
    return best;
  };

  std::unique_ptr<WaitTable> serial;
  double serial_ms = best_build_ms(nullptr, serial);

  TablePrinter table({"build", "time_ms", "speedup_x"});
  table.AddRow({"serial", TablePrinter::FormatDouble(serial_ms, 1),
                TablePrinter::FormatDouble(1.0, 2)});
  // Pools beyond the hardware width still run (the bit-identity check is the
  // point); their speedup just saturates at the core count.
  for (int threads : {2, 4, 8}) {
    ThreadPool pool(threads);
    std::unique_ptr<WaitTable> parallel;
    double parallel_ms = best_build_ms(&pool, parallel);
    CheckBitIdentical(*serial, *parallel);
    table.AddRow({"pool-" + std::to_string(threads),
                  TablePrinter::FormatDouble(parallel_ms, 1),
                  TablePrinter::FormatDouble(parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0,
                                             2)});
  }
  table.Print(out);
  out << "grid points bit-identical across all builds\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Wait-table microbench: serial vs pool-parallel builds.");
  int64_t* repeats = flags.AddInt("repeats", 3, "build timing repeats");
  bool* smoke = flags.AddBool("smoke", false, "tiny grid, one repeat (CI smoke run)");
  BenchObservability obs(flags);
  flags.Parse(argc, argv);
  obs.Init();

  WaitTableSpec spec;
  spec.location_min = 0.0;
  spec.location_max = 10.0;
  spec.location_points = *smoke ? 17 : 81;
  spec.scale_min = 0.1;
  spec.scale_max = 2.5;
  spec.scale_points = *smoke ? 9 : 25;

  RunBuildBench(std::cout, spec, *smoke ? 1 : static_cast<int>(*repeats));

  obs.Finish(std::cout);
  return 0;
}
