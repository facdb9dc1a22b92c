// Microbench for the wait-table precompute (§4.3.3 fast path): one table
// build (every grid point is an independent OptimizeWait scan) timed
// serially, then through a fresh WaitTableStore by 1, 2, 4 and 8
// concurrent requesters that fill it together, with every grid point
// checked bit-identical to the serial build.
//
// --smoke shrinks the grid and the repeats to a few-second run for the
// tier1_store CI label.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/math_util.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"
#include "src/core/quality.h"
#include "src/core/wait_table.h"
#include "src/core/wait_table_store.h"
#include "src/obs/profiler.h"

namespace {

using namespace cedar;

double MillisBetween(int64_t begin_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) / 1e6;
}

// Exact grid-point lookups (bilinear weights are 0 at grid nodes), compared
// bitwise against the serial build.
void CheckBitIdentical(const WaitTable& serial, const WaitTable& shared) {
  const WaitTableSpec& spec = serial.spec();
  for (int li = 0; li < spec.location_points; ++li) {
    double location = Lerp(spec.location_min, spec.location_max,
                           static_cast<double>(li) / (spec.location_points - 1));
    for (int si = 0; si < spec.scale_points; ++si) {
      double scale = Lerp(spec.scale_min, spec.scale_max,
                          static_cast<double>(si) / (spec.scale_points - 1));
      CEDAR_CHECK(std::bit_cast<uint64_t>(serial.Lookup(location, scale)) ==
                  std::bit_cast<uint64_t>(shared.Lookup(location, scale)))
          << "cooperative build diverged at grid point (" << li << ", " << si << ")";
    }
  }
}

void RunBuildBench(std::ostream& out, const WaitTableSpec& spec, int repeats) {
  PrintBanner(out, "WaitTable build, serial vs requesters filling one store build");
  const PiecewiseLinear upper = TabulateCdf(LogNormalDistribution(3.25, 0.95), 1000.0, 401);
  const double epsilon = 1000.0 / 400.0;
  const int fanout = 50;
  out << "grid=" << spec.location_points << "x" << spec.scale_points
      << " points, repeats=" << repeats << " (best shown), hardware_threads="
      << ThreadPool::HardwareThreads() << "\n";

  double serial_ms = 0.0;
  std::unique_ptr<WaitTable> serial;
  for (int r = 0; r < repeats; ++r) {
    int64_t begin = SteadyNowNs();
    serial = std::make_unique<WaitTable>(spec, fanout, upper, 1000.0, epsilon);
    double ms = MillisBetween(begin, SteadyNowNs());
    serial_ms = r == 0 ? ms : std::min(serial_ms, ms);
  }

  TablePrinter table({"build", "time_ms", "speedup_x"});
  table.AddRow({"serial", TablePrinter::FormatDouble(serial_ms, 1),
                TablePrinter::FormatDouble(1.0, 2)});
  // Requesters beyond the hardware width still run (the bit-identity check
  // is the point); their speedup just saturates at the core count.
  for (int requesters : {1, 2, 4, 8}) {
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
      WaitTableStore store;
      std::vector<WaitTableStore::TablePtr> got(static_cast<size_t>(requesters));
      std::latch start(1);
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(requesters));
      for (int t = 0; t < requesters; ++t) {
        threads.emplace_back([&, t] {
          start.wait();
          got[static_cast<size_t>(t)] = store.GetOrBuild(spec, fanout, upper, 1000.0, epsilon);
        });
      }
      int64_t begin = SteadyNowNs();
      start.count_down();
      for (auto& thread : threads) {
        thread.join();
      }
      double ms = MillisBetween(begin, SteadyNowNs());
      best = r == 0 ? ms : std::min(best, ms);
      CEDAR_CHECK_EQ(store.GetStats().misses, 1) << "one build per key";
      for (const auto& shared : got) {
        CheckBitIdentical(*serial, *shared);
      }
    }
    table.AddRow({"requesters-" + std::to_string(requesters), TablePrinter::FormatDouble(best, 1),
                  TablePrinter::FormatDouble(best > 0.0 ? serial_ms / best : 0.0, 2)});
  }
  table.Print(out);
  out << "grid points bit-identical across all builds\n";
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags("Wait-table microbench: serial vs cooperative store builds.");
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
