#include "src/core/wait_table.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/policies.h"
#include "src/core/quality.h"
#include "src/sim/experiment.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

struct TableFixture {
  TableFixture()
      : upper(TabulateCdf(LogNormalDistribution(3.25, 0.95), 1000.0, 401)),
        epsilon(1000.0 / 400.0) {}

  WaitTableSpec DefaultSpec() const {
    WaitTableSpec spec;
    spec.location_min = 1.0;
    spec.location_max = 7.0;
    spec.location_points = 49;
    spec.scale_min = 0.2;
    spec.scale_max = 2.0;
    spec.scale_points = 19;
    return spec;
  }

  PiecewiseLinear upper;
  double epsilon;
};

TEST(WaitTableTest, GridPointsMatchDirectOptimization) {
  TableFixture fixture;
  WaitTable table(fixture.DefaultSpec(), 50, fixture.upper, 1000.0, fixture.epsilon);
  // Exact grid points must reproduce the direct scan exactly.
  for (double mu : {1.0, 2.5, 4.0, 7.0}) {       // on the location grid (step 0.125)
    for (double sigma : {0.2, 0.6, 1.0, 2.0}) {  // on the scale grid (step 0.1)
      LogNormalDistribution dist(mu, sigma);
      double direct = OptimizeWait(dist, 50, fixture.upper, 1000.0, fixture.epsilon);
      EXPECT_NEAR(table.Lookup(mu, sigma), direct, 1e-9) << "mu=" << mu << " sigma=" << sigma;
    }
  }
}

TEST(WaitTableTest, InterpolationCloseToDirect) {
  TableFixture fixture;
  WaitTable table(fixture.DefaultSpec(), 50, fixture.upper, 1000.0, fixture.epsilon);
  // Off-grid parameters: the optimal-wait surface is piecewise smooth with
  // plateau jumps (the argmax of a nearly flat objective), so interpolated
  // waits can differ by a few percent of the deadline; the *quality* cost
  // of that is negligible (see CedarWithTableMatchesScanQuality).
  for (double mu : {2.17, 3.33, 5.91}) {
    for (double sigma : {0.47, 0.83, 1.46}) {
      LogNormalDistribution dist(mu, sigma);
      double direct = OptimizeWait(dist, 50, fixture.upper, 1000.0, fixture.epsilon);
      EXPECT_NEAR(table.Lookup(mu, sigma), direct, 60.0) << "mu=" << mu << " sigma=" << sigma;
    }
  }
  EXPECT_EQ(table.clamped_lookups(), 0);
}

TEST(WaitTableTest, OutOfGridClampsAndCounts) {
  TableFixture fixture;
  WaitTable table(fixture.DefaultSpec(), 50, fixture.upper, 1000.0, fixture.epsilon);
  double edge = table.Lookup(7.0, 2.0);
  EXPECT_DOUBLE_EQ(table.Lookup(9.0, 3.0), edge);
  EXPECT_GE(table.clamped_lookups(), 1);
}

TEST(WaitTableTest, LookupSpecChecksFamily) {
  TableFixture fixture;
  WaitTable table(fixture.DefaultSpec(), 50, fixture.upper, 1000.0, fixture.epsilon);
  DistributionSpec fit;
  fit.family = DistributionFamily::kLogNormal;
  fit.p1 = 3.0;
  fit.p2 = 0.8;
  EXPECT_GT(table.LookupSpec(fit), 0.0);
  fit.family = DistributionFamily::kNormal;
  EXPECT_DEATH(table.LookupSpec(fit), "family mismatch");
}

TEST(WaitTableTest, CedarWithTableMatchesScanQuality) {
  // End to end: the table-driven Cedar should land within a whisker of the
  // scan-driven Cedar on the Facebook replay.
  auto workload = MakeFacebookWorkload(20, 20);
  CedarPolicy scan_cedar;

  CedarPolicyOptions table_options;
  table_options.use_wait_table = true;
  table_options.table_spec.location_min = 0.0;
  table_options.table_spec.location_max = 10.0;
  table_options.table_spec.location_points = 81;
  table_options.table_spec.scale_min = 0.1;
  table_options.table_spec.scale_max = 2.5;
  table_options.table_spec.scale_points = 25;
  CedarPolicy table_cedar(table_options);

  ExperimentConfig config;
  config.deadline = 1000.0;
  config.num_queries = 15;
  config.seed = 77;
  // Use offline upper knowledge so the table is built once, as deployed.
  config.sim.per_query_upper_knowledge = false;

  // Policies share the name "cedar", so run them separately on the same
  // seed (realizations are drawn independently of the policy set).
  auto scan_result = RunExperiment(workload, {&scan_cedar}, config);
  auto table_result = RunExperiment(workload, {&table_cedar}, config);
  EXPECT_NEAR(table_result.Outcome("cedar").MeanQuality(),
              scan_result.Outcome("cedar").MeanQuality(), 0.02);
}

TEST(WaitTableDeathTest, RejectsNonFiniteFits) {
  // Lookup casts the grid position to int: a NaN fit must die, not index.
  TableFixture fixture;
  WaitTable table(fixture.DefaultSpec(), 50, fixture.upper, 1000.0, fixture.epsilon);
  DistributionSpec fitted;
  fitted.family = DistributionFamily::kLogNormal;
  fitted.p1 = 3.0;
  fitted.p2 = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(table.LookupSpec(fitted), "non-finite fit");
  fitted.p1 = std::numeric_limits<double>::infinity();
  fitted.p2 = 0.8;
  EXPECT_DEATH(table.LookupSpec(fitted), "non-finite fit");
}

TEST(WaitTableDeathTest, RejectsBadSpecs) {
  TableFixture fixture;
  WaitTableSpec spec = fixture.DefaultSpec();
  spec.scale_min = 0.0;
  EXPECT_DEATH(WaitTable(spec, 50, fixture.upper, 1000.0, fixture.epsilon), "");
  spec = fixture.DefaultSpec();
  spec.family = DistributionFamily::kPareto;
  EXPECT_DEATH(WaitTable(spec, 50, fixture.upper, 1000.0, fixture.epsilon), "location-scale");
}

}  // namespace
}  // namespace cedar
