#include "src/trace/trace_io.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "src/trace/calibration.h"
#include "src/trace/workloads.h"

namespace cedar {
namespace {

TEST(CalibrationTest, EffectiveMarginalSigma) {
  EXPECT_DOUBLE_EQ(EffectiveMarginalSigma(0.8, 0.0, 0.0), 0.8);
  EXPECT_NEAR(EffectiveMarginalSigma(0.6, 0.8, 0.0), 1.0, 1e-12);
  EXPECT_GT(EffectiveMarginalSigma(0.8, 0.5, 0.2), 0.8);
}

TEST(FacebookWorkloadTest, ShapeAndUnits) {
  auto workload = MakeFacebookWorkload(50, 40);
  EXPECT_EQ(workload.name(), "facebook-mr");
  EXPECT_EQ(workload.time_unit(), "s");
  TreeSpec tree = workload.OfflineTree();
  EXPECT_EQ(tree.num_stages(), 2);
  EXPECT_EQ(tree.stage(0).fanout, 50);
  EXPECT_EQ(tree.stage(1).fanout, 40);
}

TEST(FacebookWorkloadTest, OfflineMarginalReflectsTailInflation) {
  auto workload = MakeFacebookWorkload();
  TreeSpec tree = workload.OfflineTree();
  // The offline global mean must exceed the median job's stage mean by a
  // large factor (the heavy job tail is what misleads Proportional-split).
  double global_mean = tree.stage(0).duration->Mean();
  LogNormalDistribution median_job(kFacebookJobMapMu, kFacebookMapSigma);
  EXPECT_GT(global_mean, 3.0 * median_job.Mean());
}

TEST(FacebookWorkloadTest, QueriesVaryAcrossDraws) {
  auto workload = MakeFacebookWorkload();
  Rng rng(1);
  auto q1 = workload.DrawQuery(rng);
  auto q2 = workload.DrawQuery(rng);
  ASSERT_EQ(q1.stage_durations.size(), 2u);
  EXPECT_NE(q1.stage_durations[0]->Mean(), q2.stage_durations[0]->Mean());
}

TEST(FacebookWorkloadTest, JobScaleRangeIsWide) {
  // The trace's hallmark: durations vary by orders of magnitude across jobs.
  auto workload = MakeFacebookWorkload();
  Rng rng(2);
  double min_mean = 1e300;
  double max_mean = 0.0;
  for (int i = 0; i < 300; ++i) {
    auto truth = workload.DrawQuery(rng);
    double mean = truth.stage_durations[0]->Mean();
    min_mean = std::min(min_mean, mean);
    max_mean = std::max(max_mean, mean);
  }
  EXPECT_GT(max_mean / min_mean, 100.0);
}

TEST(ThreeLevelWorkloadTest, HasThreeStages) {
  auto workload = MakeFacebookThreeLevelWorkload(10, 10, 10);
  EXPECT_EQ(workload.OfflineTree().num_stages(), 3);
  Rng rng(3);
  EXPECT_EQ(workload.DrawQuery(rng).stage_durations.size(), 3u);
}

TEST(InteractiveWorkloadTest, UsesPaperFits) {
  auto workload = MakeInteractiveWorkload();
  EXPECT_EQ(workload.time_unit(), "ms");
  const auto& stages = workload.stages();
  EXPECT_DOUBLE_EQ(stages[0].mu, kFacebookMapMu);
  EXPECT_DOUBLE_EQ(stages[1].mu, kGoogleMu);
  EXPECT_DOUBLE_EQ(stages[1].sigma, kGoogleSigma);
}

TEST(CosmosWorkloadTest, StationaryAcrossQueries) {
  auto workload = MakeCosmosWorkload();
  Rng rng(4);
  auto q1 = workload.DrawQuery(rng);
  auto q2 = workload.DrawQuery(rng);
  EXPECT_DOUBLE_EQ(q1.stage_durations[0]->Mean(), q2.stage_durations[0]->Mean());
  EXPECT_DOUBLE_EQ(q1.stage_durations[1]->StdDev(), q2.stage_durations[1]->StdDev());
}

TEST(SigmaSweepWorkloadTest, Sigma1IsApplied) {
  auto workload = MakeBingSigmaWorkload(2.25);
  const auto& stages = workload.stages();
  EXPECT_DOUBLE_EQ(stages[0].sigma, 2.25);
  EXPECT_DOUBLE_EQ(stages[0].mu, kBingMu);
  EXPECT_DOUBLE_EQ(stages[1].sigma, kBingSigma);
}

TEST(SigmaSweepWorkloadTest, ReportsEachTracesUnit) {
  // The traces' fits are in microseconds (Bing), milliseconds (Google) and
  // seconds (Facebook), as Figure 16's panels say.
  EXPECT_EQ(MakeBingSigmaWorkload(2.25).time_unit(), "us");
  EXPECT_EQ(MakeGoogleSigmaWorkload(0.55).time_unit(), "ms");
  EXPECT_EQ(MakeFacebookSigmaWorkload(1.0).time_unit(), "s");
}

TEST(GaussianWorkloadTest, MatchesFigure17Parameters) {
  GaussianWorkload workload;
  TreeSpec tree = workload.OfflineTree();
  EXPECT_EQ(tree.stage(0).duration->family(), DistributionFamily::kNormal);
  EXPECT_NEAR(tree.stage(0).duration->Mean(), kGaussianMeanMs, 1e-9);
  EXPECT_NEAR(tree.stage(1).duration->StdDev(), kGaussianTopSd, 1e-9);
  Rng rng(5);
  auto truth = workload.DrawQuery(rng);
  EXPECT_EQ(truth.stage_durations[0]->family(), DistributionFamily::kNormal);
}

TEST(MismatchedWorkloadTest, ReportsStaleOffline) {
  auto actual = std::make_shared<StationaryWorkload>(
      "inner", "s",
      TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(3.0, 0.8), 5,
                         std::make_shared<LogNormalDistribution>(2.0, 0.5), 5));
  TreeSpec stale = TreeSpec::TwoLevel(std::make_shared<LogNormalDistribution>(1.0, 0.8), 5,
                                      std::make_shared<LogNormalDistribution>(2.0, 0.5), 5);
  MismatchedOfflineWorkload workload(actual, stale);
  EXPECT_NEAR(workload.OfflineTree().stage(0).duration->Mean(),
              LogNormalDistribution(1.0, 0.8).Mean(), 1e-9);
  Rng rng(6);
  EXPECT_NEAR(workload.DrawQuery(rng).stage_durations[0]->Mean(),
              LogNormalDistribution(3.0, 0.8).Mean(), 1e-9);
}

TEST(StragglerWorkloadTest, BimodalBottomStage) {
  StragglerWorkload::Options options;
  options.mu_spread = 0.0;  // deterministic query for an exact check
  StragglerWorkload workload(options);
  Rng rng(8);
  auto truth = workload.DrawQuery(rng);
  const auto& bottom = *truth.stage_durations[0];
  // The straggler mode puts ~8% of mass far beyond the body's p99.9.
  LogNormalDistribution body(options.body_mu, options.body_sigma);
  double far = 1.5 * body.Quantile(0.999);
  EXPECT_GT(1.0 - bottom.Cdf(far), 0.04);
  EXPECT_LT(1.0 - bottom.Cdf(far), 0.12);
}

TEST(StragglerWorkloadTest, OfflineTreeIsMixture) {
  StragglerWorkload workload;
  TreeSpec tree = workload.OfflineTree();
  EXPECT_NE(tree.stage(0).duration->ToString().find("mixture"), std::string::npos);
  EXPECT_EQ(tree.num_stages(), 2);
}

TEST(WorkloadFactoryTest, KnownNamesConstruct) {
  for (const char* name :
       {"facebook", "facebook-3level", "interactive", "cosmos", "gaussian", "straggler"}) {
    auto workload = MakeWorkloadByName(name, 10, 10);
    ASSERT_NE(workload, nullptr) << name;
    EXPECT_GE(workload->OfflineTree().num_stages(), 2) << name;
  }
  auto sigma_workload = MakeWorkloadByName("google-sigma:1.55", 10, 10);
  EXPECT_EQ(sigma_workload->name(), "google-google");
}

TEST(WorkloadFactoryDeathTest, UnknownNameDies) {
  EXPECT_DEATH(MakeWorkloadByName("bogus"), "unknown workload");
  EXPECT_DEATH(MakeWorkloadByName("bing-sigma:xyz"), "bad sigma");
}

TEST(TraceIoTest, MaterializeSaveLoadRoundTrip) {
  auto workload = MakeFacebookWorkload(6, 5);
  QueryTrace trace = MaterializeTrace(workload, 12, 77);
  EXPECT_EQ(trace.queries.size(), 12u);
  EXPECT_EQ(trace.fanouts, (std::vector<int>{6, 5}));

  std::string path = ::testing::TempDir() + "/cedar_trace_test.csv";
  SaveQueryTrace(trace, path);
  QueryTrace loaded = LoadQueryTrace(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.queries.size(), trace.queries.size());
  EXPECT_EQ(loaded.name, trace.name);
  EXPECT_EQ(loaded.unit, trace.unit);
  EXPECT_EQ(loaded.fanouts, trace.fanouts);
  for (size_t q = 0; q < trace.queries.size(); ++q) {
    for (size_t s = 0; s < trace.queries[q].stages.size(); ++s) {
      EXPECT_EQ(loaded.queries[q].stages[s].family, trace.queries[q].stages[s].family);
      EXPECT_NEAR(loaded.queries[q].stages[s].p1, trace.queries[q].stages[s].p1, 1e-12);
      EXPECT_NEAR(loaded.queries[q].stages[s].p2, trace.queries[q].stages[s].p2, 1e-12);
    }
  }
}

TEST(ReplayWorkloadTest, CyclesThroughRecordedQueries) {
  auto workload = MakeFacebookWorkload(4, 4);
  QueryTrace trace = MaterializeTrace(workload, 3, 5);
  ReplayWorkload replay(std::move(trace));
  Rng rng(1);
  auto q0 = replay.DrawQuery(rng);
  auto q1 = replay.DrawQuery(rng);
  auto q2 = replay.DrawQuery(rng);
  auto q0_again = replay.DrawQuery(rng);
  EXPECT_DOUBLE_EQ(q0.stage_durations[0]->Mean(), q0_again.stage_durations[0]->Mean());
  EXPECT_NE(q0.stage_durations[0]->Mean(), q1.stage_durations[0]->Mean());
  EXPECT_NE(q1.stage_durations[0]->Mean(), q2.stage_durations[0]->Mean());
}

TEST(ReplayWorkloadTest, OfflineTreeIsGlobalFitOverRecords) {
  auto workload = MakeFacebookWorkload(4, 4);
  QueryTrace trace = MaterializeTrace(workload, 50, 5);
  ReplayWorkload replay(trace);
  TreeSpec offline = replay.OfflineTree();
  // Global sigma must exceed the typical per-query sigma: it folds in the
  // across-query location variance.
  double typical_sigma = trace.queries[0].stages[0].p2;
  const auto* global =
      static_cast<const LogNormalDistribution*>(offline.stage(0).duration.get());
  EXPECT_GT(global->sigma(), typical_sigma);
}

TEST(TraceIoDeathTest, MixtureStageNamesItsFamily) {
  // DistributionSpec has no mixture form, so a straggler trace cannot be
  // materialized; the error names the stage's real family.
  StragglerWorkload workload;
  EXPECT_DEATH(MaterializeTrace(workload, 1, 1), "unsupported stage family mixture");
}

TEST(TraceIoDeathTest, MalformedCsvRejected) {
  std::string path = ::testing::TempDir() + "/cedar_bad_trace.csv";
  {
    std::ofstream out(path);
    out << "name,unit,query,stage,family,p1,p2\n";  // missing fanouts column
    out << "x,s,0,0,lognormal,1,1\n";
  }
  EXPECT_DEATH(LoadQueryTrace(path), "malformed trace");
  std::remove(path.c_str());
}

TEST(TraceIoDeathTest, EmptyTraceRejected) {
  std::string path = ::testing::TempDir() + "/cedar_empty_trace.csv";
  {
    std::ofstream out(path);
    out << "name,unit,fanouts,query,stage,family,p1,p2\n";
  }
  EXPECT_DEATH(LoadQueryTrace(path), "empty trace");
  std::remove(path.c_str());
}

TEST(TraceIoDeathTest, BadQueryIndexRejected) {
  // A query index must parse and fall below the row count; unchecked, -1
  // wraps to SIZE_MAX and a huge index resizes the trace to that size.
  std::string path = ::testing::TempDir() + "/cedar_bad_index_trace.csv";
  for (const char* query : {"-1", "x", "4000000000"}) {
    {
      std::ofstream out(path);
      out << "name,unit,fanouts,query,stage,family,p1,p2\n";
      out << "x,s,2,0,0,lognormal,1,1\n";
      out << "x,s,2," << query << ",0,lognormal,1,1\n";
    }
    EXPECT_DEATH(LoadQueryTrace(path), std::string("bad query index in .*'") + query + "'")
        << query;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cedar
