#include "src/common/sample_set.h"

#include <cmath>

#include <gtest/gtest.h>

namespace cedar {
namespace {

TEST(SampleSetTest, MeanAndStdDev) {
  SampleSet s({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  // Sample (n-1) stddev of this classic set is sqrt(32/7).
  EXPECT_NEAR(s.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SampleSetTest, StdDevOfSingletonIsZero) {
  SampleSet s({3.0});
  EXPECT_DOUBLE_EQ(s.StdDev(), 0.0);
}

TEST(SampleSetTest, MinMaxSum) {
  SampleSet s({3.0, -1.0, 10.0});
  EXPECT_DOUBLE_EQ(s.Min(), -1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 10.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 12.0);
  EXPECT_EQ(s.size(), 3u);
}

TEST(SampleSetTest, QuantileAfterIncrementalAdds) {
  SampleSet s;
  for (int i = 100; i >= 1; --i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Median(), 50.5);
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 100.0);
}

TEST(SampleSetTest, SortCacheInvalidatedByAdd) {
  SampleSet s({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.Max(), 3.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Max(), 10.0);
  EXPECT_DOUBLE_EQ(s.Ecdf(3.5), 0.75);
}

TEST(SampleSetTest, EcdfSteps) {
  SampleSet s({1.0, 2.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(s.Ecdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Ecdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(s.Ecdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(s.Ecdf(100.0), 1.0);
}

TEST(SampleSetTest, CdfPointsCoverFullRange) {
  SampleSet s;
  for (int i = 1; i <= 1000; ++i) {
    s.Add(static_cast<double>(i));
  }
  auto points = s.CdfPoints(10);
  ASSERT_EQ(points.size(), 10u);
  EXPECT_DOUBLE_EQ(points.front().first, 1.0);
  EXPECT_DOUBLE_EQ(points.back().first, 1000.0);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
  // Fractions are non-decreasing.
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GE(points[i].second, points[i - 1].second);
  }
}

TEST(SampleSetTest, CdfPointsFewerSamplesThanRequested) {
  SampleSet s({5.0, 1.0});
  auto points = s.CdfPoints(10);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_DOUBLE_EQ(points[0].first, 1.0);
  EXPECT_DOUBLE_EQ(points[1].first, 5.0);
}

TEST(SampleSetTest, ValuesPreserveInsertionOrder) {
  SampleSet s({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(s.values()[0], 3.0);
  EXPECT_DOUBLE_EQ(s.values()[2], 2.0);
}

}  // namespace
}  // namespace cedar
