#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "common/stats.h"

namespace vc {
namespace {

TEST(RunningStats, Basics) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SingleSampleVarianceZero) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesPooled) {
  RunningStats a;
  RunningStats b;
  RunningStats pooled;
  for (int i = 0; i < 50; ++i) {
    const double v = 0.37 * i - 3;
    (i % 2 == 0 ? a : b).add(v);
    pooled.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), pooled.count());
  EXPECT_NEAR(a.mean(), pooled.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), pooled.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), pooled.min());
  EXPECT_DOUBLE_EQ(a.max(), pooled.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(Quantile, LinearInterpolation) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);  // numpy type-7
}

TEST(Quantile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(quantile({9, 1, 5}, 0.5), 5.0);
}

TEST(Quantile, Errors) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile({1.0}, 1.5), std::invalid_argument);
}

// quantile_sorted is the no-copy path for a sample the caller keeps sorted;
// it must agree with quantile() on arbitrary input.
TEST(QuantileSorted, MatchesGeneralQuantile) {
  std::vector<double> values = {9.5, -2.0, 4.25, 4.25, 0.0, 17.0, 3.1, -8.75, 6.0};
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  for (double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile_sorted(sorted, q), quantile(values, q)) << "q=" << q;
  }
}

TEST(QuantileSorted, Errors) {
  EXPECT_THROW(quantile_sorted({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile_sorted({1.0}, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile_sorted({1.0}, 1.5), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

}  // namespace
}  // namespace vc
